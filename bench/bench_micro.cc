// Microbenchmarks (google-benchmark) for the hot paths a NIC/driver would
// care about: ROHC compression/decompression, MD5 CID derivation, the
// discrete-event scheduler, DCF grant machinery and the channel fan-out.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <vector>

#include "src/net/address.h"
#include "src/phy80211/wifi_mode.h"
#include "src/phy80211/wifi_phy.h"
#include "src/rohc/rohc.h"
#include "src/sim/scheduler.h"
#include "src/util/md5.h"

namespace hacksim {
namespace {

Packet MakeAck(uint32_t ack) {
  TcpHeader tcp;
  tcp.src_port = 6000;
  tcp.dst_port = 5000;
  tcp.seq = 1;
  tcp.ack = ack;
  tcp.flag_ack = true;
  tcp.window = 32768;
  tcp.timestamps = TcpTimestamps{100, 200};
  return Packet::MakeTcp(Ipv4Address::FromOctets(10, 0, 2, 1),
                         Ipv4Address::FromOctets(10, 0, 0, 1), tcp, 0);
}

void BM_RohcCompressSteadyStream(benchmark::State& state) {
  RohcCompressor comp;
  uint32_t ack = 1000;
  (void)comp.Compress(MakeAck(ack));
  for (auto _ : state) {
    ack += 2920;
    benchmark::DoNotOptimize(comp.Compress(MakeAck(ack)));
  }
}
BENCHMARK(BM_RohcCompressSteadyStream);

void BM_RohcRoundTrip(benchmark::State& state) {
  RohcCompressor comp;
  RohcDecompressor decomp;
  uint32_t ack = 1000;
  decomp.NoteVanillaAck(MakeAck(ack));
  for (auto _ : state) {
    ack += 2920;
    auto r = comp.Compress(MakeAck(ack));
    ByteReader reader(r.bytes);
    auto rec = CompressedAckRecord::Deserialize(reader);
    benchmark::DoNotOptimize(decomp.Decompress(*rec));
  }
}
BENCHMARK(BM_RohcRoundTrip);

void BM_Md5Cid(benchmark::State& state) {
  // Fresh tuple each iteration: RohcCid() memoises per object, and this
  // bench measures the cold MD5 derivation.
  uint16_t port = 6000;
  for (auto _ : state) {
    FiveTuple t{Ipv4Address::FromOctets(10, 0, 2, 1),
                Ipv4Address::FromOctets(10, 0, 0, 1), ++port, 5000, 6};
    benchmark::DoNotOptimize(t.RohcCid());
  }
}
BENCHMARK(BM_Md5Cid);

void BM_Md5CidMemoised(benchmark::State& state) {
  FiveTuple t{Ipv4Address::FromOctets(10, 0, 2, 1),
              Ipv4Address::FromOctets(10, 0, 0, 1), 6000, 5000, 6};
  (void)t.RohcCid();
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.RohcCid());
  }
}
BENCHMARK(BM_Md5CidMemoised);

void BM_Md5Hash1K(benchmark::State& state) {
  std::vector<uint8_t> data(1024, 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Md5::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Md5Hash1K);

void BM_SchedulerChurn(benchmark::State& state) {
  Scheduler sched;
  uint64_t n = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      sched.ScheduleIn(SimTime::Micros(1 + i % 7), [&n]() { ++n; });
    }
    sched.Run();
  }
  benchmark::DoNotOptimize(n);
}
BENCHMARK(BM_SchedulerChurn);

void BM_SchedulerCancelHeavy(benchmark::State& state) {
  Scheduler sched;
  for (auto _ : state) {
    std::vector<EventId> ids;
    ids.reserve(64);
    for (int i = 0; i < 64; ++i) {
      ids.push_back(sched.ScheduleIn(SimTime::Micros(5), []() {}));
    }
    for (size_t i = 0; i < ids.size(); i += 2) {
      sched.Cancel(ids[i]);
    }
    sched.Run();
  }
}
BENCHMARK(BM_SchedulerCancelHeavy);

void BM_HeaderSerializeTcpAck(benchmark::State& state) {
  Packet p = MakeAck(123456);
  for (auto _ : state) {
    ByteWriter w;
    p.ip().Serialize(w);
    p.tcp().Serialize(w);
    benchmark::DoNotOptimize(w.bytes().data());
  }
}
BENCHMARK(BM_HeaderSerializeTcpAck);

class CountingPhyListener : public WifiPhyListener {
 public:
  void OnPpduReceived(const Ppdu&, const std::vector<bool>&) override {
    ++received;
  }
  void OnRxCorrupted() override {}
  void OnTxEnd(const Ppdu&) override {}
  void OnCcaBusy() override {}
  void OnCcaIdle() override {}

  uint64_t received = 0;
};

// Channel fan-out: one 16-MPDU A-MPDU of full TCP segments at 150 Mbps from
// a sender at the origin to N receivers on a 5 m ring, run to completion
// (Transmit, N arrival starts and ends, N decodes). Each iteration also
// copies the prototype PPDU into Send, a cost independent of N.
void BM_ChannelTransmit(benchmark::State& state) {
  const int receivers = static_cast<int>(state.range(0));
  constexpr double kPi = 3.14159265358979323846;
  Scheduler sched;
  WirelessChannel channel{&sched};
  std::vector<std::unique_ptr<WifiPhy>> phys;
  std::vector<CountingPhyListener> listeners(receivers + 1);
  for (int i = 0; i <= receivers; ++i) {
    auto phy = std::make_unique<WifiPhy>(&sched, Random(i + 1));
    double angle = 2.0 * kPi * i / receivers;
    phy->set_position(i == 0 ? Position{0.0, 0.0}
                             : Position{5.0 * std::cos(angle),
                                        5.0 * std::sin(angle)});
    phy->set_listener(&listeners[i]);
    phy->AttachTo(&channel);
    phys.push_back(std::move(phy));
  }
  Ppdu prototype;
  prototype.aggregated = true;
  prototype.mode = ModeForRate(Modes80211n(), 150.0);
  for (uint16_t s = 0; s < 16; ++s) {
    TcpHeader tcp;
    tcp.src_port = 5000;
    tcp.dst_port = 6000;
    tcp.seq = 1 + s * 1460u;
    tcp.flag_ack = true;
    WifiFrame frame;
    frame.type = WifiFrameType::kData;
    frame.ta = MacAddress::ForStation(0);
    frame.ra = MacAddress::ForStation(1);
    frame.seq = s;
    frame.packet = Packet::MakeTcp(Ipv4Address::FromOctets(10, 0, 0, 1),
                                   Ipv4Address::FromOctets(10, 0, 2, 1), tcp,
                                   1460);
    prototype.mpdus.push_back(std::move(frame));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(phys.front()->Send(prototype));
    sched.Run();
  }
  if (listeners[1].received != static_cast<uint64_t>(state.iterations())) {
    state.SkipWithError("the addressed receiver missed a PPDU");
  }
}
BENCHMARK(BM_ChannelTransmit)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace hacksim

BENCHMARK_MAIN();
