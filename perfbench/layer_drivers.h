// Benchmark-owned drivers that time calls into one hacksim layer's public
// functions, with inputs shaped like a workload. Each driver builds its
// inputs in Prepare, does only the layer's work in Run (the call a span
// wraps) and checks the layer's outputs in Verify, so a span covers the
// layer and nothing else. Run returns how many operations it performed;
// the caller divides the span's duration by that count.
//
// Verify returns false on the first wrong output, so a layer that gets
// faster by doing less fails the run instead of improving a number.
#ifndef PERFBENCH_LAYER_DRIVERS_H_
#define PERFBENCH_LAYER_DRIVERS_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/phy80211/frame.h"
#include "src/phy80211/wifi_phy.h"
#include "src/rohc/rohc.h"
#include "src/sim/random.h"
#include "src/sim/scheduler.h"
#include "src/tcp/tcp_sender.h"

namespace perfbench {

// The shape of a workload's timer traffic: how many events are pending at
// once, the share of scheduled events that are cancelled before they fire
// (MAC response timeouts and TCP RTOs mostly are), and how far ahead
// events land.
struct SchedulerShape {
  int pending = 32;
  double cancel_share = 0.5;
  int64_t max_delay_ns = 1'000'000;
};

// Scheduler::ScheduleAt / Cancel / RunUntil at a workload's shape.
class SchedulerDriver {
 public:
  SchedulerDriver(SchedulerShape shape, uint64_t seed);
  void Prepare(int ops);
  uint64_t Run();  // returns events scheduled
  bool Verify() const;

 private:
  struct Step {
    uint32_t slot;
    bool cancel;
    int64_t delay_ns;
  };
  SchedulerShape shape_;
  hacksim::Random rng_;
  std::vector<Step> steps_;
  uint64_t scheduled_ = 0;
  uint64_t retired_ = 0;  // fired + cancelled while pending
};

// WirelessChannel::Transmit (through WifiPhy::Send) of an A-MPDU to
// `receivers` WifiPhys, each with a counting listener, draining the
// scheduler after every PPDU.
class TransmitDriver {
 public:
  explicit TransmitDriver(int receivers);
  ~TransmitDriver();
  TransmitDriver(const TransmitDriver&) = delete;
  TransmitDriver& operator=(const TransmitDriver&) = delete;

  void Prepare(int ppdus);
  uint64_t Run();  // returns PPDUs transmitted
  bool Verify() const;

 private:
  class CountingListener;
  hacksim::Scheduler scheduler_;
  hacksim::WirelessChannel channel_{&scheduler_};
  std::vector<std::unique_ptr<hacksim::WifiPhy>> phys_;  // [0] = sender
  std::vector<std::unique_ptr<CountingListener>> listeners_;
  hacksim::Ppdu prototype_;
  std::vector<hacksim::Ppdu> batch_;
  uint64_t sent_ = 0;
};

// RohcCompressor::Compress and RohcDecompressor::Decompress on a steady
// pure-ACK stream, round-robin over `contexts` flows. As at the AP, each
// flow has its own peer-scoped compressor/decompressor pair.
class RohcDriver {
 public:
  explicit RohcDriver(int contexts);
  void Prepare(int acks);
  uint64_t RunCompress();  // returns ACKs compressed
  // Parses the compressed bytes into records (not timed).
  void PrepareDecompress();
  uint64_t RunDecompress();  // returns records decompressed
  bool Verify() const;

 private:
  struct Context {
    hacksim::FiveTuple flow;
    hacksim::RohcCompressor compressor;
    hacksim::RohcDecompressor decompressor;
    uint32_t ack = 0;
    uint32_t tsval = 0;
  };
  static hacksim::Packet MakeAck(const Context& ctx);

  std::vector<Context> contexts_;
  size_t cursor_ = 0;
  bool ok_ = true;
  std::vector<size_t> batch_context_;
  std::vector<uint32_t> batch_ack_;
  std::vector<hacksim::Packet> batch_packets_;
  std::vector<hacksim::RohcCompressor::Result> compressed_;
  std::vector<hacksim::CompressedAckRecord> records_;
  std::vector<hacksim::RohcDecompressor::Result> decompressed_;
};

// TcpSender::OnPacket with pure ACKs that advance by two segments each (a
// delayed-ACK receiver), the scheduler advanced to each ACK's arrival.
class TcpAckDriver {
 public:
  TcpAckDriver();
  void Prepare(int acks);
  uint64_t Run();  // returns ACKs delivered
  bool Verify() const;

 private:
  hacksim::Scheduler scheduler_;
  std::unique_ptr<hacksim::TcpSender> sender_;
  bool syn_seen_ = false;
  uint32_t iss_ = 0;
  uint32_t snd_nxt_seen_ = 0;
  uint32_t next_ack_ = 0;
  uint32_t tsval_ = 1;
  hacksim::SimTime next_at_;
  uint64_t acks_fed_ = 0;
  std::vector<std::pair<hacksim::SimTime, hacksim::Packet>> batch_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_DRIVERS_H_
