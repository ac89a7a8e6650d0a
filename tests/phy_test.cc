// Unit tests: PHY timing tables (the numbers the paper's analysis rests on),
// frame sizes, loss models, and the collision semantics of the shared medium.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/phy80211/frame.h"
#include "src/phy80211/loss_model.h"
#include "src/phy80211/propagation.h"
#include "src/phy80211/wifi_mode.h"
#include "src/phy80211/wifi_phy.h"

namespace hacksim {
namespace {

// --- timing tables ---------------------------------------------------------------

TEST(WifiModeTest, TimingConstantsMatchStandard) {
  PhyTimings a = TimingsFor(WifiStandard::k80211a);
  EXPECT_EQ(a.slot, SimTime::Micros(9));
  EXPECT_EQ(a.sifs, SimTime::Micros(16));
  EXPECT_EQ(a.difs, SimTime::Micros(34));  // SIFS + 2 slots

  PhyTimings n = TimingsFor(WifiStandard::k80211n);
  EXPECT_EQ(n.difs, SimTime::Micros(43));  // AIFS[BE] = SIFS + 3 slots
  EXPECT_EQ(n.cw_min, 15u);
  EXPECT_EQ(n.cw_max, 1023u);
}

TEST(WifiModeTest, MeanIdlePeriodIs110_5Microseconds) {
  // §1: "EDCA in 802.11n enforces an average idle period of 110.5 us".
  PhyTimings n = TimingsFor(WifiStandard::k80211n);
  double mean_us = n.difs.ToMicrosF() + n.cw_min / 2.0 * n.slot.ToMicrosF();
  EXPECT_DOUBLE_EQ(mean_us, 110.5);
}

TEST(WifiModeTest, ModeTables) {
  EXPECT_EQ(Modes80211a().size(), 8u);
  EXPECT_EQ(Modes80211a().front().rate_mbps(), 6.0);
  EXPECT_EQ(Modes80211a().back().rate_mbps(), 54.0);
  EXPECT_EQ(Modes80211n().size(), 8u);
  EXPECT_EQ(Modes80211n().front().rate_mbps(), 15.0);
  EXPECT_EQ(Modes80211n().back().rate_mbps(), 150.0);
  EXPECT_EQ(Modes80211nExtended().back().rate_mbps(), 600.0);
  EXPECT_EQ(Modes80211nExtended().back().spatial_streams, 4);
}

TEST(WifiModeTest, ControlResponseRates) {
  // Highest basic rate (6/12/24) not exceeding the data rate.
  auto mode_a = [](double mbps) {
    return ModeForRate(Modes80211a(), mbps);
  };
  EXPECT_EQ(ControlResponseMode(mode_a(54)).rate_mbps(), 24.0);
  EXPECT_EQ(ControlResponseMode(mode_a(24)).rate_mbps(), 24.0);
  EXPECT_EQ(ControlResponseMode(mode_a(18)).rate_mbps(), 12.0);
  EXPECT_EQ(ControlResponseMode(mode_a(9)).rate_mbps(), 6.0);
  EXPECT_EQ(ControlResponseMode(mode_a(6)).rate_mbps(), 6.0);
  // HT rates map the same way (paper §4.3: 150 Mbps data, 24 Mbps LL ACKs).
  EXPECT_EQ(ControlResponseMode(ModeForRate(Modes80211n(), 150)).rate_mbps(),
            24.0);
  EXPECT_EQ(ControlResponseMode(ModeForRate(Modes80211n(), 15)).rate_mbps(),
            12.0);
}

// Hand-computed 802.11a durations: T = 20us + 4us * ceil((22 + 8n)/NDBPS).
struct DurationCase {
  double rate_mbps;
  size_t bytes;
  int64_t expect_us;
};

class DurationTest : public ::testing::TestWithParam<DurationCase> {};

TEST_P(DurationTest, Matches80211aFormula) {
  const DurationCase& c = GetParam();
  WifiMode mode = ModeForRate(Modes80211a(), c.rate_mbps);
  EXPECT_EQ(FrameDuration(mode, c.bytes), SimTime::Micros(c.expect_us));
}

INSTANTIATE_TEST_SUITE_P(
    Handbook, DurationTest,
    ::testing::Values(
        // ACK (14 B) at 24 Mbps: 20 + 4*ceil(134/96) = 28 us.
        DurationCase{24, 14, 28},
        // ACK at 6 Mbps: 20 + 4*ceil(134/24) = 44 us.
        DurationCase{6, 14, 44},
        // 1536-byte MPDU at 54 Mbps: 20 + 4*ceil(12310/216) = 248 us.
        DurationCase{54, 1536, 248},
        // Block ACK (32 B) at 24 Mbps: 20 + 4*ceil(278/96) = 32 us.
        DurationCase{24, 32, 32}));

TEST(WifiModeTest, HtPreambleAndSymbols) {
  WifiMode ht150 = ModeForRate(Modes80211n(), 150);
  EXPECT_EQ(PreambleDuration(ht150), SimTime::Micros(36));
  // 540 bits per 3.6 us symbol at 150 Mbps.
  EXPECT_EQ(ht150.bits_per_symbol, 540);
  // 1 symbol of data: 22 bits fits in one symbol -> 36 + 3.6 us.
  EXPECT_EQ(FrameDuration(ht150, 0), SimTime::Nanos(36'000 + 3'600));
}

TEST(WifiModeTest, MultiStreamPreambleGrows) {
  WifiMode ht600 = Modes80211nExtended().back();
  // 4 spatial streams: 32 + 4*4 = 48 us preamble.
  EXPECT_EQ(PreambleDuration(ht600), SimTime::Micros(48));
}

// --- frame sizes --------------------------------------------------------------------

TEST(FrameTest, MpduSizes) {
  TcpHeader tcp;
  tcp.flag_ack = true;
  tcp.timestamps = TcpTimestamps{1, 1};
  Packet data = Packet::MakeTcp(Ipv4Address(1), Ipv4Address(2), tcp, 1460);

  WifiFrame frame;
  frame.type = WifiFrameType::kData;
  frame.packet = data;
  // 26 QoS header + 8 LLC + 1512 IP + 4 FCS = 1550.
  EXPECT_EQ(frame.SizeBytes(), 1550u);

  WifiFrame ack;
  ack.type = WifiFrameType::kAck;
  EXPECT_EQ(ack.SizeBytes(), 14u);
  ack.hack_payload = {1, 2, 3, 4, 5};
  EXPECT_EQ(ack.SizeBytes(), 19u);

  WifiFrame ba;
  ba.type = WifiFrameType::kBlockAck;
  ba.ba = BlockAckInfo{};
  EXPECT_EQ(ba.SizeBytes(), 32u);

  WifiFrame bar;
  bar.type = WifiFrameType::kBlockAckReq;
  EXPECT_EQ(bar.SizeBytes(), 24u);
}

TEST(FrameTest, AmpduFitsFortyTwo1460ByteMpdus) {
  // The paper batches 42 packets per A-MPDU: 42 subframes of
  // 4 + pad4(1550) = 1556 bytes = 65352 <= 65535; 43 would not fit.
  TcpHeader tcp;
  tcp.flag_ack = true;
  tcp.timestamps = TcpTimestamps{1, 1};
  Ppdu ppdu;
  ppdu.aggregated = true;
  ppdu.mode = ModeForRate(Modes80211n(), 150);
  for (int i = 0; i < 42; ++i) {
    WifiFrame f;
    f.type = WifiFrameType::kData;
    f.packet = Packet::MakeTcp(Ipv4Address(1), Ipv4Address(2), tcp, 1460);
    ppdu.mpdus.push_back(std::move(f));
  }
  EXPECT_LE(ppdu.PsduBytes(), kMaxAmpduBytes);
  EXPECT_GT(ppdu.PsduBytes() + 1556, kMaxAmpduBytes);
}

TEST(FrameTest, SequenceHelpers) {
  EXPECT_EQ(SeqAdd(4095, 1), 0);
  EXPECT_EQ(SeqAdd(0, -1), 4095);
  EXPECT_EQ(SeqDistance(4090, 5), 11);
  EXPECT_TRUE(SeqInWindow(4090, 2, 64));
  EXPECT_FALSE(SeqInWindow(0, 64, 64));
  EXPECT_TRUE(SeqInWindow(0, 63, 64));
}

// --- loss models ---------------------------------------------------------------------

TEST(LossModelTest, BernoulliRates) {
  BernoulliLossModel model(0.1, 0.01);
  Random rng(5);
  WifiMode mode = Modes80211a()[0];
  int data_losses = 0;
  int ctrl_losses = 0;
  for (int i = 0; i < 20000; ++i) {
    if (model.ShouldCorrupt(mode, 1500, 5.0, rng)) {
      ++data_losses;
    }
    if (model.ShouldCorrupt(mode, 14, 5.0, rng)) {
      ++ctrl_losses;
    }
  }
  EXPECT_NEAR(data_losses / 20000.0, 0.10, 0.01);
  EXPECT_NEAR(ctrl_losses / 20000.0, 0.01, 0.005);
}

TEST(LossModelTest, SnrDecreasesWithDistance) {
  SnrLossModel model;
  EXPECT_GT(model.SnrDbAt(2.0), model.SnrDbAt(10.0));
  EXPECT_GT(model.SnrDbAt(10.0), model.SnrDbAt(50.0));
}

TEST(LossModelTest, FerMonotoneInSnrAndRate) {
  SnrLossModel model;
  WifiMode low = ModeForRate(Modes80211n(), 15);
  WifiMode high = ModeForRate(Modes80211n(), 150);
  // Higher SNR -> lower FER.
  EXPECT_GT(model.FrameErrorRate(high, 1500, 20.0),
            model.FrameErrorRate(high, 1500, 30.0));
  // At a given SNR, faster modes fail more.
  EXPECT_GT(model.FrameErrorRate(high, 1500, 18.0),
            model.FrameErrorRate(low, 1500, 18.0));
  // Longer frames fail more.
  EXPECT_GT(model.FrameErrorRate(high, 1500, 26.0),
            model.FrameErrorRate(high, 64, 26.0));
}

TEST(LossModelTest, FerSaturates) {
  SnrLossModel model;
  WifiMode mode = ModeForRate(Modes80211n(), 150);
  EXPECT_NEAR(model.FrameErrorRate(mode, 1500, 50.0), 0.0, 1e-6);
  EXPECT_NEAR(model.FrameErrorRate(mode, 1500, 0.0), 1.0, 1e-6);
}

// --- medium / collisions ----------------------------------------------------------------

class RecordingListener : public WifiPhyListener {
 public:
  void OnPpduReceived(const Ppdu& ppdu, const std::vector<bool>&) override {
    ++received;
    last_type = ppdu.first().type;
  }
  void OnRxCorrupted() override { ++corrupted; }
  void OnTxEnd(const Ppdu&) override { ++tx_done; }
  void OnCcaBusy() override { ++busy_edges; }
  void OnCcaIdle() override { ++idle_edges; }

  int received = 0;
  int corrupted = 0;
  int tx_done = 0;
  int busy_edges = 0;
  int idle_edges = 0;
  WifiFrameType last_type = WifiFrameType::kData;
};

Ppdu MakeTestPpdu(MacAddress from, MacAddress to) {
  TcpHeader tcp;
  tcp.flag_ack = true;
  WifiFrame f;
  f.type = WifiFrameType::kData;
  f.ta = from;
  f.ra = to;
  f.packet = Packet::MakeTcp(Ipv4Address(1), Ipv4Address(2), tcp, 1000);
  Ppdu ppdu;
  ppdu.aggregated = false;
  ppdu.mode = ModeForRate(Modes80211a(), 54);
  ppdu.mpdus.push_back(std::move(f));
  return ppdu;
}

struct MediumFixture {
  Scheduler sched;
  WirelessChannel channel{&sched};
  WifiPhy phy_a{&sched, Random(1)};
  WifiPhy phy_b{&sched, Random(2)};
  WifiPhy phy_c{&sched, Random(3)};
  RecordingListener la, lb, lc;

  MediumFixture() {
    phy_a.AttachTo(&channel);
    phy_b.AttachTo(&channel);
    phy_c.AttachTo(&channel);
    phy_a.set_listener(&la);
    phy_b.set_listener(&lb);
    phy_c.set_listener(&lc);
    phy_a.set_position({0, 0});
    phy_b.set_position({5, 0});
    phy_c.set_position({0, 5});
  }
};

TEST(WifiPhyTest, CleanDelivery) {
  MediumFixture f;
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(1))));
  f.sched.Run();
  EXPECT_EQ(f.lb.received, 1);
  EXPECT_EQ(f.lb.corrupted, 0);
  EXPECT_EQ(f.lc.received, 1);  // broadcast medium: everyone hears it
  EXPECT_EQ(f.la.tx_done, 1);
  EXPECT_EQ(f.lb.busy_edges, 1);
  EXPECT_EQ(f.lb.idle_edges, 1);
}

TEST(WifiPhyTest, OverlappingTransmissionsCollide) {
  MediumFixture f;
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(2))));
  ASSERT_TRUE(f.phy_b.Send(
      MakeTestPpdu(MacAddress::ForStation(1), MacAddress::ForStation(2))));
  f.sched.Run();
  // C hears two overlapping frames: both corrupted, no decode.
  EXPECT_EQ(f.lc.received, 0);
  EXPECT_GE(f.lc.corrupted, 1);
}

TEST(WifiPhyTest, TransmitterIsDeafWhileSending) {
  MediumFixture f;
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(2))));
  ASSERT_TRUE(f.phy_b.Send(
      MakeTestPpdu(MacAddress::ForStation(1), MacAddress::ForStation(0))));
  f.sched.Run();
  // A was transmitting when B's frame arrived: corrupted at A.
  EXPECT_EQ(f.la.received, 0);
  EXPECT_GE(f.la.corrupted, 1);
}

TEST(WifiPhyTest, SendWhileTransmittingIsRejected) {
  MediumFixture f;
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(1))));
  EXPECT_FALSE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(1))));
  EXPECT_EQ(f.phy_a.tx_dropped_busy(), 1u);
  f.sched.Run();
}

TEST(WifiPhyTest, SequentialTransmissionsBothDeliver) {
  MediumFixture f;
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(1))));
  f.sched.Run();
  ASSERT_TRUE(f.phy_b.Send(
      MakeTestPpdu(MacAddress::ForStation(1), MacAddress::ForStation(0))));
  f.sched.Run();
  EXPECT_EQ(f.lb.received, 1);
  EXPECT_EQ(f.la.received, 1);
}

TEST(WifiPhyTest, LossModelDropsEverything) {
  MediumFixture f;
  f.phy_b.set_loss_model(std::make_unique<BernoulliLossModel>(1.0, 1.0));
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(1))));
  f.sched.Run();
  EXPECT_EQ(f.lb.received, 0);
  EXPECT_EQ(f.lb.corrupted, 1);
  EXPECT_EQ(f.lc.received, 1);  // C's channel is clean
}

TEST(WifiPhyTest, DistanceMeters) {
  EXPECT_DOUBLE_EQ(DistanceMeters({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(DistanceMeters({1, 1}, {1, 1}), 0.0);
}

TEST(WifiPhyTest, AirtimeLedgerAccountsByFrameType) {
  MediumFixture f;
  Ppdu data = MakeTestPpdu(MacAddress::ForStation(0),
                           MacAddress::ForStation(1));
  SimTime data_air = data.Duration();
  ASSERT_TRUE(f.phy_a.Send(std::move(data)));
  f.sched.Run();
  WifiFrame ack;
  ack.type = WifiFrameType::kAck;
  ack.ta = MacAddress::ForStation(1);
  ack.ra = MacAddress::ForStation(0);
  Ppdu ack_ppdu;
  ack_ppdu.aggregated = false;
  ack_ppdu.mode = ModeForRate(Modes80211a(), 24);
  ack_ppdu.mpdus.push_back(std::move(ack));
  SimTime ack_air = ack_ppdu.Duration();
  ASSERT_TRUE(f.phy_b.Send(std::move(ack_ppdu)));
  f.sched.Run();
  const ChannelAirtime& at = f.channel.airtime();
  EXPECT_EQ(at.data_ns, data_air.ns());
  EXPECT_EQ(at.ack_ns, ack_air.ns());
  EXPECT_EQ(at.ppdus, 2u);
  EXPECT_EQ(at.collisions, 0u);
  EXPECT_EQ(at.collision_ns, 0);
}

TEST(WifiPhyTest, DoubleAttachAborts) {
  Scheduler sched;
  WirelessChannel channel{&sched};
  WifiPhy phy{&sched, Random(1)};
  channel.Attach(&phy);
  EXPECT_EQ(channel.attached_count(), 1u);
  EXPECT_DEATH(channel.Attach(&phy), "attached twice");
}

TEST(WifiPhyTest, PartialOverlapCorruptsBothFrames) {
  // B starts while A's frame is still in the air at C: neither decodes,
  // even though A's frame began cleanly — overlap corrupts *both*.
  MediumFixture f;
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(2))));
  Ppdu probe = MakeTestPpdu(MacAddress::ForStation(0),
                            MacAddress::ForStation(2));
  SimTime half = SimTime::Nanos(probe.Duration().ns() / 2);
  f.sched.ScheduleAt(half, [&f]() {
    ASSERT_TRUE(f.phy_b.Send(
        MakeTestPpdu(MacAddress::ForStation(1), MacAddress::ForStation(2))));
  });
  f.sched.Run();
  EXPECT_EQ(f.lc.received, 0);
  EXPECT_EQ(f.lc.corrupted, 2);  // one OnRxCorrupted per corrupted arrival
}

// Per-PPDU scheduler event count must not grow with the attached-PHY count
// under batched delivery — the tentpole property of the dense-cell refactor.
// All receivers sit at one distance so the cell has a single arrival edge
// pair; co-located receivers is exactly the dense-cell worst case for the
// old one-event-per-PHY scheduling.
TEST(WifiPhyTest, BatchedDeliveryEventCountIndependentOfPhyCount) {
  auto events_for = [](size_t n_receivers, ChannelDeliveryMode mode) {
    Scheduler sched;
    WirelessChannel channel{&sched, mode};
    WifiPhy sender{&sched, Random(1)};
    sender.AttachTo(&channel);
    sender.set_position({0, 0});
    std::vector<std::unique_ptr<WifiPhy>> receivers;
    for (size_t i = 0; i < n_receivers; ++i) {
      auto phy = std::make_unique<WifiPhy>(&sched, Random(100 + i));
      phy->AttachTo(&channel);
      phy->set_position({5, 0});
      receivers.push_back(std::move(phy));
    }
    EXPECT_TRUE(sender.Send(
        MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(1))));
    sched.Run();
    return sched.events_executed();
  };

  uint64_t batched_small = events_for(4, ChannelDeliveryMode::kBatched);
  uint64_t batched_large = events_for(256, ChannelDeliveryMode::kBatched);
  EXPECT_EQ(batched_small, batched_large)
      << "batched per-PPDU event count must not scale with PHY count";
  // airtime bookkeeping + start edge batch + end edge batch + own tx end.
  EXPECT_EQ(batched_small, 4u);

  uint64_t per_phy_small = events_for(4, ChannelDeliveryMode::kPerPhyEvent);
  uint64_t per_phy_large = events_for(256, ChannelDeliveryMode::kPerPhyEvent);
  EXPECT_EQ(per_phy_small, 2u + 2u * 4u);
  EXPECT_EQ(per_phy_large, 2u + 2u * 256u);
}

// The two delivery modes must report identical medium behaviour, including
// under collisions, at the channel layer.
TEST(WifiPhyTest, BatchedAndPerPhyDeliveryAgreeUnderCollision) {
  auto run = [](ChannelDeliveryMode mode) {
    Scheduler sched;
    WirelessChannel channel{&sched, mode};
    WifiPhy a{&sched, Random(1)}, b{&sched, Random(2)}, c{&sched, Random(3)};
    RecordingListener la, lb, lc;
    a.AttachTo(&channel);
    b.AttachTo(&channel);
    c.AttachTo(&channel);
    a.set_listener(&la);
    b.set_listener(&lb);
    c.set_listener(&lc);
    a.set_position({0, 0});
    b.set_position({5, 0});
    c.set_position({0, 7});
    EXPECT_TRUE(a.Send(
        MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(2))));
    EXPECT_TRUE(b.Send(
        MakeTestPpdu(MacAddress::ForStation(1), MacAddress::ForStation(2))));
    sched.Run();
    EXPECT_TRUE(c.Send(
        MakeTestPpdu(MacAddress::ForStation(2), MacAddress::ForStation(0))));
    sched.Run();
    return std::tuple{la.received,   la.corrupted, lb.received,
                      lb.corrupted,  lc.received,  lc.corrupted,
                      channel.airtime()};
  };
  auto [bar, bac, bbr, bbc, bcr, bcc, bat] =
      run(ChannelDeliveryMode::kBatched);
  auto [par, pac, pbr, pbc, pcr, pcc, pat] =
      run(ChannelDeliveryMode::kPerPhyEvent);
  EXPECT_EQ(bar, par);
  EXPECT_EQ(bac, pac);
  EXPECT_EQ(bbr, pbr);
  EXPECT_EQ(bbc, pbc);
  EXPECT_EQ(bcr, pcr);
  EXPECT_EQ(bcc, pcc);
  EXPECT_EQ(bat, pat);
}

// Records what each decoded PPDU carried, read inside the callback.
class ContentListener : public WifiPhyListener {
 public:
  struct Decoded {
    MacAddress ta;
    std::vector<uint16_t> seqs;
    size_t intact = 0;
  };
  void OnPpduReceived(const Ppdu& ppdu,
                      const std::vector<bool>& mpdu_ok) override {
    Decoded d{ppdu.first().ta, {}, 0};
    for (size_t i = 0; i < ppdu.mpdus.size(); ++i) {
      d.seqs.push_back(ppdu.mpdus[i].seq);
      d.intact += mpdu_ok[i] ? 1 : 0;
    }
    decoded.push_back(std::move(d));
  }
  void OnRxCorrupted() override { ++corrupted; }
  void OnTxEnd(const Ppdu&) override {}
  void OnCcaBusy() override {}
  void OnCcaIdle() override {}

  std::vector<Decoded> decoded;
  int corrupted = 0;
};

Ppdu MakeTestAmpdu(MacAddress from, MacAddress to, uint16_t first_seq) {
  Ppdu ppdu;
  ppdu.aggregated = true;
  ppdu.mode = ModeForRate(Modes80211n(), 150);
  for (uint16_t s = first_seq; s < first_seq + 4; ++s) {
    TcpHeader tcp;
    tcp.seq = s;
    WifiFrame f;
    f.type = WifiFrameType::kData;
    f.ta = from;
    f.ra = to;
    f.seq = s;
    f.packet = Packet::MakeTcp(Ipv4Address(1), Ipv4Address(2), tcp, 1200);
    ppdu.mpdus.push_back(std::move(f));
  }
  return ppdu;
}

// A receiver's arrival points into the channel's single copy of the PPDU,
// and that copy must outlive the sender's own tx-end. On the ranged channel
// R (1 m from A) captures A's A-MPDU over B's overlapping, far weaker one.
// By the time R's arrival of A's first PPDU ends, A has finished it and
// already sent the next one back-to-back, so only the channel's delivery
// record still holds the first PPDU (the ASan job turns a premature release
// into a use-after-free report).
TEST(WifiPhyTest, CapturedArrivalReadsItsPpduAfterSenderMovedOn) {
  for (ChannelDeliveryMode mode :
       {ChannelDeliveryMode::kBatched, ChannelDeliveryMode::kPerPhyEvent}) {
    Scheduler sched;
    WirelessChannel channel{&sched, mode};
    WifiPhy a{&sched, Random(1)}, b{&sched, Random(2)}, r{&sched, Random(3)};
    a.set_position({0, 0});
    r.set_position({1, 0});
    b.set_position({25, 0});  // -80 dBm at R: detectable, but no match for A
    a.AttachTo(&channel);
    b.AttachTo(&channel);
    r.AttachTo(&channel);
    channel.set_propagation(std::make_unique<LogDistancePropagation>());
    ContentListener la, lb, lr;
    a.set_listener(&la);
    b.set_listener(&lb);
    r.set_listener(&lr);

    MacAddress ma = MacAddress::ForStation(0);
    MacAddress mb = MacAddress::ForStation(1);
    MacAddress mr = MacAddress::ForStation(2);
    Ppdu first = MakeTestAmpdu(ma, mr, 10);
    SimTime airtime = first.Duration();
    ASSERT_TRUE(a.Send(std::move(first)));
    // Scheduled after A's tx-end event for the same instant: A is idle again.
    sched.ScheduleAt(SimTime() + airtime, [&]() {
      ASSERT_TRUE(a.Send(MakeTestAmpdu(ma, mr, 20)));
    });
    sched.ScheduleAt(SimTime::Nanos(airtime.ns() / 2), [&]() {
      ASSERT_TRUE(b.Send(MakeTestAmpdu(mb, mr, 30)));
    });
    sched.Run();

    ASSERT_EQ(lr.decoded.size(), 2u);
    EXPECT_EQ(lr.decoded[0].ta, ma);
    EXPECT_EQ(lr.decoded[0].seqs, (std::vector<uint16_t>{10, 11, 12, 13}));
    EXPECT_EQ(lr.decoded[0].intact, 4u);
    EXPECT_EQ(lr.decoded[1].ta, ma);
    EXPECT_EQ(lr.decoded[1].seqs, (std::vector<uint16_t>{20, 21, 22, 23}));
    EXPECT_EQ(lr.corrupted, 1);  // B's frame lost the overlap at R
    EXPECT_EQ(r.stats().captures, 2u);
    EXPECT_EQ(r.stats().overlap_losses, 1u);
  }
}

// Range pruning with the sender attached in the middle of the PHY list:
// the batched path skips the sender and the out-of-range receivers exactly
// as the per-PHY reference does.
TEST(WifiPhyTest, RangedDeliveryFromMidListSenderMatchesPerPhy) {
  auto run = [](ChannelDeliveryMode mode) {
    Scheduler sched;
    WirelessChannel channel{&sched, mode};
    const std::vector<Position> spots = {
        {3, 0}, {60, 0}, {0, 0}, {0, 12}, {-45, 5}, {0, -20}};
    std::vector<std::unique_ptr<WifiPhy>> phys;
    std::vector<std::unique_ptr<RecordingListener>> listeners;
    for (size_t i = 0; i < spots.size(); ++i) {
      phys.push_back(std::make_unique<WifiPhy>(&sched, Random(10 + i)));
      listeners.push_back(std::make_unique<RecordingListener>());
      phys[i]->set_position(spots[i]);
      phys[i]->set_listener(listeners[i].get());
      phys[i]->AttachTo(&channel);
    }
    channel.set_propagation(std::make_unique<LogDistancePropagation>());
    WifiPhy& sender = *phys[2];
    EXPECT_TRUE(sender.Send(
        MakeTestPpdu(MacAddress::ForStation(2), MacAddress::ForStation(0))));
    sched.Run();
    EXPECT_TRUE(sender.Send(
        MakeTestPpdu(MacAddress::ForStation(2), MacAddress::ForStation(3))));
    sched.Run();
    std::vector<int> received;
    for (const auto& l : listeners) {
      received.push_back(l->received);
    }
    return std::pair{channel.airtime(), received};
  };
  auto [batched_air, batched_rx] = run(ChannelDeliveryMode::kBatched);
  auto [per_phy_air, per_phy_rx] = run(ChannelDeliveryMode::kPerPhyEvent);
  // Stations 1 (60 m) and 4 (~45 m) sit beyond the ~27 m detect radius.
  EXPECT_EQ(batched_air.out_of_range, 4u);
  EXPECT_EQ(batched_air, per_phy_air);
  EXPECT_EQ(batched_rx, (std::vector<int>{2, 0, 0, 2, 0, 2}));
  EXPECT_EQ(batched_rx, per_phy_rx);
}

// Appends "<id><event>" to a log shared by every listener, so the test sees
// the global callback order across PHYs.
class OrderLoggingListener : public WifiPhyListener {
 public:
  OrderLoggingListener(int id, std::vector<std::string>* log)
      : id_(id), log_(log) {}
  void OnPpduReceived(const Ppdu&, const std::vector<bool>&) override {
    Log('R');
  }
  void OnRxCorrupted() override { Log('X'); }
  void OnTxEnd(const Ppdu&) override { Log('T'); }
  void OnCcaBusy() override { Log('B'); }
  void OnCcaIdle() override { Log('I'); }

 private:
  void Log(char event) { log_->push_back(std::to_string(id_) + event); }
  int id_;
  std::vector<std::string>* log_;
};

// Receivers sharing an arrival nanosecond must be called back in attach
// order — the order the per-PHY events pop in — whatever their position
// in the list relative to receivers at other distances.
TEST(WifiPhyTest, SameNanosecondCallbacksRunInAttachOrder) {
  auto run = [](ChannelDeliveryMode mode) {
    Scheduler sched;
    WirelessChannel channel{&sched, mode};
    const std::vector<double> distances = {9, 3, 0, 9, 3, 9, 3};
    std::vector<std::string> log;
    std::vector<std::unique_ptr<WifiPhy>> phys;
    std::vector<std::unique_ptr<OrderLoggingListener>> listeners;
    for (size_t i = 0; i < distances.size(); ++i) {
      phys.push_back(std::make_unique<WifiPhy>(&sched, Random(20 + i)));
      listeners.push_back(
          std::make_unique<OrderLoggingListener>(static_cast<int>(i), &log));
      phys[i]->set_position({distances[i], 0});
      phys[i]->set_listener(listeners[i].get());
      phys[i]->AttachTo(&channel);
    }
    EXPECT_TRUE(phys[2]->Send(
        MakeTestPpdu(MacAddress::ForStation(2), MacAddress::ForStation(0))));
    sched.Run();
    return log;
  };
  std::vector<std::string> batched = run(ChannelDeliveryMode::kBatched);
  EXPECT_EQ(batched, run(ChannelDeliveryMode::kPerPhyEvent));
  // Sender busy; the 3 m group (1, 4, 6), then the 9 m group (0, 3, 5),
  // each in attach order; the ends in the same order, sender's tx-end
  // between them.
  EXPECT_EQ(batched, (std::vector<std::string>{
                         "2B", "1B", "4B", "6B", "0B", "3B", "5B", "2I",
                         "2T", "1I", "1R", "4I", "4R", "6I", "6R", "0I",
                         "0R", "3I", "3R", "5I", "5R"}));
}

// Batched delivery orders start and end edges with one bucket pass, which
// holds only while the receivers' delay spread is below the PPDU airtime.
// A receiver 100 km out (333 us) against a ~170 us frame must abort, not
// interleave edges silently.
TEST(WifiPhyTest, DelaySpreadBeyondAirtimeAborts) {
  Scheduler sched;
  WirelessChannel channel{&sched};
  WifiPhy a{&sched, Random(1)}, near{&sched, Random(2)}, far{&sched, Random(3)};
  a.AttachTo(&channel);
  near.AttachTo(&channel);
  far.AttachTo(&channel);
  a.set_position({0, 0});
  near.set_position({5, 0});
  far.set_position({100e3, 0});
  EXPECT_DEATH(a.Send(MakeTestPpdu(MacAddress::ForStation(0),
                                   MacAddress::ForStation(1))),
               "every arrival start of a PPDU before every arrival end");
}

TEST(WifiPhyTest, AirtimeLedgerCountsCollisionOverlap) {
  MediumFixture f;
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(2))));
  ASSERT_TRUE(f.phy_b.Send(
      MakeTestPpdu(MacAddress::ForStation(1), MacAddress::ForStation(2))));
  f.sched.Run();
  const ChannelAirtime& at = f.channel.airtime();
  EXPECT_EQ(at.collisions, 1u);
  // Both frames identical and started simultaneously: overlap ~= airtime.
  EXPECT_GT(at.collision_ns, 0);
}

}  // namespace
}  // namespace hacksim
