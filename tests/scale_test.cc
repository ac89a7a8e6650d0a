// Dense-cell scaling tests.
//
// 1. Equivalence: the batched channel delivery (one scheduler event per
//    distinct arrival nanosecond per PPDU) must produce bit-identical
//    experiment statistics to the historical per-PHY-event scheduling for
//    full scenarios at 1/3/10 clients — while executing fewer events. The
//    hidden-terminal configurations run the same check over the geometric
//    channel (range-limited decode + SINR capture). 100-station rows cover
//    the shapes small cells never reach: many receivers per arrival
//    nanosecond under heavy collisions, range pruning at scale, and radios
//    powering down mid-arrival. Each batched run's event count is pinned,
//    so the per-PPDU group structure cannot drift unnoticed.
// 2. Event-count independence: at the channel layer, the number of
//    scheduler events per PPDU must not grow with the attached-PHY count.
// 3. A 100-station scenario smoke, so the dense-cell path is exercised by
//    the default test suite and not just the opt-in bench.
// 4. Legacy bit-identity pin: with the propagation layer compiled in but
//    the fixed-loss default selected, a legacy scenario's outputs must not
//    move at all — the same invariant the committed BENCH artifacts carry,
//    but enforced inside the default test suite.
// 5. Hidden-terminal behaviour: plain DCF loses most of its goodput to
//    hidden collisions on the two-cluster topology; RTS/CTS recovers it.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/scenario/download_scenario.h"

namespace hacksim {
namespace {

ScenarioConfig BaseConfig(int n_clients, TransportProto proto,
                          HackVariant hack) {
  ScenarioConfig c;
  c.standard = WifiStandard::k80211n;
  c.data_rate_mbps = 150.0;
  c.n_clients = n_clients;
  c.proto = proto;
  c.hack = hack;
  c.duration = SimTime::Millis(800);
  c.start_stagger = SimTime::Millis(50);
  c.seed = 7;
  return c;
}

// `batched_events` pins the batched run's events_executed: one start and
// one end event per distinct arrival nanosecond per PPDU, so any change to
// how arrival edges are grouped moves it.
ScenarioResult ExpectModesEquivalent(ScenarioConfig config,
                                     uint64_t batched_events) {
  config.channel_delivery = ChannelDeliveryMode::kPerPhyEvent;
  ScenarioResult per_phy = RunScenario(config);
  config.channel_delivery = ChannelDeliveryMode::kBatched;
  ScenarioResult batched = RunScenario(config);

  EXPECT_TRUE(batched.BehaviourEquals(per_phy))
      << "batched delivery diverged: goodput " << batched.aggregate_goodput_mbps
      << " vs " << per_phy.aggregate_goodput_mbps << ", airtime ppdus "
      << batched.airtime.ppdus << " vs " << per_phy.airtime.ppdus;
  EXPECT_EQ(batched.clients.size(), per_phy.clients.size());
  for (size_t i = 0;
       i < std::min(batched.clients.size(), per_phy.clients.size()); ++i) {
    EXPECT_EQ(batched.clients[i], per_phy.clients[i]) << "client " << i;
  }
  // Identical behaviour from strictly fewer scheduler events (2+ clients
  // means 3+ attached PHYs, so per-PHY scheduling is strictly costlier).
  if (config.n_clients > 1) {
    EXPECT_LT(batched.events_executed, per_phy.events_executed);
  } else {
    EXPECT_LE(batched.events_executed, per_phy.events_executed);
  }
  EXPECT_EQ(batched.events_executed, batched_events);
  return batched;
}

TEST(BatchedDeliveryEquivalenceTest, TcpHackOneClient) {
  ExpectModesEquivalent(
      BaseConfig(1, TransportProto::kTcp, HackVariant::kMoreData), 31626u);
}

TEST(BatchedDeliveryEquivalenceTest, TcpHackThreeClients) {
  ExpectModesEquivalent(
      BaseConfig(3, TransportProto::kTcp, HackVariant::kMoreData), 38067u);
}

TEST(BatchedDeliveryEquivalenceTest, TcpStockTenClients) {
  ExpectModesEquivalent(
      BaseConfig(10, TransportProto::kTcp, HackVariant::kOff), 40749u);
}

TEST(BatchedDeliveryEquivalenceTest, TcpHackTenClients) {
  ExpectModesEquivalent(
      BaseConfig(10, TransportProto::kTcp, HackVariant::kMoreData), 39267u);
}

TEST(BatchedDeliveryEquivalenceTest, UdpTenClients) {
  ExpectModesEquivalent(
      BaseConfig(10, TransportProto::kUdp, HackVariant::kOff), 50337u);
}

TEST(BatchedDeliveryEquivalenceTest, LossyUploadThreeClients) {
  // Upload reverses the compressing role; loss exercises the BAR/retry and
  // rx-window machinery on both sides.
  ScenarioConfig c = BaseConfig(3, TransportProto::kTcp,
                                HackVariant::kMoreData);
  c.upload = true;
  c.clients.resize(3);
  for (auto& spec : c.clients) {
    spec.bernoulli_data_loss = 0.05;
  }
  ExpectModesEquivalent(c, 27127u);
}

ScenarioConfig HiddenConfig(int n_clients, size_t rts_threshold) {
  ScenarioConfig c = BaseConfig(n_clients, TransportProto::kUdp,
                                HackVariant::kOff);
  c.upload = true;
  c.topology = Topology::kTwoClusterHidden;
  c.propagation = LogDistancePropagation::Params{};
  c.rts_threshold = rts_threshold;
  c.udp_rate_bps = 1.2e8;
  c.duration = SimTime::Millis(300);
  c.start_stagger = SimTime::Millis(5);
  return c;
}

TEST(BatchedDeliveryEquivalenceTest, HiddenTwoClusterUdpUpload) {
  // The geometric channel prunes out-of-range pairs in both delivery modes;
  // they must still agree bit-for-bit, including the capture counters.
  ExpectModesEquivalent(HiddenConfig(6, /*rts_threshold=*/0), 8062u);
}

TEST(BatchedDeliveryEquivalenceTest, HiddenTwoClusterRtsProtected) {
  ExpectModesEquivalent(HiddenConfig(6, /*rts_threshold=*/500), 22046u);
}

// Saturated UDP uplink from 100 stations on the 5 m ring: every PPDU fans
// out to ~100 receivers packed into a few arrival nanoseconds, and the
// contention produces collisions at every receiver.
TEST(BatchedDeliveryEquivalenceTest, HundredStationRingSaturatedUplink) {
  ScenarioConfig c = BaseConfig(100, TransportProto::kUdp, HackVariant::kOff);
  c.upload = true;
  c.duration = SimTime::Millis(60);
  c.start_stagger = SimTime::Micros(100);
  ScenarioResult r = ExpectModesEquivalent(c, 40570u);
  EXPECT_GT(r.airtime.collisions, 0u);
}

// Range pruning and SINR capture with 100 receivers per cluster pair, under
// RTS/CTS.
TEST(BatchedDeliveryEquivalenceTest, HundredStationHiddenClustersRts) {
  ScenarioConfig c = HiddenConfig(100, /*rts_threshold=*/500);
  c.duration = SimTime::Millis(60);
  c.start_stagger = SimTime::Micros(100);
  ScenarioResult r = ExpectModesEquivalent(c, 27752u);
  EXPECT_GT(r.airtime.out_of_range, 0u);
  EXPECT_GT(r.ap_phy.captures + r.ap_phy.overlap_losses, 0u);
  EXPECT_GT(r.airtime.rts_cts_ns, 0);
}

// Every 5th station crashes mid-run and rejoins. With a 50 ms run the
// crash instant (30%) falls inside a PPDU at every crashing station, so
// radios power down with arrivals in flight and their end edges are
// swallowed by the PHY's dropped-arrival counter in both delivery modes.
TEST(BatchedDeliveryEquivalenceTest, HundredStationChurn) {
  ScenarioConfig c = BaseConfig(100, TransportProto::kUdp, HackVariant::kOff);
  c.upload = true;
  c.duration = SimTime::Millis(50);
  c.start_stagger = SimTime::Micros(100);
  c.fault_plan = FaultPlan::Churn(c.n_clients, c.duration);
  ScenarioResult r = ExpectModesEquivalent(c, 36211u);
  EXPECT_EQ(r.fault.crashes, 20u);
}

// Same contract for the coalesced NAV-reset probe: the default (zero-event
// provisional deadline) and the historical armed-per-overhearer form must
// produce bit-identical scenario behaviour. Run on the hidden-terminal RTS
// cell — the probe-heavy workload where reservations actually go dead and
// get reclaimed, not just cancelled — and from fewer-or-equal events.
void ExpectProbeModesEquivalent(ScenarioConfig config) {
  config.legacy_nav_probe_events = true;
  ScenarioResult legacy = RunScenario(config);
  config.legacy_nav_probe_events = false;
  ScenarioResult coalesced = RunScenario(config);

  EXPECT_TRUE(coalesced.BehaviourEquals(legacy))
      << "coalesced NAV probe diverged: goodput "
      << coalesced.aggregate_goodput_mbps << " vs "
      << legacy.aggregate_goodput_mbps << ", airtime ppdus "
      << coalesced.airtime.ppdus << " vs " << legacy.airtime.ppdus;
  ASSERT_EQ(coalesced.clients.size(), legacy.clients.size());
  for (size_t i = 0; i < coalesced.clients.size(); ++i) {
    EXPECT_EQ(coalesced.clients[i], legacy.clients[i]) << "client " << i;
  }
  EXPECT_LE(coalesced.events_executed, legacy.events_executed);
}

TEST(NavProbeEquivalenceTest, HiddenTwoClusterRtsProtected) {
  ExpectProbeModesEquivalent(HiddenConfig(6, /*rts_threshold=*/500));
}

TEST(NavProbeEquivalenceTest, DenseUplinkRtsCell) {
  ScenarioConfig c = BaseConfig(10, TransportProto::kUdp, HackVariant::kOff);
  c.upload = true;
  c.rts_threshold = 500;
  c.udp_rate_bps = 2.5e8;
  c.duration = SimTime::Millis(300);
  c.start_stagger = SimTime::Millis(5);
  ExpectProbeModesEquivalent(c);
}

TEST(LegacyBitIdentityPin, FixedLossScenarioOutputsPinned) {
  // Golden values recorded when the propagation layer landed; the run is
  // fully deterministic from (config, seed), so any drift here means the
  // fixed-loss default stopped being the legacy channel bit-for-bit (the
  // same regression the committed BENCH_scale.json goodputs would show).
  ScenarioResult r =
      RunScenario(BaseConfig(3, TransportProto::kTcp, HackVariant::kMoreData));
  EXPECT_EQ(r.airtime.ppdus, 901u);
  EXPECT_EQ(r.aggregate_goodput_mbps, 116.30534609523809);
  EXPECT_EQ(r.airtime.out_of_range, 0u);
  EXPECT_EQ(r.ap_phy.captures, 0u);
  EXPECT_EQ(r.ap_phy.overlap_losses, 0u);
}

TEST(LegacyBitIdentityPin, FaultMachineryOffStillHitsTheGoldenValues) {
  // The fault-injection engine and the liveness watchdog must be free when
  // unused: an empty plan installs no loss gates, draws nothing from any
  // RNG stream, and leaves flow wiring untouched; the watchdog only adds
  // its own kOther audit events. Same golden values as above — if this
  // drifts while the test above still passes, the fault plumbing itself
  // perturbed the legacy path.
  ScenarioConfig c =
      BaseConfig(3, TransportProto::kTcp, HackVariant::kMoreData);
  c.fault_plan = FaultPlan{};  // explicitly empty
  c.watchdog_interval = SimTime::Millis(5);
  c.watchdog_abort_on_trip = true;  // a trip would abort the test binary
  ScenarioResult r = RunScenario(c);
  EXPECT_EQ(r.airtime.ppdus, 901u);
  EXPECT_EQ(r.aggregate_goodput_mbps, 116.30534609523809);
  EXPECT_EQ(r.fault, FaultStats{});
  EXPECT_EQ(r.watchdog.trips, 0u);
  EXPECT_GT(r.watchdog.checks, 0u);
}

TEST(HiddenTerminalScenarioTest, RtsRecoversGoodputLostToHiddenCollisions) {
  ScenarioResult plain = RunScenario(HiddenConfig(10, /*rts_threshold=*/0));
  ScenarioResult rts = RunScenario(HiddenConfig(10, /*rts_threshold=*/500));

  // The clusters cannot carrier-sense each other: pairs are pruned below
  // the energy-detection threshold and the AP eats hidden collisions.
  EXPECT_GT(plain.airtime.out_of_range, 0u);
  EXPECT_GT(plain.ap_phy.overlap_losses, 0u);

  // RTS/CTS turns those hidden data collisions into NAV reservations set by
  // the AP's CTS (audible in both clusters). The CI bench gate enforces
  // >= 2x at scale; 1.5x here keeps the unit test robust to config drift.
  EXPECT_GT(plain.aggregate_goodput_mbps, 0.0);
  EXPECT_GT(rts.aggregate_goodput_mbps,
            1.5 * plain.aggregate_goodput_mbps)
      << "rts " << rts.aggregate_goodput_mbps << " vs plain "
      << plain.aggregate_goodput_mbps;
}

TEST(ScaleSmokeTest, HundredStationCellDeliversUdp) {
  ScenarioConfig c = BaseConfig(100, TransportProto::kUdp, HackVariant::kOff);
  c.duration = SimTime::Millis(200);
  c.start_stagger = SimTime::Millis(1);
  ScenarioResult r = RunScenario(c);
  EXPECT_EQ(r.crc_failures, 0u);
  EXPECT_GT(r.aggregate_goodput_mbps, 0.0);
  uint64_t delivered = 0;
  for (const ClientResult& cr : r.clients) {
    delivered += cr.bytes_delivered;
  }
  EXPECT_GT(delivered, 0u);
}

}  // namespace
}  // namespace hacksim
