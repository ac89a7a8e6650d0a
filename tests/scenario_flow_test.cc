// Flow-wiring pins: RunScenario's offered load comes from UDP CBR sources,
// traffic-model sources and TCP flows, each wired per direction. These
// goldens freeze what every flow kind and direction delivers, fault-free and
// under FaultPlan::Churn (which drives the sources' Stop/Resume epochs), so
// the wiring and the pacer can be restructured without moving a result.
// Per cell: aggregate goodput to 17 digits, PPDUs on the medium, summed
// client bytes, the kTransportTimer event count (app pacing + TCP timers)
// and the MAC originator counters.
//
// The stop-and-wait pins below freeze the same originator counters, plus
// the executed event count, for 802.11a cells: the SoRa testbed under each
// HACK variant, RTS/CTS protection and FaultPlan::Churn (where a
// retry-limit drop of a single MPDU feeds the dead-peer flush).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/scenario/download_scenario.h"

namespace hacksim {
namespace {

constexpr SimTime kDuration = SimTime::Millis(400);

ScenarioConfig BaseConfig(TransportProto proto, bool upload) {
  ScenarioConfig c;
  c.standard = WifiStandard::k80211n;
  c.data_rate_mbps = 150.0;
  c.n_clients = 6;
  c.proto = proto;
  c.hack = proto == TransportProto::kTcp ? HackVariant::kMoreData
                                         : HackVariant::kOff;
  c.upload = upload;
  c.udp_rate_bps = 1e8;
  c.duration = kDuration;
  c.start_stagger = SimTime::Millis(20);
  c.seed = 7;
  return c;
}

// Every model of the zoo rides along: 6 stations split 2/1/2/1.
void AddMix(ScenarioConfig& c) {
  c.traffic_mix = {{TrafficModel::kCbrVoice, 0.25},
                   {TrafficModel::kOnOffVideo, 0.25},
                   {TrafficModel::kParetoWeb, 0.25},
                   {TrafficModel::kIotChirp, 0.25}};
  c.traffic_rate_scale = 4.0;
}

// MAC originator counters summed over the AP and every client:
// {mpdus_delivered_first_try, mpdus_delivered_retried,
//  mpdus_dropped_retry_limit, response_timeouts, dead_peer_flushes}.
using Originator = std::array<uint64_t, 5>;

Originator OriginatorOf(const ScenarioResult& r) {
  Originator sum{};
  auto add = [&sum](const MacStats& m) {
    sum[0] += m.mpdus_delivered_first_try;
    sum[1] += m.mpdus_delivered_retried;
    sum[2] += m.mpdus_dropped_retry_limit;
    sum[3] += m.response_timeouts;
    sum[4] += m.dead_peer_flushes;
  };
  add(r.ap_mac);
  for (const ClientResult& cr : r.clients) {
    add(cr.mac);
  }
  return sum;
}

struct Golden {
  double goodput_mbps;
  uint64_t ppdus;
  uint64_t bytes;
  uint64_t transport_events;
  Originator originator;
};

struct Cell {
  std::string name;
  std::function<ScenarioConfig()> config;
  Golden fault_free;
  Golden churn;
};

void ExpectGolden(const ScenarioConfig& c, const Golden& g,
                  const std::string& label) {
  ScenarioResult r = RunScenario(c);
  uint64_t bytes = 0;
  for (const ClientResult& cr : r.clients) {
    bytes += cr.bytes_delivered;
  }
  EXPECT_EQ(r.aggregate_goodput_mbps, g.goodput_mbps) << label;
  EXPECT_EQ(r.airtime.ppdus, g.ppdus) << label;
  EXPECT_EQ(bytes, g.bytes) << label;
  EXPECT_EQ(r.events_by_class[static_cast<size_t>(
                EventClass::kTransportTimer)],
            g.transport_events)
      << label;
  EXPECT_EQ(OriginatorOf(r), g.originator) << label;
  EXPECT_EQ(r.crc_failures, 0u) << label;
}

std::vector<Cell> Cells() {
  return {
      {"cbr-down",
       [] { return BaseConfig(TransportProto::kUdp, false); },
       {86.789119999999997, 1433, 4339456, 2975, {2948, 0, 0, 0, 0}},
       {78.192639999999997, 1631, 3909632, 2694, {2651, 0, 10, 18, 0}}},
      {"cbr-up",
       [] { return BaseConfig(TransportProto::kUdp, true); },
       {78.369280000000003, 1221, 3918464, 2975, {2664, 0, 0, 134, 0}},
       {71.215360000000004, 1629, 3560768, 2694, {2419, 0, 0, 166, 0}}},
      {"cbr-up-bucket",
       [] {
         ScenarioConfig c = BaseConfig(TransportProto::kUdp, true);
         c.udp_burst_window = SimTime::Millis(16);
         return c;
       },
       {85.022719999999993, 282, 4251136, 144, {2910, 0, 0, 0, 0}},
       {74.71871999999999, 332, 3735936, 134, {2538, 0, 0, 35, 0}}},
      {"mix-down",
       [] {
         ScenarioConfig c = BaseConfig(TransportProto::kUdp, false);
         AddMix(c);
         return c;
       },
       {2.54542, 450, 127271, 221, {242, 0, 0, 0, 0}},
       {2.48142, 419, 124071, 203, {222, 0, 1, 9, 0}}},
      {"mix-up",
       [] {
         ScenarioConfig c = BaseConfig(TransportProto::kUdp, true);
         AddMix(c);
         return c;
       },
       {2.54542, 466, 127271, 221, {244, 0, 0, 8, 0}},
       {2.4846199999999996, 414, 124231, 203, {224, 0, 0, 4, 0}}},
      {"tcp-down",
       [] { return BaseConfig(TransportProto::kTcp, false); },
       {114.25479660818715, 437, 5057800, 120, {5264, 0, 0, 12, 0}},
       {117.43953360853112, 458, 5254720, 128, {5536, 0, 0, 19, 0}}},
      {"tcp-up",
       [] { return BaseConfig(TransportProto::kTcp, true); },
       {119.04147569315444, 435, 5388648, 108, {4130, 0, 0, 32, 0}},
       {116.41150757481941, 425, 5331856, 100, {4106, 0, 0, 38, 0}}},
      {"tcp+mix-down",
       [] {
         ScenarioConfig c = BaseConfig(TransportProto::kTcp, false);
         AddMix(c);
         return c;
       },
       {109.93054666666667, 431, 4886440, 380, {5425, 0, 0, 6, 0}},
       {105.80827937392502, 443, 4811776, 360, {5361, 0, 0, 22, 0}}},
  };
}

TEST(FlowWiringPin, FaultFreeCellsHitTheGoldenValues) {
  for (const Cell& cell : Cells()) {
    ExpectGolden(cell.config(), cell.fault_free, cell.name);
  }
}

TEST(FlowWiringPin, ChurnCellsHitTheGoldenValues) {
  for (const Cell& cell : Cells()) {
    ScenarioConfig c = cell.config();
    c.fault_plan = FaultPlan::Churn(c.n_clients, c.duration);
    ExpectGolden(c, cell.churn, cell.name + " churn");
  }
}

// 802.11a cells: every data exchange is a one-MPDU stop-and-wait answered
// by a plain ACK.
ScenarioConfig SoraPair(HackVariant hack) {
  ScenarioConfig c = SoraTestbed(2);
  c.hack = hack;
  c.duration = SimTime::Seconds(1);
  c.start_stagger = SimTime::Millis(20);
  c.seed = 7;
  return c;
}

ScenarioConfig Cell80211a(int n_clients) {
  ScenarioConfig c;
  c.standard = WifiStandard::k80211a;
  c.data_rate_mbps = 54.0;
  c.n_clients = n_clients;
  c.duration = SimTime::Seconds(1);
  c.start_stagger = SimTime::Millis(20);
  c.seed = 7;
  return c;
}

TEST(StopAndWaitPin, Cells80211aHitTheGoldenValues) {
  struct StopAndWaitCell {
    std::string name;
    ScenarioConfig config;
    double goodput_mbps;
    uint64_t ppdus;
    Originator originator;
    uint64_t events_executed;
  };
  std::vector<StopAndWaitCell> cells;
  cells.push_back({"sora stock", SoraPair(HackVariant::kOff),
                   17.874004081632652, 6276, {2861, 180, 0, 193, 0}, 45281});
  cells.push_back({"sora more-data", SoraPair(HackVariant::kMoreData),
                   20.205111673469389, 4629, {2260, 35, 0, 38, 0}, 37101});
  cells.push_back({"sora opportunistic", SoraPair(HackVariant::kOpportunistic),
                   20.205111673469389, 4629, {2260, 35, 0, 38, 0}, 38592});
  {
    // Every data PPDU behind RTS/CTS, 2% frame loss at each client and
    // rate adaptation reacting to the lost exchanges.
    ScenarioConfig c = Cell80211a(4);
    c.hack = HackVariant::kMoreData;
    c.rts_threshold = 500;
    c.rate_adaptation = true;
    c.clients.resize(4);
    for (ClientSpec& spec : c.clients) {
      spec.bernoulli_data_loss = 0.02;
    }
    cells.push_back({"rts", c, 19.321812435953106, 8068,
                     {1958, 36, 0, 38, 0}, 63797});
  }
  {
    ScenarioConfig c = Cell80211a(6);
    c.hack = HackVariant::kMoreData;
    c.fault_plan = FaultPlan::Churn(c.n_clients, c.duration);
    cells.push_back({"churn", c, 26.731268424969741, 4907,
                     {2423, 4, 6, 52, 2}, 43499});
  }

  for (const StopAndWaitCell& cell : cells) {
    ScenarioResult r = RunScenario(cell.config);
    EXPECT_EQ(r.aggregate_goodput_mbps, cell.goodput_mbps) << cell.name;
    EXPECT_EQ(r.airtime.ppdus, cell.ppdus) << cell.name;
    EXPECT_EQ(OriginatorOf(r), cell.originator) << cell.name;
    EXPECT_EQ(r.events_executed, cell.events_executed) << cell.name;
    EXPECT_EQ(r.crc_failures, 0u) << cell.name;
  }
}

// Each client reports its own end of its TCP flow: the receiver on
// download, the sender on upload; the server's end stays unreported.
TEST(FlowWiringPin, ClientsReportTheirOwnTcpEnd) {
  for (bool upload : {false, true}) {
    ScenarioResult r =
        RunScenario(BaseConfig(TransportProto::kTcp, upload));
    for (const ClientResult& cr : r.clients) {
      if (upload) {
        EXPECT_GT(cr.tcp_tx.bytes_sent, 0u);
        EXPECT_EQ(cr.tcp_rx, TcpReceiverStats{});
      } else {
        EXPECT_EQ(cr.tcp_rx.bytes_delivered, cr.bytes_delivered);
        EXPECT_GT(cr.tcp_rx.bytes_delivered, 0u);
        EXPECT_EQ(cr.tcp_tx, TcpSenderStats{});
      }
    }
  }
}

// TCP upload carries no background flows: RunScenario rejects a traffic mix
// there instead of silently dropping it.
TEST(FlowWiringDeathTest, TcpUploadWithTrafficMixIsRejected) {
  ScenarioConfig c = BaseConfig(TransportProto::kTcp, /*upload=*/true);
  AddMix(c);
  EXPECT_DEATH(RunScenario(c), "traffic_mix supports UDP or TCP download");
}

}  // namespace
}  // namespace hacksim
