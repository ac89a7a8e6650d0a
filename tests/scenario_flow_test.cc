// Flow-wiring pins: RunScenario's offered load comes from UDP CBR sources,
// traffic-model sources and TCP flows, each wired per direction. These
// goldens freeze what every flow kind and direction delivers, fault-free and
// under FaultPlan::Churn (which drives the sources' Stop/Resume epochs), so
// the wiring and the pacer can be restructured without moving a result.
// Per cell: aggregate goodput to 17 digits, PPDUs on the medium, summed
// client bytes and the kTransportTimer event count (app pacing + TCP
// timers).
#include <gtest/gtest.h>

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

struct Golden {
  double goodput_mbps;
  uint64_t ppdus;
  uint64_t bytes;
  uint64_t transport_events;
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
  EXPECT_EQ(r.crc_failures, 0u) << label;
}

std::vector<Cell> Cells() {
  return {
      {"cbr-down",
       [] { return BaseConfig(TransportProto::kUdp, false); },
       {86.789119999999997, 1433, 4339456, 2975},
       {78.192639999999997, 1631, 3909632, 2694}},
      {"cbr-up",
       [] { return BaseConfig(TransportProto::kUdp, true); },
       {78.369280000000003, 1221, 3918464, 2975},
       {71.215360000000004, 1629, 3560768, 2694}},
      {"cbr-up-bucket",
       [] {
         ScenarioConfig c = BaseConfig(TransportProto::kUdp, true);
         c.udp_burst_window = SimTime::Millis(16);
         return c;
       },
       {85.022719999999993, 282, 4251136, 144},
       {74.71871999999999, 332, 3735936, 134}},
      {"mix-down",
       [] {
         ScenarioConfig c = BaseConfig(TransportProto::kUdp, false);
         AddMix(c);
         return c;
       },
       {2.54542, 450, 127271, 221},
       {2.48142, 419, 124071, 203}},
      {"mix-up",
       [] {
         ScenarioConfig c = BaseConfig(TransportProto::kUdp, true);
         AddMix(c);
         return c;
       },
       {2.54542, 466, 127271, 221},
       {2.4846199999999996, 414, 124231, 203}},
      {"tcp-down",
       [] { return BaseConfig(TransportProto::kTcp, false); },
       {114.25479660818715, 437, 5057800, 120},
       {117.43953360853112, 458, 5254720, 128}},
      {"tcp-up",
       [] { return BaseConfig(TransportProto::kTcp, true); },
       {119.04147569315444, 435, 5388648, 108},
       {116.41150757481941, 425, 5331856, 100}},
      {"tcp+mix-down",
       [] {
         ScenarioConfig c = BaseConfig(TransportProto::kTcp, false);
         AddMix(c);
         return c;
       },
       {109.93054666666667, 431, 4886440, 380},
       {105.80827937392502, 443, 4811776, 360}},
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
