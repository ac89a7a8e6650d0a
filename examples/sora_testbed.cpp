// SoRa testbed emulation (§4.1/4.2): 802.11a at 54 Mbps with the
// software-radio quirks the paper documents — LL ACKs returned ~37 us later
// than SIFS and a widened ACK timeout — plus per-client frame loss.
// Reproduces the Figure 9 story at example scale.
#include <cstdio>

#include "src/scenario/download_scenario.h"

using namespace hacksim;

int main() {
  ScenarioConfig config;
  config.standard = WifiStandard::k80211a;
  config.data_rate_mbps = 54.0;
  config.n_clients = 2;
  config.duration = SimTime::Seconds(5);
  config.tcp.mss = 1448;
  config.extra_ack_delay = SimTime::Micros(37);
  config.extra_ack_timeout = SimTime::Micros(80);
  config.clients.resize(2);
  config.clients[0].bernoulli_data_loss = 0.02;  // Client 1 is lossier
  config.clients[1].bernoulli_data_loss = 0.01;
  config.seed = 4;

  std::printf("SoRa-style testbed: 802.11a @54 Mbps, 2 clients, "
              "37 us LL-ACK delay\n\n");
  struct Row {
    const char* name;
    TransportProto proto;
    HackVariant hack;
  };
  for (const Row& row :
       {Row{"UDP/802.11a", TransportProto::kUdp, HackVariant::kOff},
        Row{"TCP/HACK", TransportProto::kTcp, HackVariant::kMoreData},
        Row{"TCP/802.11a", TransportProto::kTcp, HackVariant::kOff}}) {
    config.proto = row.proto;
    config.hack = row.hack;
    ScenarioResult r = RunScenario(config);
    std::printf("%-12s client1 %5.1f  client2 %5.1f  total %5.1f Mbps   "
                "AP first-try %4.1f%%\n",
                row.name, r.clients[0].goodput_mbps,
                r.clients[1].goodput_mbps, r.aggregate_goodput_mbps,
                100.0 * r.ap_mac.FirstTryFraction());
  }
  std::printf("\npaper Figure 9: UDP ~26.5, TCP/HACK ~25.0 (total ~21.5 x2),"
              " TCP/802.11a ~19.4 Mbps; Table 1 first-try: 99/97/87%%\n");
  return 0;
}
