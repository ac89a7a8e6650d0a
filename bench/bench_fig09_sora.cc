// Figure 9: SoRa testbed emulation — mean goodput for UDP (U), TCP/HACK (H)
// and TCP/802.11a (T) with one and two clients at 54 Mbps, including SoRa's
// 37 us extra LL-ACK latency and per-client frame loss (C1 2%, C2 1%).
// Paper values: UDP ~26.5, HACK single-client ~25.0, stock ~19.4 Mbps;
// HACK improvement 29% (one client) / 32.2% (two clients).
#include "bench/bench_util.h"

using namespace hacksim;

namespace {

ScenarioConfig SoraConfig(int n_clients, uint64_t seed) {
  ScenarioConfig c;
  c.standard = WifiStandard::k80211a;
  c.data_rate_mbps = 54.0;
  c.n_clients = n_clients;
  c.duration = RunSeconds(10);  // paper: 120 s runs (scaled for bench time)
  c.seed = seed;
  c.tcp.mss = 1448;  // 1500 B MTU with timestamps
  c.extra_ack_delay = SimTime::Micros(37);
  c.extra_ack_timeout = SimTime::Micros(80);
  c.clients.resize(n_clients);
  c.clients[0].bernoulli_data_loss = 0.02;  // Client 1 is lossier (§4.2)
  if (n_clients > 1) {
    c.clients[1].bernoulli_data_loss = 0.01;
  }
  return c;
}

}  // namespace

int main() {
  PrintHeader("bench_fig09_sora",
              "Figure 9 (SoRa testbed goodput, U/H/T x {1,2} clients)");
  std::printf("%-9s %-6s", "clients", "proto");
  std::printf(" %10s %10s %10s\n", "client1", "client2", "total");

  double stock_total[3] = {0, 0, 0};
  double hack_total[3] = {0, 0, 0};
  for (int n : {1, 2}) {
    struct Row {
      const char* name;
      TransportProto proto;
      HackVariant hack;
    };
    const Row rows[] = {
        {"U", TransportProto::kUdp, HackVariant::kOff},
        {"H", TransportProto::kTcp, HackVariant::kMoreData},
        {"T", TransportProto::kTcp, HackVariant::kOff},
    };
    for (const Row& row : rows) {
      Series c1, c2, total;
      for (int seed = 1; seed <= Seeds(); ++seed) {
        ScenarioConfig c = SoraConfig(n, seed);
        c.proto = row.proto;
        c.hack = row.hack;
        ScenarioResult r = RunScenario(c);
        c1.Add(r.clients[0].goodput_mbps);
        if (n > 1) {
          c2.Add(r.clients[1].goodput_mbps);
        }
        total.Add(r.aggregate_goodput_mbps);
      }
      std::printf("%-9d %-6s %10.1f %10.1f %10.1f\n", n, row.name,
                  c1.mean(), n > 1 ? c2.mean() : 0.0, total.mean());
      if (row.hack == HackVariant::kMoreData) {
        hack_total[n] = total.mean();
      } else if (row.proto == TransportProto::kTcp) {
        stock_total[n] = total.mean();
      }
    }
  }
  std::printf("\nHACK improvement: one client %.1f%% (paper: 29%%), "
              "two clients %.1f%% (paper: 32.2%%)\n",
              100.0 * (hack_total[1] / stock_total[1] - 1.0),
              100.0 * (hack_total[2] / stock_total[2] - 1.0));
  std::printf("paper reference bars: UDP ~26.5, TCP/HACK ~25.0, "
              "TCP/802.11a ~19.4 Mbps\n");
  return 0;
}
