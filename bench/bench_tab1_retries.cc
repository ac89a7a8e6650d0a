// Table 1: percentage of frames successfully sent on the first attempt vs
// after one or more retries, for UDP/802.11a, TCP/HACK and TCP/802.11a with
// the AP sending to Client 1, Client 2, and both.
// Paper: no-retry fractions ~99% (UDP), 97-98% (HACK), 86-88% (stock).
#include "bench/bench_util.h"

using namespace hacksim;

namespace {

ScenarioConfig SoraConfig(int n_clients, uint64_t seed) {
  ScenarioConfig c;
  c.standard = WifiStandard::k80211a;
  c.data_rate_mbps = 54.0;
  c.n_clients = n_clients;
  c.duration = RunSeconds(10);
  c.seed = seed;
  c.tcp.mss = 1448;
  c.extra_ack_delay = SimTime::Micros(37);
  c.extra_ack_timeout = SimTime::Micros(80);
  c.clients.resize(n_clients);
  c.clients[0].bernoulli_data_loss = 0.02;
  if (n_clients > 1) {
    c.clients[1].bernoulli_data_loss = 0.01;
  }
  return c;
}

// First-attempt fraction of the AP's data MPDUs (downlink, as the paper
// measures the AP sending to the clients).
double ApFirstTry(TransportProto proto, HackVariant hack, int n_clients) {
  double total = 0;
  for (int seed = 1; seed <= Seeds(); ++seed) {
    ScenarioConfig c = SoraConfig(n_clients, seed);
    c.proto = proto;
    c.hack = hack;
    ScenarioResult r = RunScenario(c);
    total += r.ap_mac.FirstTryFraction();
  }
  return total / Seeds();
}

}  // namespace

int main() {
  PrintHeader("bench_tab1_retries",
              "Table 1 (first-attempt vs retried frame fractions)");
  std::printf("%-10s %12s %12s %12s   (paper no-retry: U 99%%, H 97-98%%, "
              "T 86-88%%)\n",
              "target", "UDP/802.11a", "TCP/HACK", "TCP/802.11a");
  const char* labels[] = {"Client 1", "Client 2", "Both"};
  int client_counts[] = {1, 2, 2};
  for (int i = 0; i < 3; ++i) {
    // "Client 1" = AP->C1 only; "Client 2" would be C2 alone (approximated
    // by the 2-client run's AP aggregate for i==1; the per-client AP stats
    // are aggregated, so rows 2 and 3 share a topology).
    int n = client_counts[i];
    double udp = ApFirstTry(TransportProto::kUdp, HackVariant::kOff, n);
    double hack = ApFirstTry(TransportProto::kTcp, HackVariant::kMoreData, n);
    double stock = ApFirstTry(TransportProto::kTcp, HackVariant::kOff, n);
    std::printf("%-10s %10.1f%% %10.1f%% %10.1f%%   no retries\n", labels[i],
                100 * udp, 100 * hack, 100 * stock);
    std::printf("%-10s %10.1f%% %10.1f%% %10.1f%%   1 or more\n", "",
                100 * (1 - udp), 100 * (1 - hack), 100 * (1 - stock));
  }
  return 0;
}
