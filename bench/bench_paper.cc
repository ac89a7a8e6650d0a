// Every experiment of the paper's evaluation — Figure 1, Figures 9-12,
// Tables 1-3 — plus the §4.2 cross-validation and design ablations, as one
// table of experiments. Each prints uniform rows
//
//   <experiment> <metric> <ours> [<paper>]
//
// where the paper column is empty when the paper states no number, so every
// experiment compares against the paper the same way. Lines starting with
// '#' are headers.
//
// Usage: bench_paper [NAME]   NAME picks one experiment; none runs them all.
// Honours HACKSIM_QUICK=1 (CI): one seed, 1 s runs, short sweeps, 5 MB
// transfers. Exits 1 if any scenario run had a decompression CRC failure
// or a client that delivered zero bytes (Figure 11's cells whose rate is
// beyond its decode range at that distance excepted), 2 on an unknown NAME.
#include <algorithm>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/analysis/capacity_model.h"
#include "src/scenario/download_scenario.h"

using namespace hacksim;

namespace {

bool QuickMode() {
  const char* env = std::getenv("HACKSIM_QUICK");
  return env != nullptr && std::string(env) == "1";
}

int Seeds() { return QuickMode() ? 1 : 3; }

SimTime RunSeconds(int full) {
  return SimTime::Seconds(QuickMode() ? 1 : full);
}

// --- output -----------------------------------------------------------------

const char* g_experiment = "";

[[gnu::format(printf, 1, 2)]] std::string Fmt(const char* format, ...) {
  char buf[64];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

void Row(const std::string& metric, const std::string& ours,
         const std::string& paper = "") {
  std::printf("%-10s %-36s %10s%s%s\n", g_experiment, metric.c_str(),
              ours.c_str(), paper.empty() ? "" : " ", paper.c_str());
}

std::string Pct(double fraction) { return Fmt("%.1f%%", 100.0 * fraction); }

std::string Gain(double ours, double base) { return Pct(ours / base - 1.0); }

// --- the shared run / seed / average loop -----------------------------------

int g_failed_runs = 0;

// Indexed by HackVariant.
constexpr const char* kVariantNames[] = {"stock", "more-data", "opportunistic",
                                         "explicit-timer", "timestamp-echo"};

// One scenario run under the driver's guard: a decompression CRC failure,
// or a client that delivered zero bytes in a cell not marked `may_starve`
// (a rate beyond its decode range), prints a FAIL line and makes the driver
// exit 1 once every row is out.
ScenarioResult Run(const ScenarioConfig& c, bool may_starve = false) {
  ScenarioResult r = RunScenario(c);
  int starved = 0;
  for (const ClientResult& client : r.clients) {
    starved += client.bytes_delivered == 0 ? 1 : 0;
  }
  if (r.crc_failures != 0 || (starved != 0 && !may_starve)) {
    std::fprintf(stderr,
                 "FAIL: %s: %d-client %.0f Mbps %s/%s run (seed %llu) had "
                 "%llu CRC failures and %d clients delivering zero bytes\n",
                 g_experiment, c.n_clients, c.data_rate_mbps,
                 c.proto == TransportProto::kUdp ? "udp" : "tcp",
                 kVariantNames[static_cast<int>(c.hack)],
                 static_cast<unsigned long long>(c.seed),
                 static_cast<unsigned long long>(r.crc_failures), starved);
    ++g_failed_runs;
  }
  return r;
}

// `cell` run once per seed 1..Seeds().
std::vector<ScenarioResult> RunSeeds(ScenarioConfig cell,
                                     bool may_starve = false) {
  std::vector<ScenarioResult> runs;
  for (int seed = 1; seed <= Seeds(); ++seed) {
    cell.seed = seed;
    runs.push_back(Run(cell, may_starve));
  }
  return runs;
}

// Mean of `metric` over the runs, summed in seed order.
template <typename Metric>
double Mean(const std::vector<ScenarioResult>& runs, Metric metric) {
  double sum = 0;
  for (const ScenarioResult& r : runs) {
    sum += metric(r);
  }
  return sum / static_cast<double>(runs.size());
}

double Total(const ScenarioResult& r) { return r.aggregate_goodput_mbps; }
double Steady(const ScenarioResult& r) {
  return r.steady_aggregate_goodput_mbps;
}

// --- presets ----------------------------------------------------------------

// The 802.11n 150 Mbps cell of Figures 10-12 and the ablations. Quick mode
// shortens the client start stagger by the same factor as the run, so
// every client of the cell starts.
ScenarioConfig Cell80211n(int n_clients, int full_seconds) {
  ScenarioConfig c;
  c.standard = WifiStandard::k80211n;
  c.data_rate_mbps = 150.0;
  c.n_clients = n_clients;
  c.duration = RunSeconds(full_seconds);
  if (QuickMode()) {
    c.start_stagger = SimTime::Nanos(c.start_stagger.ns() / full_seconds);
  }
  return c;
}

// The SoRa testbed for 10 s (the paper ran 120 s; scaled for bench time).
ScenarioConfig SoraCell(int n_clients) {
  ScenarioConfig c = SoraTestbed(n_clients);
  c.duration = RunSeconds(10);
  return c;
}

// Tables 2 and 3: one 25 MB download (5 MB quick) over the SoRa testbed's
// radio (802.11a, 54 Mbps, MSS 1448) without its frame loss or LL-ACK
// quirk; the duration only bounds completion.
ScenarioConfig Transfer25MB(HackVariant hack) {
  ScenarioConfig c;
  c.standard = WifiStandard::k80211a;
  c.data_rate_mbps = 54.0;
  c.tcp.mss = 1448;
  c.hack = hack;
  c.file_bytes = QuickMode() ? 5'000'000 : 25'000'000;
  c.duration = SimTime::Seconds(60);
  c.seed = 7;
  return c;
}

// --- experiments ------------------------------------------------------------

void Fig01() {
  Row("acquisition_overhead_us.n",
      Fmt("%.1f", MeanAcquisitionOverhead(WifiStandard::k80211n).ToMicrosF()),
      "110.5");
  CapacityParams p600;
  p600.standard = WifiStandard::k80211n;
  p600.data_mode = ModeForRate(Modes80211nExtended(), 600);
  Row("single_frame_efficiency.rate=600", Pct(SingleFrameEfficiency(p600)),
      "9%");
  CapacityParams p150;
  p150.standard = WifiStandard::k80211n;
  p150.data_mode = ModeForRate(Modes80211n(), 150);
  Row("ampdu_capacity_mpdus.rate=150", Fmt("%d", AmpduDataMpdus(p150)), "42");

  double low_rate_gain_sum = 0;
  int low_rate_count = 0;
  for (WifiStandard standard : {WifiStandard::k80211a, WifiStandard::k80211n}) {
    const bool is_n = standard == WifiStandard::k80211n;
    for (const WifiMode& mode : is_n ? Modes80211nExtended() : Modes80211a()) {
      CapacityParams p;
      p.standard = standard;
      p.data_mode = mode;
      double stock = TcpGoodputMbps(p);
      double hack = TcpHackGoodputMbps(p);
      std::string at = Fmt(".%s.rate=%.0f", is_n ? "n" : "a", mode.rate_mbps());
      Row("theory_mbps.stock" + at, Fmt("%.2f", stock));
      Row("theory_mbps.hack" + at, Fmt("%.2f", hack));
      const char* paper = !is_n                       ? ""
                          : mode.rate_mbps() == 150 ? "7%"
                          : mode.rate_mbps() == 600 ? "20%"
                                                    : "";
      Row("hack_gain" + at, Gain(hack, stock), paper);
      if (is_n && mode.rate_mbps() < 100) {
        low_rate_gain_sum += hack / stock - 1.0;
        ++low_rate_count;
      }
    }
  }
  Row("mean_hack_gain.n.below_100mbps",
      Fmt("%.1f%%", 100.0 * low_rate_gain_sum / low_rate_count), "8%");
}

void Fig09() {
  struct Proto {
    const char* name;
    TransportProto proto;
    HackVariant hack;
    const char* paper_one_client;
  };
  const Proto protos[] = {
      {"udp", TransportProto::kUdp, HackVariant::kOff, "26.5"},
      {"hack", TransportProto::kTcp, HackVariant::kMoreData, "25.0"},
      {"stock", TransportProto::kTcp, HackVariant::kOff, "19.4"},
  };
  for (int n : {1, 2}) {
    double hack_total = 0;
    for (const Proto& proto : protos) {
      ScenarioConfig c = SoraCell(n);
      c.proto = proto.proto;
      c.hack = proto.hack;
      std::vector<ScenarioResult> runs = RunSeeds(c);
      std::string at = Fmt("goodput_mbps.%s.n=%d", proto.name, n);
      for (int i = 0; i < n; ++i) {
        Row(at + Fmt(".client%d", i + 1),
            Fmt("%.1f", Mean(runs, [i](const ScenarioResult& r) {
                  return r.clients[i].goodput_mbps;
                })));
      }
      double total = Mean(runs, Total);
      Row(at + ".total", Fmt("%.1f", total),
          n == 1 ? proto.paper_one_client : "");
      if (proto.hack == HackVariant::kMoreData) {
        hack_total = total;
      } else if (proto.proto == TransportProto::kTcp) {
        Row(Fmt("hack_gain.n=%d", n), Gain(hack_total, total),
            n == 1 ? "29%" : "32.2%");
      }
    }
  }
}

void Fig10() {
  for (int n : {1, 2, 4, 10}) {
    auto goodput = [n](TransportProto proto, HackVariant hack) {
      ScenarioConfig c = Cell80211n(n, 5);
      c.proto = proto;
      c.hack = hack;
      return Mean(RunSeeds(c), Steady);
    };
    double udp = goodput(TransportProto::kUdp, HackVariant::kOff);
    double more_data = goodput(TransportProto::kTcp, HackVariant::kMoreData);
    double opp = goodput(TransportProto::kTcp, HackVariant::kOpportunistic);
    double stock = goodput(TransportProto::kTcp, HackVariant::kOff);
    Row(Fmt("goodput_mbps.udp.n=%d", n), Fmt("%.1f", udp), "135");
    Row(Fmt("goodput_mbps.more_data.n=%d", n), Fmt("%.1f", more_data));
    Row(Fmt("goodput_mbps.opportunistic.n=%d", n), Fmt("%.1f", opp));
    Row(Fmt("goodput_mbps.stock.n=%d", n), Fmt("%.1f", stock));
    Row(Fmt("more_data_gain.n=%d", n), Gain(more_data, stock),
        n == 1 ? "15%" : n == 10 ? "22%" : "");
  }
}

void Fig11() {
  // Distances spanning SNR ~30 dB down to ~4 dB.
  std::vector<double> distances = {3, 6, 10, 16, 25, 40, 60};
  std::vector<double> rates = {15, 30, 45, 60, 90, 120, 135, 150};
  if (QuickMode()) {
    distances = {3, 16, 60};
    rates = {15, 60, 150};
  }
  SnrLossModel snr_model;
  uint64_t crc_failures = 0;
  double gain_sum = 0;
  int gain_count = 0;
  for (double d : distances) {
    std::string at = Fmt(".d=%.0fm", d);
    Row("snr_db" + at, Fmt("%.1f", snr_model.SnrDbAt(d)));
    // The goodput envelope: the best rate at this distance. Rates beyond
    // the decode range deliver nothing, which is the figure's point.
    double envelope[2] = {0, 0};
    for (HackVariant hack : {HackVariant::kMoreData, HackVariant::kOff}) {
      const bool is_hack = hack == HackVariant::kMoreData;
      for (double rate : rates) {
        ScenarioConfig c = Cell80211n(1, 3);
        c.data_rate_mbps = rate;
        c.hack = hack;
        c.snr = SnrLossModel::Params{};
        c.clients.resize(1);
        c.clients[0].distance_m = d;
        // Only a rate whose 1500 B frames fail more often than not at this
        // SNR is beyond its decode range and may deliver nothing.
        const bool beyond_range =
            snr_model.SnrDbAt(d) <
            SnrLossModel::ModeSnrMidpointDb(ModeForRate(Modes80211n(), rate));
        std::vector<ScenarioResult> runs = RunSeeds(c, beyond_range);
        for (const ScenarioResult& r : runs) {
          crc_failures += r.crc_failures;
        }
        double goodput = Mean(runs, Total);
        if (is_hack) {
          Row(Fmt("goodput_mbps.hack%s.rate=%.0f", at.c_str(), rate),
              Fmt("%.1f", goodput));
        }
        envelope[is_hack] = std::max(envelope[is_hack], goodput);
      }
    }
    const double hack = envelope[1];
    const double stock = envelope[0];
    double gain = stock > 0.5 ? 100.0 * (hack / stock - 1.0) : 0.0;
    if (stock > 0.5) {
      gain_sum += gain;
      ++gain_count;
    }
    Row("envelope_mbps.hack" + at, Fmt("%.1f", hack));
    Row("envelope_mbps.stock" + at, Fmt("%.1f", stock));
    Row("envelope_gain" + at, Fmt("%.1f%%", gain));
  }
  Row("mean_envelope_gain",
      Fmt("%.1f%%", gain_count > 0 ? gain_sum / gain_count : 0.0), "12.6%");
  Row("crc_failures",
      Fmt("%llu", static_cast<unsigned long long>(crc_failures)), "0");
}

void Fig12() {
  std::vector<double> rates = {15, 30, 45, 60, 90, 120, 135, 150};
  if (QuickMode()) {
    rates = {15, 90, 150};
  }
  for (double rate : rates) {
    CapacityParams p;
    p.standard = WifiStandard::k80211n;
    p.data_mode = ModeForRate(Modes80211n(), rate);
    auto sim = [rate](HackVariant hack) {
      ScenarioConfig c = Cell80211n(1, 5);
      c.data_rate_mbps = rate;
      c.hack = hack;
      return Mean(RunSeeds(c), Steady);
    };
    double stock = sim(HackVariant::kOff);
    double hack = sim(HackVariant::kMoreData);
    std::string at = Fmt(".rate=%.0f", rate);
    Row("theory_mbps.stock" + at, Fmt("%.1f", TcpGoodputMbps(p)));
    Row("sim_mbps.stock" + at, Fmt("%.1f", stock));
    Row("theory_mbps.hack" + at, Fmt("%.1f", TcpHackGoodputMbps(p)));
    Row("sim_mbps.hack" + at, Fmt("%.1f", hack));
    Row("sim_hack_gain" + at, Gain(hack, stock), rate == 150 ? "14%" : "");
  }
}

void Tab1() {
  // First-attempt fraction of the AP's data MPDUs (downlink, as the paper
  // measures the AP sending to the clients). "client2" is client 2 alone: a
  // one-client cell with client 2's 1% loss.
  ScenarioConfig client2 = SoraCell(1);
  client2.clients[0].bernoulli_data_loss = 0.01;
  struct Target {
    const char* name;
    ScenarioConfig cell;
  };
  const Target targets[] = {
      {"client1", SoraCell(1)}, {"client2", client2}, {"both", SoraCell(2)}};
  struct Proto {
    const char* name;
    TransportProto proto;
    HackVariant hack;
    const char* paper;
  };
  const Proto protos[] = {
      {"udp", TransportProto::kUdp, HackVariant::kOff, "99%"},
      {"hack", TransportProto::kTcp, HackVariant::kMoreData, "97-98%"},
      {"stock", TransportProto::kTcp, HackVariant::kOff, "86-88%"},
  };
  for (const Target& target : targets) {
    for (const Proto& proto : protos) {
      ScenarioConfig c = target.cell;
      c.proto = proto.proto;
      c.hack = proto.hack;
      double first_try = Mean(RunSeeds(c), [](const ScenarioResult& r) {
        return r.ap_mac.FirstTryFraction();
      });
      std::string at = Fmt(".%s.%s", proto.name, target.name);
      Row("first_try" + at, Pct(first_try), proto.paper);
      Row("retried" + at, Pct(1 - first_try));
    }
  }
}

void Tab2() {
  ScenarioResult stock = Run(Transfer25MB(HackVariant::kOff));
  ScenarioResult hack = Run(Transfer25MB(HackVariant::kMoreData));
  auto count = [](uint64_t n) {
    return Fmt("%llu", static_cast<unsigned long long>(n));
  };
  const MacStats& sm = stock.clients[0].mac;
  const HackStats& sh = stock.clients[0].hack;
  const HackStats& hh = hack.clients[0].hack;
  Row("stock.ack_count", count(sm.tcp_ack_frames_sent), "9060");
  Row("stock.ack_bytes", count(sm.tcp_ack_bytes_sent), "471120");
  Row("stock.compressed_ack_count", count(sh.unique_compressed_acks), "0");
  Row("stock.compressed_ack_bytes", count(sh.unique_compressed_bytes), "0");
  Row("hack.vanilla_ack_count", count(hh.vanilla_acks_sent), "10");
  Row("hack.vanilla_ack_bytes", count(hh.vanilla_ack_bytes), "520");
  Row("hack.compressed_ack_count", count(hh.unique_compressed_acks), "9050");
  Row("hack.compressed_ack_bytes", count(hh.unique_compressed_bytes), "39478");
  Row("hack.compression_ratio", Fmt("%.1f", hh.CompressionRatio()), "12");
  Row("hack.bytes_per_compressed_ack",
      Fmt("%.2f", hh.unique_compressed_acks > 0
                      ? static_cast<double>(hh.unique_compressed_bytes) /
                            hh.unique_compressed_acks
                      : 0.0),
      "4.36");
  for (const auto& [name, r] : {std::pair{"stock", &stock}, {"hack", &hack}}) {
    Row(std::string(name) + ".completion_s",
        Fmt("%.1f", r->clients[0].completion_time.ToSecondsF()));
    Row(std::string(name) + ".bytes_delivered",
        count(r->clients[0].bytes_delivered));
  }
}

void Tab3() {
  // The paper's "LL ACK overhead" column includes SoRa's LL-ACK latency.
  struct Column {
    const char* metric;
    int64_t MacStats::*ns;
    const char* paper_stock;
    const char* paper_hack;
  };
  const Column columns[] = {
      {"tcp_ack_ms", &MacStats::tcp_ack_payload_airtime_ns, "70", "0.08"},
      {"rohc_ms", &MacStats::rohc_payload_airtime_ns, "0", "13.1"},
      {"channel_ms", &MacStats::tcp_ack_channel_overhead_ns, "1093", "1.17"},
      {"ll_ack_overhead_ms", &MacStats::tcp_ack_ll_ack_overhead_ns, "456",
       "0.46"},
  };
  for (HackVariant hack : {HackVariant::kOff, HackVariant::kMoreData}) {
    const bool is_hack = hack == HackVariant::kMoreData;
    ScenarioConfig c = Transfer25MB(hack);
    c.sora_ack_quirk = true;
    const MacStats mac = Run(c).clients[0].mac;
    for (const Column& col : columns) {
      Row(std::string(is_hack ? "hack." : "stock.") + col.metric,
          Fmt("%.2f", mac.*col.ns / 1e6),
          is_hack ? col.paper_hack : col.paper_stock);
    }
  }
}

void CrossVal() {
  // The paper matches the observed per-run loss rates (12% of frames saw a
  // retry under stock — mostly collisions, which our simulator generates
  // itself — plus ~2% channel loss; HACK ran at ~2%). Without the LL-ACK
  // delay the cell plays ns-3's role; with it, SoRa's raw measurement.
  struct Proto {
    const char* name;
    HackVariant hack;
    const char* paper_ns3;
    const char* paper_sora;
  };
  for (const Proto& proto : {Proto{"stock", HackVariant::kOff, "22.4", "19.6"},
                             Proto{"hack", HackVariant::kMoreData, "28.0",
                                   "25.5"}}) {
    for (bool quirk : {false, true}) {
      ScenarioConfig c = SoraCell(1);
      c.hack = proto.hack;
      c.sora_ack_quirk = quirk;
      Row(Fmt("goodput_mbps.%s.%s", proto.name,
              quirk ? "ll_ack_delay" : "no_ll_ack_delay"),
          Fmt("%.1f", Mean(RunSeeds(c), Total)),
          quirk ? proto.paper_sora : proto.paper_ns3);
    }
  }
}

void Ablations() {
  // Variant sweep including the explicit-timer strawman (§3.2) and the §5
  // timestamp-echo design; driver->NIC staging latency (the Fig 3/4 ready
  // race); per-LL-ACK payload budget (footnote 7); the A-MPDU/TXOP cap
  // (§5); upload direction (§3.1's Time Capsule case).
  auto cell = [](HackVariant hack) {
    ScenarioConfig c = Cell80211n(1, 4);
    c.hack = hack;
    return c;
  };
  auto goodput = [](const ScenarioConfig& c) {
    return Mean(RunSeeds(c), Steady);
  };
  // Stock and the default MORE DATA cell (30 us staging, 240 B budget, 4 ms
  // TXOP) are points of several sweeps; each runs once.
  const double stock = goodput(cell(HackVariant::kOff));
  const double more_data = goodput(cell(HackVariant::kMoreData));
  const ScenarioConfig defaults = cell(HackVariant::kMoreData);

  for (HackVariant v :
       {HackVariant::kOff, HackVariant::kMoreData, HackVariant::kOpportunistic,
        HackVariant::kExplicitTimer, HackVariant::kTimestampEcho}) {
    double g = v == HackVariant::kOff        ? stock
               : v == HackVariant::kMoreData ? more_data
                                             : goodput(cell(v));
    Row(Fmt("goodput_mbps.variant=%s", kVariantNames[static_cast<int>(v)]),
        Fmt("%.1f", g));
  }
  for (int us : {0, 30, 100, 500, 2000}) {
    ScenarioConfig c = defaults;
    c.hack_config.staging_latency = SimTime::Micros(us);
    double g = c.hack_config.staging_latency ==
                       defaults.hack_config.staging_latency
                   ? more_data
                   : goodput(c);
    Row(Fmt("goodput_mbps.staging_us=%d", us), Fmt("%.1f", g));
  }
  for (size_t cap : {40u, 80u, 120u, 240u, 480u}) {
    ScenarioConfig c = defaults;
    c.hack_config.max_payload_bytes = cap;
    double g = cap == defaults.hack_config.max_payload_bytes ? more_data
                                                             : goodput(c);
    Row(Fmt("goodput_mbps.payload_bytes=%zu", cap), Fmt("%.1f", g));
  }
  // Shorter TXOPs -> HACK claws back more (§5).
  for (int ms : {1, 2, 4}) {
    const bool is_default = SimTime::Millis(ms) == defaults.txop_limit;
    ScenarioConfig c = cell(HackVariant::kOff);
    c.txop_limit = SimTime::Millis(ms);
    double s = is_default ? stock : goodput(c);
    c.hack = HackVariant::kMoreData;
    double h = is_default ? more_data : goodput(c);
    std::string at = Fmt(".txop_ms=%d", ms);
    Row("goodput_mbps.stock" + at, Fmt("%.1f", s));
    Row("goodput_mbps.hack" + at, Fmt("%.1f", h));
    Row("hack_gain" + at, Fmt("%+.1f%%", 100.0 * (h / s - 1.0)));
  }
  ScenarioConfig up = cell(HackVariant::kOff);
  up.upload = true;
  double up_stock = goodput(up);
  up.hack = HackVariant::kMoreData;
  double up_hack = goodput(up);
  Row("goodput_mbps.stock.upload", Fmt("%.1f", up_stock));
  Row("goodput_mbps.hack.upload", Fmt("%.1f", up_hack));
  Row("hack_gain.upload", Fmt("%+.1f%%", 100.0 * (up_hack / up_stock - 1.0)));
}

struct Experiment {
  const char* name;
  const char* reproduces;
  void (*body)();
};

constexpr Experiment kExperiments[] = {
    {"fig01", "Figure 1(a), Figure 1(b); Section 1/2 constants (theory)",
     Fig01},
    {"fig09", "Figure 9 (SoRa testbed goodput, UDP/HACK/stock x 1, 2 clients)",
     Fig09},
    {"fig10", "Figure 10 (aggregate goodput vs client count, 150 Mbps)", Fig10},
    {"fig11", "Figure 11 (goodput envelope vs SNR; % improvement)", Fig11},
    {"fig12", "Figure 12 (analytical vs simulated goodput per rate)", Fig12},
    {"tab1", "Table 1 (first-attempt vs retried frame fractions)", Tab1},
    {"tab2",
     "Table 2 (ACK counts/bytes and ROHC compression; paper column is the "
     "25 MB transfer)",
     Tab2},
    {"tab3",
     "Table 3 (TCP ACK time overhead, ms; paper column is the 25 MB "
     "transfer)",
     Tab3},
    {"crossval", "Section 4.2 cross-validation (SoRa vs ns-3 recipe)",
     CrossVal},
    {"ablations",
     "design-choice ablations (variants, staging latency, payload budget, "
     "TXOP, upload)",
     Ablations},
};

}  // namespace

int main(int argc, char** argv) {
  const char* only = argc > 1 ? argv[1] : nullptr;
  bool known = only == nullptr;
  for (const Experiment& e : kExperiments) {
    known = known || std::strcmp(only, e.name) == 0;
  }
  if (!known || argc > 2) {
    std::fprintf(stderr, "usage: bench_paper [NAME]; NAME is one of:");
    for (const Experiment& e : kExperiments) {
      std::fprintf(stderr, " %s", e.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::printf("# experiment metric ours paper\n");
  for (const Experiment& e : kExperiments) {
    if (only != nullptr && std::strcmp(only, e.name) != 0) {
      continue;
    }
    g_experiment = e.name;
    std::printf("# %s: %s\n", e.name, e.reproduces);
    e.body();
  }
  return g_failed_runs == 0 ? 0 : 1;
}
