// perfbench: the wall-clock benchmark for hacksim.
//
//   perfbench --workload paper-fig10|dense-uplink|campaign-mix --seed N
//             --seconds S --trace 0|1 [--trace-out PATH]
//
// Runs one named workload through the public RunScenario / ParallelFor API,
// checks every run, and prints human-readable lines followed by one JSON
// line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, timed with no tracing at all; with
// --trace 1 they are the per-layer ones, from the scenario counters, an
// untraced and a traced pass, and the benchmark's own layer drivers.
// README.md in this directory says why each workload exists and which
// layer metric should move which end-to-end metric.
//
// An operation is one scenario run. It fails if the watchdog trips, if a
// decompression CRC check failed, if it delivered no bytes, if a HACK run
// carried no compressed ACK, or if a same-seed re-run is not
// BehaviourEquals-identical to the first run of that seed. (A run that
// aborts takes the process down; perfbench/run.py reports that.)
//
// --inject fail-run|nondeterminism|drop-metric exists for run.py's
// self-test: it forces one failed run, perturbs one re-run's result, or
// leaves one metric out of the JSON line.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "layer_drivers.h"
#include "src/scenario/campaign.h"
#include "src/scenario/download_scenario.h"
#include "src/sim/random.h"
#include "trace.h"

namespace perfbench {
namespace {

using hacksim::ClientResult;
using hacksim::FaultPlan;
using hacksim::HackStats;
using hacksim::HackVariant;
using hacksim::MacStats;
using hacksim::ScenarioConfig;
using hacksim::ScenarioResult;
using hacksim::SimTime;
using hacksim::Topology;
using hacksim::TransportProto;

constexpr size_t kMinSetupProbes = 9;
constexpr double kSetupProbeSeconds = 0.5;
constexpr size_t kTracedIterations = 3;
constexpr int kFig10Replicates = 4;
constexpr double kPaperFig10GainPct = 22.0;
// 20 B IPv4 + 20 B TCP + 12 B timestamps: the vanilla ACK a record replaces.
constexpr double kVanillaAckBytes = 52.0;

// --- workloads ------------------------------------------------------------------

struct Op {
  std::string label;
  ScenarioConfig config;
  bool expect_compressed_acks = false;
};

struct Workload {
  std::string name;
  std::vector<Op> ops;
  int jobs = 1;
  SchedulerShape scheduler_shape;
};

ScenarioConfig Fig10Cell(uint64_t seed, HackVariant hack) {
  ScenarioConfig c;
  c.standard = hacksim::WifiStandard::k80211n;
  c.data_rate_mbps = 150.0;
  c.n_clients = 10;
  c.proto = TransportProto::kTcp;
  c.hack = hack;
  c.duration = SimTime::Seconds(20);
  c.seed = seed;
  return c;
}

// The paper's headline point: 10 TCP download clients at 150 Mbps, HACK
// MORE DATA against stock TCP on the same replicate seeds.
Workload PaperFig10(uint64_t seed) {
  Workload w;
  w.name = "paper-fig10";
  for (int k = 0; k < kFig10Replicates; ++k) {
    uint64_t run_seed = hacksim::DeriveRunSeed(seed, static_cast<uint64_t>(k));
    w.ops.push_back({"hack-more-data/r" + std::to_string(k),
                     Fig10Cell(run_seed, HackVariant::kMoreData), true});
    w.ops.push_back({"stock-tcp/r" + std::to_string(k),
                     Fig10Cell(run_seed, HackVariant::kOff), false});
  }
  w.scheduler_shape = {32, 0.5, 1'000'000};
  return w;
}

// bench_scale's 1000-station udp-up row: saturated UDP uplink, 16 ms
// token-bucket pacing, starts packed into the first fifth of 0.5 s.
Workload DenseUplink(uint64_t seed) {
  Workload w;
  w.name = "dense-uplink";
  ScenarioConfig c;
  c.n_clients = 1000;
  c.proto = TransportProto::kUdp;
  c.hack = HackVariant::kOff;
  c.upload = true;
  c.udp_rate_bps = 2.5e9;
  c.udp_burst_window = SimTime::Millis(16);
  c.duration = SimTime::Millis(500);
  c.start_stagger = SimTime::Nanos(c.duration.ns() / (5 * c.n_clients));
  c.seed = hacksim::DeriveRunSeed(seed, 0);
  w.ops.push_back({"udp-up/n1000", c, false});
  w.scheduler_shape = {2048, 0.25, 16'000'000};
  return w;
}

// Four feature rows at 10 and 100 stations, two replicates each, short
// runs fanned out by ParallelFor.
Workload CampaignMix(uint64_t seed, int jobs) {
  Workload w;
  w.name = "campaign-mix";
  const SimTime duration = SimTime::Millis(500);
  size_t index = 0;
  for (int stations : {10, 100}) {
    for (int row = 0; row < 4; ++row) {
      for (int rep = 0; rep < 2; ++rep) {
        ScenarioConfig c;
        c.n_clients = stations;
        c.duration = duration;
        c.start_stagger = SimTime::Nanos(duration.ns() / (5 * stations));
        c.seed = hacksim::DeriveRunSeed(seed, index++);
        std::string label;
        bool hack = false;
        switch (row) {
          case 0:  // EDCA: 10% voice, 90% heavy-tailed web, ~128 Mbps web load
            label = "edca-voice-web";
            c.proto = TransportProto::kUdp;
            c.edca_enabled = true;
            c.traffic_mix = {{hacksim::TrafficModel::kParetoWeb, 0.9},
                             {hacksim::TrafficModel::kCbrVoice, 0.1}};
            c.traffic_rate_scale = 1000.0 / stations;
            break;
          case 1:  // two hidden clusters, saturated uplink, RTS/CTS
            label = "hidden-rts";
            c.proto = TransportProto::kUdp;
            c.upload = true;
            c.udp_rate_bps = 2.5e9;
            c.udp_burst_window = SimTime::Millis(16);
            c.topology = Topology::kTwoClusterHidden;
            c.propagation = hacksim::LogDistancePropagation::Params{};
            c.rts_threshold = 500;
            break;
          case 2:  // station churn under the liveness watchdog
            label = "churn-watchdog";
            c.proto = TransportProto::kUdp;
            c.fault_plan = FaultPlan::Churn(stations, duration);
            c.watchdog_interval = SimTime::Millis(10);
            // A trip is recorded and counted as a failed run instead of
            // aborting the benchmark.
            c.watchdog_abort_on_trip = false;
            break;
          default:  // TCP + HACK with a 1 ms ACK-batching window
            label = "tcp-hack-w1ms";
            c.proto = TransportProto::kTcp;
            c.hack = HackVariant::kMoreData;
            c.hack_config.ack_policy.flush_window = SimTime::Millis(1);
            hack = true;
            break;
        }
        w.ops.push_back({label + "/n" + std::to_string(stations) + "/r" +
                             std::to_string(rep),
                         c, hack});
      }
    }
  }
  w.jobs = jobs;
  w.scheduler_shape = {256, 0.4, 4'000'000};
  return w;
}

// --- checks -------------------------------------------------------------------------

uint64_t BytesDelivered(const ScenarioResult& r) {
  uint64_t bytes = 0;
  for (const ClientResult& c : r.clients) {
    bytes += c.bytes_delivered;
  }
  return bytes;
}

// The HACK counters this benchmark reads, summed over the AP and every
// client (the rest of the returned struct is the AP's alone).
HackStats SumHack(const ScenarioResult& r) {
  HackStats s = r.ap_hack;
  for (const ClientResult& c : r.clients) {
    s.vanilla_acks_sent += c.hack.vanilla_acks_sent;
    s.unique_compressed_acks += c.hack.unique_compressed_acks;
    s.unique_compressed_bytes += c.hack.unique_compressed_bytes;
    s.ack_batches += c.hack.ack_batches;
  }
  return s;
}

// Empty when the run passes.
std::string FailureReason(const Op& op, const ScenarioResult& r,
                          const ScenarioResult* first_run) {
  if (r.watchdog.trips > 0) {
    return "the liveness watchdog tripped";
  }
  if (r.crc_failures > 0) {
    return "ROHC CRC failures";
  }
  if (BytesDelivered(r) == 0) {
    return "delivered no bytes";
  }
  if (op.expect_compressed_acks && SumHack(r).unique_compressed_acks == 0) {
    return "HACK run carried no compressed ACK";
  }
  if (first_run != nullptr && !r.BehaviourEquals(*first_run)) {
    return "same-seed re-run is not BehaviourEquals-identical";
  }
  return "";
}

struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t digest_mismatches = 0;
  uint64_t driver_failures = 0;

  void Record(const Op& op, const std::string& reason) {
    ++attempted;
    if (!reason.empty()) {
      ++failed;
      if (failed <= 5) {
        std::printf("FAILED run %s (seed %llu): %s\n", op.label.c_str(),
                    static_cast<unsigned long long>(op.config.seed),
                    reason.c_str());
      }
    }
  }
};

// --- digest of simulated statistics -------------------------------------------

// FNV-1a over every simulated statistic of a run. Host-side counters
// (events executed, pending events) stay out: a speed-only change may move
// them, but must leave this digest unchanged.
class Digest {
 public:
  template <typename T>
  void Pod(const T& v) {
    static_assert(std::has_unique_object_representations_v<T>,
                  "digest a padding-free type, or add its fields one by one");
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    for (size_t i = 0; i < sizeof(T); ++i) {
      h_ = (h_ ^ p[i]) * 1099511628211ull;
    }
  }
  void Double(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    Pod(bits);
  }
  void Result(const ScenarioResult& r) {
    Pod(r.sim_end.ns());
    Double(r.aggregate_goodput_mbps);
    Double(r.steady_aggregate_goodput_mbps);
    Double(r.post_fault_goodput_mbps);
    Pod(r.crc_failures);
    Pod(r.tcp_timeouts);
    Pod(r.airtime);
    Pod(r.ap_mac);
    Pod(r.ap_phy);
    Pod(r.ap_hack);
    Pod(r.fault.crashes);
    Pod(r.fault.leaves);
    Pod(r.fault.joins);
    Pod(r.fault.radio_resets);
    Pod(r.fault.ap_outages);
    Pod(r.fault.ap_restarts);
    Pod(r.fault.bursts);
    Pod(r.watchdog.trips);
    for (const ClientResult& c : r.clients) {
      Double(c.goodput_mbps);
      Double(c.steady_goodput_mbps);
      Pod(c.bytes_delivered);
      Pod(c.mac);
      Pod(c.phy);
      Pod(c.hack);
      Pod(c.tcp_rx);
      Pod(c.tcp_tx);
      Pod(c.completion_time.ns());
    }
    for (const auto& ac : r.ac_latency) {
      Pod(ac.count);
      Double(ac.p50_ms);
      Double(ac.p99_ms);
      Double(ac.mean_ms);
      Double(ac.jitter_ms);
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

uint64_t DigestOfRun(const ScenarioResult& r) {
  Digest d;
  d.Result(r);
  return d.value();
}

// A pass's digest: FNV-1a over its runs' digests, in op order.
uint64_t DigestOfPass(const std::vector<uint64_t>& run_digests) {
  Digest d;
  for (uint64_t x : run_digests) {
    d.Pod(x);
  }
  return d.value();
}

// --- execution --------------------------------------------------------------------

struct RunOutcome {
  ScenarioResult result;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// One timing sample is one cycle: every op of the workload once. Samples of
// equal work keep the median steady (paper-fig10's seeds differ in cost by
// ~15%, so a median over single runs would jump between them).
struct Sample {
  double wall_s = 0.0;      // host: the cycle, first start to last end
  double run_wall_s = 0.0;  // host: summed over the cycle's runs
  double sim_s = 0.0;       // simulated seconds, summed over the runs
  uint64_t ppdus = 0;
  size_t runs = 0;
};

void RunCycle(const Workload& w, int jobs, std::vector<RunOutcome>* out) {
  out->assign(w.ops.size(), RunOutcome{});
  hacksim::ParallelFor(w.ops.size(), jobs, [&](size_t i) {
    RunOutcome& o = (*out)[i];
    o.start_ns = NowNs();
    o.result = hacksim::RunScenario(w.ops[i].config);
    o.end_ns = NowNs();
  });
}

// Host seconds to build the workload's cells: RunScenario on the same
// configs with zero duration. 1 ns is the shortest a UDP run accepts (its
// goodput window must not be empty); no event past t=0 fires in it.
double SetupProbe(const Workload& w) {
  int64_t t0 = NowNs();
  for (const Op& op : w.ops) {
    ScenarioConfig c = op.config;
    c.duration = SimTime::Nanos(1);
    (void)hacksim::RunScenario(c);
  }
  return static_cast<double>(NowNs() - t0) / 1e9;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
  std::string note;  // sample count and clock, for the human-readable line
};

std::string Samples(size_t n, const char* what) {
  return "median of " + std::to_string(n) + " " + what;
}

struct PassResult {
  std::vector<Sample> samples;  // one per completed cycle
  std::map<size_t, std::vector<double>> op_wall_s;  // per op, host seconds
};

struct Runner {
  const Workload& w;
  std::string inject;
  std::vector<ScenarioResult> reference;  // per op, from the serial pass
  uint64_t reference_digest = 0;
  Ledger ledger;

  // Every op once, serially, in op order: the jobs=1 reference that timed
  // runs and the digest are checked against.
  void ReferencePass() {
    std::vector<RunOutcome> out;
    RunCycle(w, /*jobs=*/1, &out);
    std::vector<uint64_t> digests;
    for (size_t i = 0; i < out.size(); ++i) {
      ledger.Record(w.ops[i], FailureReason(w.ops[i], out[i].result, nullptr));
      digests.push_back(DigestOfRun(out[i].result));
      reference.push_back(std::move(out[i].result));
    }
    reference_digest = DigestOfPass(digests);
  }

  // The untraced timed pass, a closed loop: `w.jobs` workers each take the
  // next run of the op sequence (op order, cyclic) until `seconds` have
  // passed and at least one full cycle ran. It is one ParallelFor call, so
  // the workers and their thread-local packet pools live for the whole
  // pass. Every run is checked against its reference run, and every
  // complete cycle is one timing sample whose digest is checked against the
  // reference digest.
  PassResult TimedPass(double seconds) {
    struct Record {
      int64_t start_ns = 0;
      int64_t end_ns = 0;
      double sim_s = 0.0;
      uint64_t ppdus = 0;
      uint64_t digest = 0;
      std::string reason;
      bool done = false;
    };
    constexpr size_t kMaxRuns = 1 << 15;
    const size_t cycle = w.ops.size();
    std::vector<Record> records(kMaxRuns);
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    std::atomic<bool> over{false};
    hacksim::ParallelFor(kMaxRuns, w.jobs, [&](size_t i) {
      if (i >= cycle &&
          (over.load(std::memory_order_relaxed) || NowNs() >= deadline)) {
        over.store(true, std::memory_order_relaxed);
        return;
      }
      const Op& op = w.ops[i % cycle];
      Record& rec = records[i];
      rec.start_ns = NowNs();
      ScenarioResult r = hacksim::RunScenario(op.config);
      rec.end_ns = NowNs();
      if (i == 0 && inject == "fail-run") {
        r.crc_failures = 1;
      } else if (i == 0 && inject == "nondeterminism") {
        r.aggregate_goodput_mbps += 1e-9;
      }
      rec.sim_s = r.sim_end.ToSecondsF();
      rec.ppdus = r.airtime.ppdus;
      rec.digest = DigestOfRun(r);
      rec.reason = FailureReason(op, r, &reference[i % cycle]);
      rec.done = true;
    });

    PassResult pass;
    for (size_t i = 0; i < kMaxRuns; ++i) {
      if (records[i].done) {
        ledger.Record(w.ops[i % cycle], records[i].reason);
        pass.op_wall_s[i % cycle].push_back(
            static_cast<double>(records[i].end_ns - records[i].start_ns) /
            1e9);
      }
    }
    for (size_t base = 0; base + cycle <= kMaxRuns; base += cycle) {
      Sample s;
      int64_t start = INT64_MAX;
      int64_t end = INT64_MIN;
      bool cycle_done = true;
      std::vector<uint64_t> digests;
      for (size_t i = base; i < base + cycle; ++i) {
        const Record& rec = records[i];
        cycle_done = cycle_done && rec.done;
        start = std::min(start, rec.start_ns);
        end = std::max(end, rec.end_ns);
        s.run_wall_s += static_cast<double>(rec.end_ns - rec.start_ns) / 1e9;
        s.sim_s += rec.sim_s;
        s.ppdus += rec.ppdus;
        digests.push_back(rec.digest);
      }
      if (!cycle_done) {
        continue;
      }
      s.wall_s = static_cast<double>(end - start) / 1e9;
      s.runs = cycle;
      pass.samples.push_back(s);
      if (DigestOfPass(digests) != reference_digest) {
        ++ledger.digest_mismatches;
        std::printf("FAILED digest: timed cycle %zu at jobs=%d differs from "
                    "the jobs=1 reference pass\n",
                    base / cycle, w.jobs);
      }
    }
    return pass;
  }

  // One traced iteration's cycle: a scenario.run span per run under
  // `parent`, each run checked against its reference run.
  void TracedCycle(PassResult* pass, Tracer* tracer, int parent,
                   int iteration) {
    std::vector<RunOutcome> out;
    RunCycle(w, w.jobs, &out);
    for (size_t i = 0; i < out.size(); ++i) {
      ledger.Record(w.ops[i],
                    FailureReason(w.ops[i], out[i].result, &reference[i]));
      pass->op_wall_s[i].push_back(
          static_cast<double>(out[i].end_ns - out[i].start_ns) / 1e9);
      tracer->Add("scenario.run", out[i].start_ns, out[i].end_ns, parent,
                  iteration);
    }
  }
};

// --- per-layer counters ----------------------------------------------------------

std::vector<Metric> CounterMetrics(const Workload& w,
                                   const std::vector<ScenarioResult>& results) {
  double events = 0, ppdus = 0, receivers = 0, collision_ns = 0, sim_ns = 0;
  double by_class[hacksim::kEventClassCount] = {};
  double mpdu_attempts = 0, data_ppdus = 0, first_try = 0, delivered = 0;
  double response_timeouts = 0, tcp_timeouts = 0, tcp_flows = 0;
  double pending = 0;
  double hack_compressed = 0, hack_vanilla = 0, hack_bytes = 0;
  double hack_batches = 0, hack_ack_air_ns = 0, hack_sim_ns = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    const ScenarioConfig& c = w.ops[i].config;
    events += static_cast<double>(r.events_executed);
    for (size_t k = 0; k < hacksim::kEventClassCount; ++k) {
      by_class[k] += static_cast<double>(r.events_by_class[k]);
    }
    double p = static_cast<double>(r.airtime.ppdus);
    ppdus += p;
    // Every other attached radio hears each PPDU unless the propagation
    // model pruned the pair.
    receivers += p * c.n_clients - static_cast<double>(r.airtime.out_of_range);
    collision_ns += static_cast<double>(r.airtime.collision_ns);
    sim_ns += static_cast<double>(r.sim_end.ns());
    pending += static_cast<double>(r.final_pending_events);
    if (c.proto == TransportProto::kTcp) {
      tcp_timeouts += static_cast<double>(r.tcp_timeouts);
      tcp_flows += c.n_clients;
    }
    std::vector<const MacStats*> macs = {&r.ap_mac};
    for (const ClientResult& cr : r.clients) {
      macs.push_back(&cr.mac);
    }
    double ack_air_ns = 0;
    for (const MacStats* m : macs) {
      mpdu_attempts += static_cast<double>(m->mpdu_tx_attempts);
      for (uint64_t n : m->data_ppdus_by_mode_index) {
        data_ppdus += static_cast<double>(n);  // ppdus_sent also counts BARs
      }
      first_try += static_cast<double>(m->mpdus_delivered_first_try);
      delivered += static_cast<double>(m->mpdus_delivered_first_try +
                                       m->mpdus_delivered_retried);
      response_timeouts += static_cast<double>(m->response_timeouts);
      ack_air_ns += static_cast<double>(
          m->tcp_ack_payload_airtime_ns + m->tcp_ack_channel_overhead_ns +
          m->tcp_ack_ll_ack_overhead_ns + m->rohc_payload_airtime_ns);
    }
    if (c.hack != HackVariant::kOff) {
      HackStats h = SumHack(r);
      hack_compressed += static_cast<double>(h.unique_compressed_acks);
      hack_vanilla += static_cast<double>(h.vanilla_acks_sent);
      hack_bytes += static_cast<double>(h.unique_compressed_bytes);
      hack_batches += static_cast<double>(h.ack_batches);
      hack_ack_air_ns += ack_air_ns;
      hack_sim_ns += static_cast<double>(r.sim_end.ns());
    }
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  static_assert(hacksim::kEventClassCount == 6, "name every EventClass");
  const char* kClassNames[hacksim::kEventClassCount] = {
      nullptr, "channel", "dcf", "nav", "mac", "transport"};
  std::vector<Metric> m;
  m.push_back({"sim.events_per_ppdu", "events/ppdu", ratio(events, ppdus), ""});
  for (size_t k = 1; k < hacksim::kEventClassCount; ++k) {
    m.push_back({std::string("sim.events_per_ppdu.") + kClassNames[k],
                 "events/ppdu", ratio(by_class[k], ppdus), ""});
  }
  m.push_back({"phy80211.receivers_per_ppdu", "radios/ppdu",
               ratio(receivers, ppdus), ""});
  m.push_back({"phy80211.collision_airtime_share", "share",
               ratio(collision_ns, sim_ns), "of simulated time"});
  m.push_back({"mac80211.mpdus_per_ppdu", "mpdus/ppdu",
               ratio(mpdu_attempts, data_ppdus), "data PPDUs"});
  m.push_back({"mac80211.first_try_fraction", "share",
               ratio(first_try, delivered), ""});
  m.push_back({"mac80211.response_timeouts_per_ppdu", "timeouts/ppdu",
               ratio(response_timeouts, ppdus), ""});
  m.push_back({"hack.compressed_ack_share", "share",
               ratio(hack_compressed, hack_compressed + hack_vanilla),
               "HACK runs"});
  m.push_back({"hack.compression_ratio", "x",
               ratio(hack_compressed * kVanillaAckBytes, hack_bytes),
               "52 B vanilla ACK / compressed bytes"});
  m.push_back({"hack.ack_airtime_share", "share",
               ratio(hack_ack_air_ns, hack_sim_ns),
               "TCP-ACK + ROHC airtime, HACK runs"});
  m.push_back({"hack.ack_batches", "count", hack_batches, ""});
  m.push_back({"rohc.bytes_per_record", "B/record",
               ratio(hack_bytes, hack_compressed), "paper Table 2: 4.36"});
  m.push_back({"tcp.timeouts_per_flow", "timeouts/flow",
               ratio(tcp_timeouts, tcp_flows), ""});
  m.push_back({"scenario.final_pending_events", "events/run",
               ratio(pending, static_cast<double>(results.size())), ""});
  return m;
}

// |HACK-vs-stock steady goodput gain - the paper's 22%| over the replicate
// seeds; 0 on workloads without a HACK/stock pairing.
double Fig10GapPp(const Workload& w, const std::vector<ScenarioResult>& results,
                  double* gain_pct) {
  double hack = 0, stock = 0;
  for (size_t i = 0; w.name == "paper-fig10" && i < results.size(); ++i) {
    (w.ops[i].config.hack == HackVariant::kOff ? stock : hack) +=
        results[i].steady_aggregate_goodput_mbps;
  }
  if (stock <= 0) {
    *gain_pct = 0;
    return 0;
  }
  *gain_pct = 100.0 * (hack / stock - 1.0);
  return std::fabs(*gain_pct - kPaperFig10GainPct);
}

// --- layer drivers in the traced pass ----------------------------------------------

struct Drivers {
  SchedulerDriver scheduler;
  TransmitDriver n10{10}, n100{100}, n1000{1000};
  RohcDriver c10{10}, c100{100};
  TcpAckDriver tcp;
  uint64_t failures = 0;
  // Operations per driver call, by span name.
  std::map<std::string, std::vector<double>> ops;

  Drivers(SchedulerShape shape, uint64_t seed) : scheduler(shape, seed) {}

  template <typename Prep, typename RunFn, typename VerifyFn>
  void Call(Tracer* tracer, int iteration, const std::string& name, Prep prep,
            RunFn run, VerifyFn verify) {
    prep();
    uint64_t n;
    {
      ScopedSpan span(tracer, name, iteration);
      n = run();
    }
    ops[name].push_back(static_cast<double>(n));
    if (!verify()) {
      ++failures;
      std::printf("FAILED layer driver %s: wrong output\n", name.c_str());
    }
  }

  void RunAll(Tracer* tracer, int iteration) {
    Call(tracer, iteration, "sim.scheduler",
         [&] { scheduler.Prepare(60000); }, [&] { return scheduler.Run(); },
         [&] { return scheduler.Verify(); });
    struct Fanout {
      TransmitDriver* d;
      int ppdus;
      const char* name;
    };
    for (const Fanout& f : {Fanout{&n10, 1200, "phy80211.transmit.n10"},
                            Fanout{&n100, 180, "phy80211.transmit.n100"},
                            Fanout{&n1000, 24, "phy80211.transmit.n1000"}}) {
      Call(tracer, iteration, f.name, [&] { f.d->Prepare(f.ppdus); },
           [&] { return f.d->Run(); }, [&] { return f.d->Verify(); });
    }
    for (auto [d, suffix] : {std::pair{&c10, "c10"}, std::pair{&c100, "c100"}}) {
      Call(tracer, iteration, std::string("rohc.compress.") + suffix,
           [&] { d->Prepare(15000); }, [&] { return d->RunCompress(); },
           [] { return true; });
      Call(tracer, iteration, std::string("rohc.decompress.") + suffix,
           [&] { d->PrepareDecompress(); },
           [&] { return d->RunDecompress(); }, [&] { return d->Verify(); });
    }
    Call(tracer, iteration, "tcp.ack", [&] { tcp.Prepare(15000); },
         [&] { return tcp.Run(); }, [&] { return tcp.Verify(); });
  }
};

// --- output ----------------------------------------------------------------------------

void PrintFingerprint(int jobs) {
  std::printf("fingerprint: nproc=%d compiler=\"%s\" build_type=%s "
              "flags=\"%s\" jobs=%d\n",
              hacksim::ResolveJobs(0), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              PERFBENCH_FLAGS, jobs);
}

bool BuildIsTimeable() {
  bool sanitized = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  sanitized = true;
#endif
#endif
  bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#ifndef NDEBUG
  release = false;
#endif
  if (!release || sanitized) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a %s%s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release and no sanitizer\n",
                 PERFBENCH_BUILD_TYPE, sanitized ? " sanitizer" : "");
    return false;
  }
  return true;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintResult(const Ledger& ledger, const std::vector<Metric>& metrics,
                 const std::string& inject) {
  bool finite = true;
  for (const Metric& m : metrics) {
    finite = finite && std::isfinite(m.value);
    std::printf("metric %-40s %.6g %s%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.empty() ? "" : "  (",
                m.note.empty() ? "" : (m.note + ")").c_str());
  }
  bool correct = finite && ledger.failed == 0 &&
                 ledger.digest_mismatches == 0 && ledger.driver_failures == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed));
  bool first = true;
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i == 0 && inject == "drop-metric") {
      continue;
    }
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

// --- main -------------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string inject;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      a->trace = value == "1";
    } else if (flag == "--trace-out") {
      a->trace_out = value;
    } else if (flag == "--inject") {
      a->inject = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (a->seconds <= 0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }
  // campaign-mix's closed loop: at most nproc workers, and at most 4 so the
  // workload is the same on any machine with 4 or more cores.
  int jobs = std::min(4, hacksim::ResolveJobs(0));
  Workload w;
  if (args.workload == "paper-fig10") {
    w = PaperFig10(args.seed);
  } else if (args.workload == "dense-uplink") {
    w = DenseUplink(args.seed);
  } else if (args.workload == "campaign-mix") {
    w = CampaignMix(args.seed, jobs);
  } else {
    std::fprintf(stderr,
                 "perfbench: --workload must be paper-fig10, dense-uplink or "
                 "campaign-mix\n");
    return 2;
  }
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  PrintFingerprint(w.jobs);
  if (!BuildIsTimeable()) {
    return 3;
  }

  Runner runner{w, args.inject, {}, 0, {}};
  runner.ReferencePass();
  std::printf("digest: %s seed=%llu %016llx (%zu runs; simulated statistics "
              "only)\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(runner.reference_digest),
              w.ops.size());
  // Set-up probes run warm, after the reference pass, until they have
  // taken kSetupProbeSeconds (and at least kMinSetupProbes of them): one
  // paper-fig10 probe builds eight small cells in well under a millisecond,
  // so only many of them give a steady median.
  std::vector<double> setup_s;
  int64_t probe_deadline =
      NowNs() + static_cast<int64_t>(kSetupProbeSeconds * 1e9);
  while (setup_s.size() < kMinSetupProbes || NowNs() < probe_deadline) {
    setup_s.push_back(SetupProbe(w));
  }

  double gain_pct = 0;
  double gap_pp = Fig10GapPp(w, runner.reference, &gain_pct);
  if (w.name == "paper-fig10") {
    std::printf("fig10: HACK-vs-stock steady goodput gain %.3f%% over %d "
                "seeds (paper 22%%), gap %.3f pp\n",
                gain_pct, kFig10Replicates, gap_pp);
  }

  // Untraced timed pass: all of --seconds at --trace 0, half at --trace 1.
  PassResult untraced =
      runner.TimedPass(args.trace ? args.seconds / 2 : args.seconds);
  std::printf("digest check: %zu timed cycles at jobs=%d against the jobs=1 "
              "reference, %llu mismatches\n",
              untraced.samples.size(), w.jobs,
              static_cast<unsigned long long>(runner.ledger.digest_mismatches));

  std::vector<Metric> metrics;
  const std::vector<Sample>& samples = untraced.samples;
  auto per_sample = [&](auto f) {
    std::vector<double> v;
    for (const Sample& s : samples) {
      v.push_back(f(s));
    }
    return Median(v);
  };
  double mean_run_s = 0;
  size_t total_runs = 0;
  for (const Sample& s : samples) {
    mean_run_s += s.run_wall_s;
    total_runs += s.runs;
  }
  mean_run_s /= static_cast<double>(std::max<size_t>(total_runs, 1));
  const std::string iters = Samples(samples.size(), "cycles");

  if (!args.trace) {
    metrics.push_back(
        {"sim_s_per_wall_s", "s/s",
         per_sample([](const Sample& s) { return s.sim_s / s.wall_s; }),
         iters + "; simulated s / host s"});
    metrics.push_back({"ns_per_ppdu", "ns", per_sample([](const Sample& s) {
                         return s.wall_s * 1e9 /
                                static_cast<double>(std::max<uint64_t>(s.ppdus, 1));
                       }),
                       iters + "; host ns / simulated PPDU"});
    metrics.push_back({"setup_s", "s", Median(setup_s),
                       Samples(setup_s.size(), "set-up probes") + "; host"});
    metrics.push_back({"peak_rss_mb", "MB", PeakRssMb(), "host high-water mark"});
    metrics.push_back(
        {"runs_per_s", "1/s",
         per_sample([](const Sample& s) {
           return static_cast<double>(s.runs) / s.wall_s;
         }),
         iters + "; host"});
  } else {
    Tracer tracer;
    Drivers drivers(w.scheduler_shape, hacksim::DeriveRunSeed(args.seed, 999));
    PassResult traced;
    // A fixed number of traced iterations: each campaign-mix iteration is
    // its own ParallelFor call, whose workers strand their thread-local
    // packet pools when they exit.
    for (size_t n = 0; n < kTracedIterations; ++n) {
      int it = static_cast<int>(n);
      ScopedSpan iteration(&tracer, "iteration", it);
      {
        ScopedSpan setup(&tracer, "scenario.setup", it);
        SetupProbe(w);
      }
      runner.TracedCycle(&traced, &tracer, iteration.index(), it);
      drivers.RunAll(&tracer, it);
    }
    runner.ledger.driver_failures = drivers.failures;
    if (!args.trace_out.empty() && !tracer.WriteChromeTrace(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
    }

    metrics = CounterMetrics(w, runner.reference);
    auto durations = tracer.DurationsByName();
    auto per_op_ns = [&](const std::string& span) {
      std::vector<double> v;
      const auto& d = durations[span];
      const auto& n = drivers.ops[span];
      for (size_t i = 0; i < d.size() && i < n.size(); ++i) {
        v.push_back(d[i] / std::max(n[i], 1.0));
      }
      return Median(v);
    };
    const std::string calls =
        Samples(durations["sim.scheduler"].size(), "driver calls") + "; host";
    metrics.push_back({"sim.ns_per_event", "ns", per_op_ns("sim.scheduler"),
                       calls});
    for (const char* n : {"n10", "n100", "n1000"}) {
      metrics.push_back({std::string("phy80211.transmit_ns.") + n, "ns",
                         per_op_ns(std::string("phy80211.transmit.") + n),
                         calls + "; per PPDU"});
    }
    for (const char* c : {"c10", "c100"}) {
      metrics.push_back({std::string("rohc.compress_ns.") + c, "ns",
                         per_op_ns(std::string("rohc.compress.") + c),
                         calls + "; per ACK"});
      metrics.push_back({std::string("rohc.decompress_ns.") + c, "ns",
                         per_op_ns(std::string("rohc.decompress.") + c),
                         calls + "; per record"});
    }
    metrics.push_back({"tcp.ack_ns", "ns", per_op_ns("tcp.ack"),
                       calls + "; per ACK"});
    metrics.push_back({"hack.fig10_gap_pp", "pp", gap_pp,
                       "deterministic; 0 = no HACK/stock pairing"});
    metrics.push_back(
        {"scenario.setup_share", "share",
         Median(setup_s) /
             (mean_run_s * static_cast<double>(w.ops.size())),
         "set-up probe / mean run wall per built cell; host"});
    int jobs_used = w.jobs;
    metrics.push_back(
        {"scenario.parallel_efficiency", "share",
         per_sample([jobs_used](const Sample& s) {
           return s.run_wall_s /
                  (std::min<double>(jobs_used, static_cast<double>(s.runs)) *
                   s.wall_s);
         }),
         iters + "; sum of run walls / (jobs x cycle wall)"});
    // Tracing overhead: per op, the traced run wall against the untraced
    // one, median over ops run in both passes.
    std::vector<double> overhead;
    for (const auto& [op, walls] : traced.op_wall_s) {
      auto it = untraced.op_wall_s.find(op);
      if (it != untraced.op_wall_s.end()) {
        overhead.push_back(100.0 * (Median(walls) / Median(it->second) - 1.0));
      }
    }
    metrics.push_back({"trace.overhead_pct", "%", Median(overhead),
                       "traced vs untraced run wall, median over ops"});
    for (const auto& [name, self] : tracer.SelfTimesByName()) {
      metrics.push_back({"trace.self_ms." + name, "ms", Median(self) / 1e6,
                         Samples(self.size(), "spans") + "; host"});
    }
  }

  PrintResult(runner.ledger, metrics, args.inject);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
