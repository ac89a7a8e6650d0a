// Dense-cell scaling sweep: station count x transport x HACK, on the
// batched-delivery + StationTable path. Locks in the ROADMAP's
// "millions of users" direction by measuring how cost-per-simulated-second
// and per-PPDU scheduler event count behave as the cell grows 10 -> 100 ->
// 1000 stations, and fails (exit 1) if the dense-cell path stops
// delivering — so CI's 100-station quick pass gates scaling regressions.
//
// Columns:
//   goodput    aggregate over the run, Mbps
//   events     scheduler events executed
//   ev/ppdu    events per PPDU on the air — batched delivery keeps the
//              channel's share flat, and lazy NAV/DCF re-arm removed the
//              per-station timer fan-out that used to dominate dense cells
//   chan/dcf/nav/mac/tpt
//              the same quantity split by event class (channel edges, DCF
//              grants, NAV expiry, MAC timeouts+responses, transport
//              timers), so regressions can be attributed per subsystem
//   collis     transmissions that began during another (collision count)
//   cts_to     CTS timeouts summed over every MAC (RTS rows only)
//   ovl        receptions killed by overlapping energy, summed over every
//              PHY (geometric-channel rows; hidden collisions land here)
//   wall       host milliseconds
//   ev/s       events per wall-clock second (engine throughput)
//
// Usage: bench_scale [--json PATH] [--jobs=N] [--repeats=N]
//   --jobs=N     fan independent runs across N workers (0 = all hardware
//                threads, the default). Every run's output is bit-identical
//                at any jobs level — the campaign engine derives run seeds
//                from the matrix position, never from scheduling.
//   --repeats=N  replicate seeds per row (default 5), 1000-station rows
//                included. Repeat 0 is the legacy seed=1 run and fills the
//                legacy columns byte-identically; repeats > 1 add
//                goodput_mean_mbps / goodput_ci95_mbps (and a post-fault
//                mean on fault rows) across the replicates.
// Honours HACKSIM_QUICK=1 (CI): 10/100 stations only, shorter runs, and
// only the quick pair (w0/w1ms) of the ACK-aggregation ablation rows — the
// full window sweep plus the EDCA-interaction pair run in the weekly
// full-matrix job.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "src/scenario/campaign.h"
#include "src/sim/random.h"
#include "src/util/stats.h"

using namespace hacksim;

namespace {

bool QuickMode() {
  const char* env = std::getenv("HACKSIM_QUICK");
  return env != nullptr && std::string(env) == "1";
}

struct Workload {
  // Row label for the table/JSON "proto" column (the goodput gate keys on
  // it: "udp" is the collapse baseline, "udp-rts" the gated recovery row).
  const char* label;
  TransportProto proto;
  HackVariant hack;
  bool upload = false;
  size_t rts_threshold = 0;  // 0 = handshake off
  bool rate_adapt = false;
  // Aggregate UDP offered load override (0 = the scenario default). The
  // uplink rows saturate every contender — the Bianchi-style dense-cell
  // regime where per-station backlogs keep A-MPDUs full and the collision
  // cost, not aggregation starvation, decides goodput.
  double udp_rate_bps = 0.0;
  // Station placement; anything but kRing also engages the geometric
  // channel (log-distance propagation, range-limited decode, SINR capture).
  Topology topology = Topology::kRing;
  // The unprotected hidden-terminal row may legitimately deliver nothing
  // at scale (every frame eats a blind collision at the AP — the measured
  // result, not a simulator bug); the recovery row must still deliver, so
  // the zero-byte guard stays armed everywhere else.
  bool allow_zero_bytes = false;
  // Fault-plan preset ("churn" | "apout"); nullptr = fault-free. Fault rows
  // run with the liveness watchdog armed in abort mode, so a wedged cell
  // fails the bench loudly instead of producing a quiet bad number.
  const char* fault = nullptr;
  // Mixed-workload traffic zoo: replaces the uniform CBR sources with a
  // voice/web mix (10% VO-tagged voice stations, 90% heavy-tailed web) and
  // turns on the per-AC latency columns. The rate scale keeps the web
  // offered load saturating (~128 Mbps) at every station count.
  bool mixed_traffic = false;
  // 802.11e EDCA on every MAC (four per-AC engines + queues). The VO-p99
  // gate compares the mixed row pair with this off vs on.
  bool edca = false;
  // --- ACK-aggregation ablation ---------------------------------------------
  // HackAckPolicy flush window in microseconds (0 = policy structurally
  // absent). The w0 ablation row must stay byte-identical to the plain
  // tcp/moredata row — check_bench_gates.py enforces it.
  int64_t ack_window_us = 0;
  // DSCP stamped on the TCP flows (0xC0 → VO under EDCA; 0 = legacy BE).
  uint8_t tcp_tos = 0;
  // Emit the HACK-detail JSON columns (compression ratio vs paper Table 2,
  // batch counters) for this row.
  bool hack_detail = false;
  // Skip this row in HACKSIM_QUICK mode: the full ablation sweep rides the
  // weekly full-matrix job; push CI runs only the quick w0/w1ms pair.
  bool full_only = false;
  // Replicate-seed alias: seeds derive from (stations, seed_group) instead
  // of this row's own index, so paired rows (w0 vs tcp/moredata, the EDCA
  // ablation pair) see identical RNG streams and compare run-for-run.
  // SIZE_MAX = use the row's own workload index.
  size_t seed_group = SIZE_MAX;
};

struct ScaleRow {
  int stations;
  const char* proto;
  const char* hack;
  double goodput_mbps;
  uint64_t bytes;
  uint64_t events;
  uint64_t ppdus;
  double events_per_ppdu;
  double wall_ms;
  double sim_seconds;
  // Per-PPDU event counts by class (EventClass order).
  double per_ppdu_class[kEventClassCount] = {};
  // Dense-cell MAC behaviour (summed over AP + clients).
  uint64_t collisions = 0;
  uint64_t rts_sent = 0;
  uint64_t cts_timeouts = 0;
  // Geometric-channel behaviour (zero on the legacy fixed-loss rows).
  uint64_t captures = 0;        // decoded despite overlap (summed, all PHYs)
  uint64_t overlap_losses = 0;  // receptions killed by overlap
  uint64_t out_of_range = 0;    // (sender, receiver) pairs pruned below ED
  // Fault rows only: goodput over the window after the last recovery event
  // (AP restart / final rejoin) — check_bench_gates.py requires it to reach
  // >= 50% of the matching fault-free "udp" row.
  bool has_fault = false;
  uint64_t fault_events = 0;
  double post_fault_goodput_mbps = 0.0;
  // Mixed-traffic rows only: per-AC enqueue→delivery latency (ms). Emitted
  // to JSON per AC with samples, so legacy rows stay byte-identical.
  bool has_latency = false;
  LatencySummary ac_latency[kNumAcs];
  // HACK-detail rows only (the ACK-aggregation ablation): cell-wide
  // compression ratio (vs paper Table 2's 52-byte vanilla ACK) and batch
  // counters. Emitted to JSON only when has_hack_detail, so legacy rows
  // stay byte-identical.
  bool has_hack_detail = false;
  double hack_compression_ratio = 0.0;
  uint64_t hack_ack_batches = 0;
  double hack_acks_per_flush = 0.0;
  // Validated on the main thread after the parallel fan-out (a worker must
  // not std::exit while its siblings run).
  uint64_t crc_failures = 0;
  // Replicate-seed aggregation (repeat 0 = the legacy seed=1 run, which
  // alone fills the legacy columns above). Emitted only when repeats > 1 so
  // single-seed output stays byte-identical to the historical format.
  int repeats = 1;
  double goodput_mean_mbps = 0.0;
  double goodput_ci95_mbps = 0.0;
  double post_fault_goodput_mean_mbps = 0.0;
};

ScaleRow RunOne(int stations, const Workload& w, uint64_t seed) {
  ScenarioConfig c;
  c.standard = WifiStandard::k80211n;
  c.data_rate_mbps = 150.0;
  c.n_clients = stations;
  c.proto = w.proto;
  c.hack = w.hack;
  c.upload = w.upload;
  c.rts_threshold = w.rts_threshold;
  c.rate_adaptation = w.rate_adapt;
  if (w.udp_rate_bps > 0.0) {
    c.udp_rate_bps = w.udp_rate_bps;
  }
  if (w.proto == TransportProto::kUdp && w.upload) {
    // A 16 ms token-bucket window on the saturated uplink rows: one
    // transport refill per window per station releases every tick accrued
    // in it (burst size adapts to each station's CBR interval). The
    // downlink rows keep the zero window, a burst of 1 (one event per
    // packet): their per-flow interval at depth is near/above the window,
    // and their replicate CIs are pinned across PRs.
    c.udp_burst_window = SimTime::Millis(16);
  }
  c.topology = w.topology;
  if (w.topology != Topology::kRing) {
    c.propagation = LogDistancePropagation::Params{};
  }
  c.edca_enabled = w.edca;
  if (w.ack_window_us > 0) {
    c.hack_config.ack_policy.flush_window = SimTime::Micros(w.ack_window_us);
  }
  c.tcp.tos = w.tcp_tos;
  if (w.mixed_traffic) {
    // A voice tithe sharing the cell with heavy-tailed web bulk. The scale
    // keeps the aggregate web load at ~128 Mbps (saturating a 150 Mbps
    // cell) and the aggregate voice load at ~6.4 Mbps at every station
    // count, so the rows compare QoS policy, not offered load. Voice rides
    // the LAST mix row (highest station indices): client IPv4 addresses
    // truncate to one octet, so past 256 stations only the last 256 are
    // routable — a tail tithe keeps every voice sink live at 1000 stations
    // while the ghost web flows still saturate the air.
    c.traffic_mix = {{TrafficModel::kParetoWeb, 0.9},
                     {TrafficModel::kCbrVoice, 0.1}};
    c.traffic_rate_scale = 1000.0 / stations;
  }
  if (w.fault != nullptr) {
    // Watchdog armed in abort mode: a churn/outage row that wedges the
    // cell kills the bench with a repro line instead of emitting a row.
    c.watchdog_interval = SimTime::Millis(10);
  }
  // Scale sim time down with station count so the full sweep stays
  // tractable; the quantities of interest (events/ppdu, ev/s) are rates.
  int64_t millis = QuickMode() ? 250 : (stations >= 1000 ? 500 : 2000);
  c.duration = SimTime::Millis(millis);
  // The default 250 ms stagger assumes a handful of clients; pack starts
  // into the first fifth of the run instead.
  c.start_stagger = SimTime::Nanos(millis * 1'000'000 / (5 * stations));
  c.seed = seed;
  if (w.fault != nullptr) {
    c.fault_plan = std::strcmp(w.fault, "apout") == 0
                       ? FaultPlan::ApOutage(c.duration)
                       : FaultPlan::Churn(stations, c.duration);
  }

  auto t0 = std::chrono::steady_clock::now();
  ScenarioResult r = RunScenario(c);
  auto t1 = std::chrono::steady_clock::now();

  ScaleRow row;
  row.stations = stations;
  row.proto = w.label;
  row.hack = w.hack == HackVariant::kOff ? "off" : "moredata";
  row.collisions = r.airtime.collisions;
  row.out_of_range = r.airtime.out_of_range;
  row.rts_sent = r.ap_mac.rts_sent;
  row.cts_timeouts = r.ap_mac.cts_timeouts;
  row.captures = r.ap_phy.captures;
  row.overlap_losses = r.ap_phy.overlap_losses;
  for (const ClientResult& cr : r.clients) {
    row.rts_sent += cr.mac.rts_sent;
    row.cts_timeouts += cr.mac.cts_timeouts;
    row.captures += cr.phy.captures;
    row.overlap_losses += cr.phy.overlap_losses;
  }
  row.goodput_mbps = r.aggregate_goodput_mbps;
  row.bytes = 0;
  for (const ClientResult& cr : r.clients) {
    row.bytes += cr.bytes_delivered;
  }
  row.events = r.events_executed;
  row.ppdus = r.airtime.ppdus;
  row.events_per_ppdu =
      r.airtime.ppdus > 0
          ? static_cast<double>(r.events_executed) /
                static_cast<double>(r.airtime.ppdus)
          : 0.0;
  row.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  row.sim_seconds = c.duration.ToSecondsF();
  row.has_fault = w.fault != nullptr;
  row.fault_events = c.fault_plan.events.size();
  row.post_fault_goodput_mbps = r.post_fault_goodput_mbps;
  for (size_t i = 0; i < kEventClassCount; ++i) {
    row.per_ppdu_class[i] =
        r.airtime.ppdus > 0
            ? static_cast<double>(r.events_by_class[i]) /
                  static_cast<double>(r.airtime.ppdus)
            : 0.0;
  }

  if (w.mixed_traffic) {
    row.has_latency = true;
    for (uint8_t ac = 0; ac < kNumAcs; ++ac) {
      row.ac_latency[ac] = r.ac_latency[ac];
    }
  }

  if (w.hack_detail) {
    row.has_hack_detail = true;
    uint64_t batches = r.ap_hack.ack_batches;
    uint64_t batched = r.ap_hack.batched_acks;
    uint64_t unique_acks = r.ap_hack.unique_compressed_acks;
    uint64_t unique_bytes = r.ap_hack.unique_compressed_bytes;
    for (const ClientResult& cr : r.clients) {
      batches += cr.hack.ack_batches;
      batched += cr.hack.batched_acks;
      unique_acks += cr.hack.unique_compressed_acks;
      unique_bytes += cr.hack.unique_compressed_bytes;
    }
    row.hack_ack_batches = batches;
    row.hack_acks_per_flush =
        batches > 0 ? static_cast<double>(batched) /
                          static_cast<double>(batches)
                    : 0.0;
    // Cell-wide analogue of HackStats::CompressionRatio (52 B vanilla ACK
    // per Table 2 / unique compressed bytes).
    row.hack_compression_ratio =
        unique_bytes > 0 ? static_cast<double>(unique_acks * 52) /
                               static_cast<double>(unique_bytes)
                         : 1.0;
  }

  row.crc_failures = r.crc_failures;
  return row;
}

// Per-run guards, evaluated on the main thread in matrix order once the
// parallel fan-out has delivered the row.
void CheckRow(const ScaleRow& r, const Workload& w, uint64_t seed) {
  if (r.crc_failures != 0) {
    std::fprintf(stderr,
                 "FAIL: %d-station %s/%s run (seed %llu) had %llu CRC "
                 "failures\n",
                 r.stations, r.proto, r.hack,
                 static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(r.crc_failures));
    std::exit(1);
  }
  if (r.bytes == 0 && !w.allow_zero_bytes) {
    std::fprintf(stderr,
                 "FAIL: %d-station %s/%s run (seed %llu) delivered zero "
                 "bytes\n",
                 r.stations, r.proto, r.hack,
                 static_cast<unsigned long long>(seed));
    std::exit(1);
  }
}

void WriteJson(const std::string& path, const std::vector<ScaleRow>& rows) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"benchmark\": \"bench_scale\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"stations\": %d, \"proto\": \"%s\", \"hack\": \"%s\", "
        "\"goodput_mbps\": %.3f, \"bytes\": %llu, \"events\": %llu, "
        "\"ppdus\": %llu, \"events_per_ppdu\": %.2f, "
        "\"per_ppdu_other\": %.2f, \"per_ppdu_channel\": %.2f, "
        "\"per_ppdu_dcf\": %.2f, \"per_ppdu_nav\": %.2f, "
        "\"per_ppdu_mac\": %.2f, \"per_ppdu_transport\": %.2f, "
        "\"collisions\": %llu, \"rts\": %llu, \"cts_timeouts\": %llu, "
        "\"captures\": %llu, \"overlap_losses\": %llu, "
        "\"out_of_range\": %llu, ",
        r.stations, r.proto, r.hack, r.goodput_mbps,
        static_cast<unsigned long long>(r.bytes),
        static_cast<unsigned long long>(r.events),
        static_cast<unsigned long long>(r.ppdus), r.events_per_ppdu,
        r.per_ppdu_class[0], r.per_ppdu_class[1], r.per_ppdu_class[2],
        r.per_ppdu_class[3], r.per_ppdu_class[4], r.per_ppdu_class[5],
        static_cast<unsigned long long>(r.collisions),
        static_cast<unsigned long long>(r.rts_sent),
        static_cast<unsigned long long>(r.cts_timeouts),
        static_cast<unsigned long long>(r.captures),
        static_cast<unsigned long long>(r.overlap_losses),
        static_cast<unsigned long long>(r.out_of_range));
    if (r.repeats > 1) {
      // Replicate-seed statistics; emitted only when the row actually ran
      // repeats, so single-seed artifacts stay byte-identical to the
      // historical format. The legacy goodput_mbps above is always the
      // repeat-0 (seed=1) point value. check_bench_gates.py prefers the
      // mean whenever these columns are present.
      std::fprintf(f,
                   "\"repeats\": %d, \"goodput_mean_mbps\": %.3f, "
                   "\"goodput_ci95_mbps\": %.3f, ",
                   r.repeats, r.goodput_mean_mbps, r.goodput_ci95_mbps);
      if (r.has_fault) {
        std::fprintf(f, "\"post_fault_goodput_mean_mbps\": %.3f, ",
                     r.post_fault_goodput_mean_mbps);
      }
    }
    if (r.has_fault) {
      // Emitted only on fault rows so the legacy rows' JSON text stays
      // byte-identical across PRs.
      std::fprintf(f,
                   "\"fault_events\": %llu, "
                   "\"post_fault_goodput_mbps\": %.3f, ",
                   static_cast<unsigned long long>(r.fault_events),
                   r.post_fault_goodput_mbps);
    }
    if (r.has_latency) {
      // Per-AC latency columns, mixed-traffic rows only (legacy rows stay
      // byte-identical). Only ACs that actually carried samples appear.
      static const char* kAcKeys[kNumAcs] = {"vo", "vi", "be", "bk"};
      for (uint8_t ac = 0; ac < kNumAcs; ++ac) {
        const LatencySummary& s = r.ac_latency[ac];
        if (s.count == 0) {
          continue;
        }
        std::fprintf(f,
                     "\"lat_%s_count\": %llu, \"lat_%s_p50_ms\": %.3f, "
                     "\"lat_%s_p99_ms\": %.3f, \"lat_%s_jitter_ms\": %.3f, ",
                     kAcKeys[ac], static_cast<unsigned long long>(s.count),
                     kAcKeys[ac], s.p50_ms, kAcKeys[ac], s.p99_ms,
                     kAcKeys[ac], s.jitter_ms);
      }
    }
    if (r.has_hack_detail) {
      // ACK-aggregation ablation columns (legacy rows stay byte-identical;
      // gate 8 strips these before the w0-vs-tcp/moredata comparison).
      std::fprintf(f,
                   "\"hack_compression_ratio\": %.2f, "
                   "\"hack_ack_batches\": %llu, "
                   "\"hack_acks_per_flush\": %.2f, ",
                   r.hack_compression_ratio,
                   static_cast<unsigned long long>(r.hack_ack_batches),
                   r.hack_acks_per_flush);
    }
    std::fprintf(f, "\"wall_ms\": %.1f, \"sim_seconds\": %.3f}%s\n",
                 r.wall_ms, r.sim_seconds, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  int jobs = 0;     // 0 = hardware_concurrency
  int repeats = 5;  // replicate seeds per 10/100-station row
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      jobs = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--repeats=", 10) == 0) {
      repeats = std::atoi(argv[i] + 10);
    }
  }
  if (repeats < 1) {
    repeats = 1;
  }

  const char* rule =
      "==============================================================\n";
  std::printf("%sbench_scale\n  reproduces: dense-cell scaling (ROADMAP "
              "north star, not a paper figure)\n%s",
              rule, rule);
  std::vector<int> station_counts = QuickMode()
                                        ? std::vector<int>{10, 100}
                                        : std::vector<int>{10, 100, 1000};
  // The first three rows are the historical sweep and must stay
  // bit-identical across perf PRs. The next three open the dense-cell
  // realism workloads: "udp-up" is saturated uplink contention without any
  // protection (the collision collapse), "udp-rts" the same cell with
  // RTS/CTS + per-station rate adaptation (the gated recovery), and
  // "tcp+hack-rts" the full TCP+HACK download with protected data batches.
  // The last two run the two-cluster hidden-terminal topology on the
  // geometric channel (clusters cannot carrier-sense each other, so plain
  // DCF collides at the AP blind): "udp-hidden" is uplink CBR without
  // protection, "udp-hidden-rts" the same cell where the AP's CTS reserves
  // the medium across both clusters — the recovery check_bench_gates.py
  // enforces at >= 2x. The final two are the robustness rows: the fault-free
  // "udp" download cell put through station churn ("udp-churn": a fifth of
  // the stations crash mid-run, most rejoin) and a full AP outage + restart
  // ("udp-apout"), each under the liveness watchdog in abort mode; the gate
  // requires post-fault goodput >= 50% of the fault-free "udp" row.
  const Workload workloads[] = {
      {"udp", TransportProto::kUdp, HackVariant::kOff},
      {"tcp", TransportProto::kTcp, HackVariant::kOff},
      {"tcp", TransportProto::kTcp, HackVariant::kMoreData},
      {"udp-up", TransportProto::kUdp, HackVariant::kOff, /*upload=*/true,
       /*rts_threshold=*/0, /*rate_adapt=*/false, /*udp_rate_bps=*/2.5e9},
      {"udp-rts", TransportProto::kUdp, HackVariant::kOff, /*upload=*/true,
       /*rts_threshold=*/500, /*rate_adapt=*/true, /*udp_rate_bps=*/2.5e9},
      {"tcp+hack-rts", TransportProto::kTcp, HackVariant::kMoreData,
       /*upload=*/false, /*rts_threshold=*/500, /*rate_adapt=*/true},
      {"udp-hidden", TransportProto::kUdp, HackVariant::kOff, /*upload=*/true,
       /*rts_threshold=*/0, /*rate_adapt=*/false, /*udp_rate_bps=*/2.5e9,
       Topology::kTwoClusterHidden, /*allow_zero_bytes=*/true},
      {"udp-hidden-rts", TransportProto::kUdp, HackVariant::kOff,
       /*upload=*/true, /*rts_threshold=*/500, /*rate_adapt=*/false,
       /*udp_rate_bps=*/2.5e9, Topology::kTwoClusterHidden},
      {"udp-churn", TransportProto::kUdp, HackVariant::kOff,
       /*upload=*/false, /*rts_threshold=*/0, /*rate_adapt=*/false,
       /*udp_rate_bps=*/0.0, Topology::kRing, /*allow_zero_bytes=*/false,
       /*fault=*/"churn"},
      {"udp-apout", TransportProto::kUdp, HackVariant::kOff,
       /*upload=*/false, /*rts_threshold=*/0, /*rate_adapt=*/false,
       /*udp_rate_bps=*/0.0, Topology::kRing, /*allow_zero_bytes=*/false,
       /*fault=*/"apout"},
      // QoS pair: the same saturated voice+web mix without and with EDCA.
      // check_bench_gates.py requires the EDCA row's VO p99 to undercut
      // the no-EDCA baseline by >= 2x at the largest station count.
      {"udp-mix", TransportProto::kUdp, HackVariant::kOff,
       /*upload=*/false, /*rts_threshold=*/0, /*rate_adapt=*/false,
       /*udp_rate_bps=*/0.0, Topology::kRing, /*allow_zero_bytes=*/false,
       /*fault=*/nullptr, /*mixed_traffic=*/true, /*edca=*/false},
      {"udp-mix-edca", TransportProto::kUdp, HackVariant::kOff,
       /*upload=*/false, /*rts_threshold=*/0, /*rate_adapt=*/false,
       /*udp_rate_bps=*/0.0, Topology::kRing, /*allow_zero_bytes=*/false,
       /*fault=*/nullptr, /*mixed_traffic=*/true, /*edca=*/true},
      // --- ACK-aggregation ablation (HackAckPolicy) --------------------------
      // tcp+hack-w<N> sweeps the flush window over the tcp/moredata cell.
      // All window rows alias seed_group=2 (the tcp/moredata index): the w0
      // row must come out byte-identical to that row (gate 8), and the
      // window>0 rows compare goodput run-for-run against it (gate 9).
      // Quick mode (push CI) runs only the w0/w1ms pair; the full sweep —
      // with the EDCA-interaction pair at the end, VO-tagged TCP over the
      // saturated voice+web zoo without/with a 1 ms window — rides the
      // weekly full-matrix job.
      {.label = "tcp+hack-w0", .proto = TransportProto::kTcp,
       .hack = HackVariant::kMoreData, .ack_window_us = 0,
       .hack_detail = true, .seed_group = 2},
      {.label = "tcp+hack-w1ms", .proto = TransportProto::kTcp,
       .hack = HackVariant::kMoreData, .ack_window_us = 1000,
       .hack_detail = true, .seed_group = 2},
      {.label = "tcp+hack-w64us", .proto = TransportProto::kTcp,
       .hack = HackVariant::kMoreData, .ack_window_us = 64,
       .hack_detail = true, .full_only = true, .seed_group = 2},
      {.label = "tcp+hack-w256us", .proto = TransportProto::kTcp,
       .hack = HackVariant::kMoreData, .ack_window_us = 256,
       .hack_detail = true, .full_only = true, .seed_group = 2},
      {.label = "tcp+hack-w4ms", .proto = TransportProto::kTcp,
       .hack = HackVariant::kMoreData, .ack_window_us = 4000,
       .hack_detail = true, .full_only = true, .seed_group = 2},
      {.label = "tcp+hack-mix-edca", .proto = TransportProto::kTcp,
       .hack = HackVariant::kMoreData, .mixed_traffic = true, .edca = true,
       .ack_window_us = 0, .tcp_tos = 0xC0, .hack_detail = true,
       .full_only = true, .seed_group = 17},
      {.label = "tcp+hack-mix-edca-w1ms", .proto = TransportProto::kTcp,
       .hack = HackVariant::kMoreData, .mixed_traffic = true, .edca = true,
       .ack_window_us = 1000, .tcp_tos = 0xC0, .hack_detail = true,
       .full_only = true, .seed_group = 17},
  };

  // Flatten the matrix: each (stations, workload) cell expands to `reps`
  // replicate runs. Repeat 0 is the historical seed=1 run and alone feeds
  // the legacy columns; repeats r > 0 draw their seed from the cell's
  // stable identity (stations, workload index) and r — never from the
  // enumeration order — so quick and full sweeps, at any --jobs level,
  // give every replicate the same RNG streams.
  struct RunSpec {
    int stations;
    size_t workload;
    int repeat;
    uint64_t seed;
    size_t cell;  // index into the emitted per-cell row vector
  };
  constexpr size_t kNumWorkloads = std::size(workloads);
  std::vector<RunSpec> specs;
  // cell → workload index; quick mode skips full_only workloads, so the
  // mapping is no longer `cell % kNumWorkloads`.
  std::vector<size_t> cell_workload;
  size_t n_cells = 0;
  for (int n : station_counts) {
    for (size_t wi = 0; wi < kNumWorkloads; ++wi) {
      if (QuickMode() && workloads[wi].full_only) {
        continue;  // full ablation sweep rides the weekly full-matrix job
      }
      // Every row replicates, 1000-station cells included: since the
      // parallel campaign engine fans replicates across cores, the dense
      // rows' replicates ride along at roughly the wall cost of the
      // slowest single run, and the mean/CI gates cover the rows that
      // actually move in perf PRs.
      int reps = repeats;
      // Paired rows alias another workload's seed stream (seed_group) so
      // their replicates compare run-for-run.
      uint64_t sg = workloads[wi].seed_group == SIZE_MAX
                        ? static_cast<uint64_t>(wi)
                        : static_cast<uint64_t>(workloads[wi].seed_group);
      for (int r = 0; r < reps; ++r) {
        uint64_t seed =
            r == 0 ? 1
                   : DeriveRunSeed(static_cast<uint64_t>(n) * 64 + sg,
                                   static_cast<uint64_t>(r));
        specs.push_back(RunSpec{n, wi, r, seed, n_cells});
      }
      cell_workload.push_back(wi);
      ++n_cells;
    }
  }

  std::vector<ScaleRow> all_runs(specs.size());
  ParallelFor(specs.size(), jobs, [&](size_t i) {
    const RunSpec& s = specs[i];
    all_runs[i] = RunOne(s.stations, workloads[s.workload], s.seed);
  });

  std::printf(
      "%-9s %-13s %-9s %9s %12s %9s %9s %7s %7s %7s %7s %7s %8s %8s %8s "
      "%10s %10s\n",
      "stations", "proto", "hack", "goodput", "events", "ppdus", "ev/ppdu",
      "chan", "dcf", "nav", "mac", "tpt", "collis", "cts_to", "ovl",
      "wall_ms", "ev/s");
  std::vector<ScaleRow> rows(n_cells);
  std::vector<RunningStats> cell_goodput(n_cells);
  std::vector<RunningStats> cell_post_fault(n_cells);
  for (size_t i = 0; i < specs.size(); ++i) {
    const RunSpec& s = specs[i];
    const ScaleRow& run = all_runs[i];
    CheckRow(run, workloads[s.workload], s.seed);
    cell_goodput[s.cell].Add(run.goodput_mbps);
    cell_post_fault[s.cell].Add(run.post_fault_goodput_mbps);
    if (s.repeat == 0) {
      rows[s.cell] = run;  // legacy columns come from the seed=1 run
    }
  }
  for (size_t cell = 0; cell < n_cells; ++cell) {
    ScaleRow& r = rows[cell];
    r.repeats = static_cast<int>(cell_goodput[cell].count());
    r.goodput_mean_mbps = cell_goodput[cell].mean();
    r.goodput_ci95_mbps = cell_goodput[cell].Ci95HalfWidth();
    r.post_fault_goodput_mean_mbps = cell_post_fault[cell].mean();

    double evps = r.wall_ms > 0 ? r.events / (r.wall_ms / 1000.0) : 0;
    std::printf(
        "%-9d %-13s %-9s %9.1f %12llu %9llu %9.1f %7.1f %7.1f %7.1f %7.1f "
        "%7.1f %8llu %8llu %8llu %10.1f %9.2fM\n",
        r.stations, r.proto, r.hack, r.goodput_mbps,
        static_cast<unsigned long long>(r.events),
        static_cast<unsigned long long>(r.ppdus), r.events_per_ppdu,
        r.per_ppdu_class[1], r.per_ppdu_class[2], r.per_ppdu_class[3],
        r.per_ppdu_class[4], r.per_ppdu_class[5],
        static_cast<unsigned long long>(r.collisions),
        static_cast<unsigned long long>(r.cts_timeouts),
        static_cast<unsigned long long>(r.overlap_losses), r.wall_ms,
        evps / 1e6);
    if (r.repeats > 1) {
      std::printf("          ~ %d seeds: goodput %.1f +/- %.1f Mbps "
                  "(mean +/- 95%% CI)\n",
                  r.repeats, r.goodput_mean_mbps, r.goodput_ci95_mbps);
    }
    if (r.has_fault) {
      std::printf("          ^ %s plan (%llu events): post-fault goodput "
                  "%.1f Mbps\n",
                  workloads[cell_workload[cell]].fault,
                  static_cast<unsigned long long>(r.fault_events),
                  r.post_fault_goodput_mbps);
    }
    if (r.has_latency) {
      std::printf("          ~ latency ms p50/p99/jitter: VO %.2f/%.2f/%.2f"
                  "  BE %.2f/%.2f/%.2f\n",
                  r.ac_latency[kAcVo].p50_ms, r.ac_latency[kAcVo].p99_ms,
                  r.ac_latency[kAcVo].jitter_ms, r.ac_latency[kAcBe].p50_ms,
                  r.ac_latency[kAcBe].p99_ms, r.ac_latency[kAcBe].jitter_ms);
    }
    if (r.has_hack_detail) {
      std::printf("          ~ hack: compression %.1fx, %llu batches, "
                  "%.1f acks/flush\n",
                  r.hack_compression_ratio,
                  static_cast<unsigned long long>(r.hack_ack_batches),
                  r.hack_acks_per_flush);
    }
  }
  if (!json_path.empty()) {
    WriteJson(json_path, rows);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  std::printf(
      "\nwith batched delivery + lazy NAV/DCF re-arm, ev/ppdu is dominated "
      "by the\nchannel share (bounded by the cell's distinct propagation "
      "delays).\nudp-up vs udp-rts is the RTS/CTS story: same saturated "
      "uplink cell,\ncollisions moved off the long data frames onto cheap "
      "RTS frames\n(check_bench_gates.py enforces the recovery ratio at "
      "1000 stations).\nudp-hidden vs udp-hidden-rts is the *hidden*-"
      "terminal story: two clusters\nthat cannot carrier-sense each other "
      "collide blind at the AP (ovl column)\nuntil the AP's CTS reserves "
      "the medium across both (gated at >= 2x)\n");
  return 0;
}
