// UDP constant-bit-rate source and counting sink — the unidirectional
// workload the paper uses as its capacity yardstick (Figures 9 and 10).
#ifndef SRC_APPS_UDP_APP_H_
#define SRC_APPS_UDP_APP_H_

#include "src/apps/packet_source.h"
#include "src/stats/experiment_stats.h"

namespace hacksim {

// Paced by one token-bucket loop. The CBR clock ticks every
// payload*8/rate; a refill event releases every tick accrued up to its
// instant, then re-arms one burst period out (clamped to the stop, so a
// finite stop flushes its tail exactly). The burst is as many ticks as fit
// in Config::burst_window, capped at kMaxBurstPackets. A burst of 1 -- the
// default, and any window up to one interval -- is the per-packet schedule:
// one event per packet, emitted at its tick instant.
class UdpCbrSource : public PacketSource {
 public:
  struct Config {
    double rate_bps = 200e6;     // offered load (saturating by default)
    uint32_t payload_bytes = 1472;
    SimTime start;
    SimTime stop = SimTime::Max();
    // Refill cadence. A window longer than one interval batches the ticks
    // accrued in it into one event (late accrual: emission instants shift
    // to the refill edge, the tick grid and byte totals do not).
    SimTime burst_window;
  };
  // Cap on packets released per refill: bounds the burst one event injects
  // into the MAC queue (the window shrinks to cap * interval).
  static constexpr uint32_t kMaxBurstPackets = 64;

  UdpCbrSource(Scheduler* scheduler, Config config, FiveTuple flow,
               std::function<void(Packet)> send);

  void Start() override;
  // Also releases the ticks accrued since the last refill: the instants
  // before the stop whose packets a refill has not emitted yet.
  void Stop() override;

 private:
  void Step() override;  // one refill
  void Restart(SimTime from) override;

  SimTime start_;
  uint32_t payload_bytes_;
  SimTime interval_;
  SimTime period_;  // refill cadence = interval_ * burst size
  // The CBR clock: the next unreleased tick; Max() while none is due.
  SimTime next_emit_ = SimTime::Max();
};

class UdpSink {
 public:
  explicit UdpSink(Scheduler* scheduler) : scheduler_(scheduler) {}

  void OnPacket(const Packet& packet);

  uint64_t bytes_received() const { return bytes_received_; }
  const GoodputTracker& tracker() const { return tracker_; }

  // Per-AC latency collection: when set, every delivery records its
  // enqueue→delivery delay (Packet::created_at is stamped at the source)
  // under the packet's DSCP-derived access category, plus the consecutive
  // same-sink delay delta for jitter. Recording only — no events, no RNG —
  // so wiring a recorder cannot perturb a run.
  void set_latency_recorder(LatencyRecorder* recorder) {
    latency_ = recorder;
  }

 private:
  Scheduler* scheduler_;
  uint64_t bytes_received_ = 0;
  GoodputTracker tracker_;
  LatencyRecorder* latency_ = nullptr;
  SimTime last_delay_;
  bool has_last_delay_ = false;
};

}  // namespace hacksim

#endif  // SRC_APPS_UDP_APP_H_
