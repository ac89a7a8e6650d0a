// Traffic-model zoo for mixed-workload scenarios (docs/qos.md).
//
// Four station archetypes, each mapped onto an 802.11e access category via
// the DSCP byte its packets carry:
//   * kCbrVoice  — G.711-shaped constant bit rate: 160 B every 20 ms
//                  (64 kbps) with a per-flow random initial phase. tos 0xC0
//                  (precedence 6 → AC_VO).
//   * kOnOffVideo — bursty streaming video: exponential ON/OFF periods
//                  (mean 500 ms each); during ON, 1200 B frames every 3 ms
//                  (3.2 Mbps on-rate, ~1.6 Mbps mean). tos 0xA0 (AC_VI).
//   * kParetoWeb — heavy-tailed web/elephant traffic: exponential think
//                  time (mean 500 ms), then one Pareto-sized object
//                  (alpha 1.3, 2 KB scale, capped) handed to the MAC as
//                  back-to-back 1460 B packets. tos 0 (AC_BE).
//   * kIotChirp  — sparse telemetry: exponential inter-chirp gap (mean
//                  2 s), each chirp 1-4 packets of 96 B. tos 0x20 (AC_BK).
//
// Determinism: every flow owns a private RNG stream seeded via
// DeriveRunSeed(scenario seed, flow index) at the call site — flows never
// share draws, so adding a station (or reordering construction) cannot
// shift another flow's emission schedule. Station→model assignment is
// index-arithmetic over the mix fractions, with no RNG at all.
#ifndef SRC_SCENARIO_TRAFFIC_MODEL_H_
#define SRC_SCENARIO_TRAFFIC_MODEL_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "src/apps/packet_source.h"
#include "src/sim/random.h"

namespace hacksim {

enum class TrafficModel : uint8_t {
  kCbrVoice = 0,
  kOnOffVideo = 1,
  kParetoWeb = 2,
  kIotChirp = 3,
};

// One row of a scenario's traffic mix: `fraction` of the stations run
// `model`. Fractions are cumulative over station index (deterministic, no
// RNG): with {voice .2, web .8} and 10 stations, stations 0-1 are voice and
// 2-9 web. A shortfall (< 1.0 total) assigns the remainder to the last row.
struct TrafficMixEntry {
  TrafficModel model = TrafficModel::kParetoWeb;
  double fraction = 1.0;
};

// The model station `station` (of `n_stations`) runs under `mix`.
// Precondition: mix is non-empty.
TrafficModel ModelForStation(const std::vector<TrafficMixEntry>& mix,
                             size_t station, size_t n_stations);

// DSCP byte stamped on the model's packets (drives AcForTos at the MAC).
uint8_t TosForModel(TrafficModel model);
const char* TrafficModelName(TrafficModel model);
// Parses "voice" / "video" / "web" / "iot" (the names TrafficModelName
// prints, lowercased); nullopt on anything else.
std::optional<TrafficModel> ParseTrafficModel(std::string_view name);

// A single flow of one model: a self-rescheduling step schedule under the
// PacketSource Start/Stop/Resume contract.
class TrafficSource : public PacketSource {
 public:
  struct Config {
    TrafficModel model = TrafficModel::kParetoWeb;
    SimTime start;
    SimTime stop = SimTime::Max();
    // Per-flow RNG stream seed; pass DeriveRunSeed(scenario_seed, flow_id).
    uint64_t seed = 1;
    // Scales offered load: intervals (CBR spacing, think/off/chirp gaps)
    // divide by this, so 2.0 doubles the mean rate.
    double rate_scale = 1.0;
  };

  TrafficSource(Scheduler* scheduler, Config config, FiveTuple flow,
                std::function<void(Packet)> send);

  void Start() override;

  uint8_t tos() const { return tos_; }

 private:
  // One step of the model's schedule; re-arms itself until stop.
  void Step() override;
  void Restart(SimTime from) override;
  void ArmTick(SimTime at);
  SimTime Scaled(SimTime t) const;

  Config config_;
  Random rng_;
  uint8_t tos_;
  // kOnOffVideo state: end of the current ON burst; zero while OFF.
  SimTime video_on_until_;
};

}  // namespace hacksim

#endif  // SRC_SCENARIO_TRAFFIC_MODEL_H_
