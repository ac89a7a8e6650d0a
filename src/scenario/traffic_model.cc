#include "src/scenario/traffic_model.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace hacksim {
namespace {

// --- model constants (pinned by traffic_model_test goldens) -------------------

// Voice: G.711 over RTP — 160 B payload every 20 ms = 64 kbps.
constexpr uint32_t kVoiceBytes = 160;
constexpr SimTime kVoiceInterval = SimTime::Millis(20);

// Video: 1200 B frames every 3 ms while ON (3.2 Mbps); exponential ON/OFF
// with 500 ms means, so the long-run offered load is ~1.6 Mbps.
constexpr uint32_t kVideoBytes = 1200;
constexpr SimTime kVideoFrameInterval = SimTime::Millis(3);
constexpr double kVideoOnMeanSec = 0.5;
constexpr double kVideoOffMeanSec = 0.5;

// Web: exponential think time (500 ms mean), then one Pareto-sized object
// (alpha 1.3, scale 2 KB, capped at 256 KB to bound the single-event burst)
// emitted as back-to-back MTU-sized packets.
constexpr double kWebThinkMeanSec = 0.5;
constexpr double kWebParetoAlpha = 1.3;
constexpr double kWebObjectScaleBytes = 2048.0;
constexpr double kWebObjectCapBytes = 256.0 * 1024.0;
constexpr uint32_t kWebPacketBytes = 1460;

// IoT: exponential inter-chirp gap (2 s mean), 1-4 packets of 96 B each.
constexpr double kIotGapMeanSec = 2.0;
constexpr uint32_t kIotBytes = 96;
constexpr uint32_t kIotMaxPacketsPerChirp = 4;

}  // namespace

TrafficModel ModelForStation(const std::vector<TrafficMixEntry>& mix,
                             size_t station, size_t n_stations) {
  CHECK(!mix.empty());
  double cumulative = 0.0;
  for (const TrafficMixEntry& entry : mix) {
    cumulative += entry.fraction;
    // Boundary after this row: llround keeps {.2, .8} × 10 at exactly 2/8.
    auto boundary = static_cast<size_t>(std::llround(
        cumulative * static_cast<double>(n_stations)));
    if (station < boundary) {
      return entry.model;
    }
  }
  return mix.back().model;  // fractions fell short of 1.0: last row absorbs
}

uint8_t TosForModel(TrafficModel model) {
  switch (model) {
    case TrafficModel::kCbrVoice:
      return 0xC0;  // precedence 6 -> AC_VO
    case TrafficModel::kOnOffVideo:
      return 0xA0;  // precedence 5 -> AC_VI
    case TrafficModel::kParetoWeb:
      return 0x00;  // best effort
    case TrafficModel::kIotChirp:
      return 0x20;  // precedence 1 -> AC_BK
  }
  return 0x00;
}

const char* TrafficModelName(TrafficModel model) {
  switch (model) {
    case TrafficModel::kCbrVoice:
      return "voice";
    case TrafficModel::kOnOffVideo:
      return "video";
    case TrafficModel::kParetoWeb:
      return "web";
    case TrafficModel::kIotChirp:
      return "iot";
  }
  return "?";
}

std::optional<TrafficModel> ParseTrafficModel(std::string_view name) {
  if (name == "voice") {
    return TrafficModel::kCbrVoice;
  }
  if (name == "video") {
    return TrafficModel::kOnOffVideo;
  }
  if (name == "web") {
    return TrafficModel::kParetoWeb;
  }
  if (name == "iot") {
    return TrafficModel::kIotChirp;
  }
  return std::nullopt;
}

TrafficSource::TrafficSource(Scheduler* scheduler, Config config,
                             FiveTuple flow, std::function<void(Packet)> send)
    : PacketSource(scheduler, flow, config.stop, std::move(send)),
      config_(config),
      rng_(config.seed),
      tos_(TosForModel(config.model)) {
  CHECK_GT(config_.rate_scale, 0.0);
}

SimTime TrafficSource::Scaled(SimTime t) const {
  if (config_.rate_scale == 1.0) {
    return t;
  }
  return SimTime::Nanos(static_cast<int64_t>(
      static_cast<double>(t.ns()) / config_.rate_scale));
}

void TrafficSource::Start() {
  SimTime first = config_.start;
  switch (config_.model) {
    case TrafficModel::kCbrVoice:
      // Random initial phase inside one frame interval, so a cell of voice
      // flows does not tick in lockstep.
      first = first + SimTime::Nanos(static_cast<int64_t>(
                          rng_.NextBounded(Scaled(kVoiceInterval).ns())));
      break;
    case TrafficModel::kOnOffVideo:
    case TrafficModel::kParetoWeb:
    case TrafficModel::kIotChirp:
      break;
  }
  ArmTick(first);
}

void TrafficSource::Restart(SimTime from) {
  video_on_until_ = SimTime::Zero();
  ArmTick(from);
}

void TrafficSource::ArmTick(SimTime at) {
  if (at < stop_) {
    Arm(at);
  }
}

void TrafficSource::Step() {
  SimTime now = scheduler_->Now();
  switch (config_.model) {
    case TrafficModel::kCbrVoice: {
      Emit(kVoiceBytes, tos_);
      ArmTick(now + Scaled(kVoiceInterval));
      return;
    }
    case TrafficModel::kOnOffVideo: {
      if (now >= video_on_until_) {
        // Entering a fresh ON burst: draw its length now, first frame goes
        // out immediately.
        video_on_until_ =
            now + Scaled(SimTime::FromSecondsF(
                      rng_.NextExponential(kVideoOnMeanSec)));
      }
      Emit(kVideoBytes, tos_);
      SimTime next = now + kVideoFrameInterval;
      if (next >= video_on_until_) {
        // Burst over: go silent for an exponential OFF period.
        video_on_until_ = SimTime::Zero();
        next = now + Scaled(SimTime::FromSecondsF(
                         rng_.NextExponential(kVideoOffMeanSec)));
      }
      ArmTick(next);
      return;
    }
    case TrafficModel::kParetoWeb: {
      // Pareto via inverse transform: size = scale * U^(-1/alpha).
      double u = rng_.NextDouble();
      if (u <= 0.0) {
        u = 1e-12;  // NextDouble is [0,1); guard the pole
      }
      double size = kWebObjectScaleBytes *
                    std::pow(u, -1.0 / kWebParetoAlpha);
      size = std::min(size, kWebObjectCapBytes);
      auto remaining = static_cast<uint64_t>(size);
      // The whole object lands in the MAC queue in one event — an upstream
      // bulk handoff; drop-tail back-pressure is part of the workload.
      while (remaining > 0) {
        uint32_t chunk = static_cast<uint32_t>(
            std::min<uint64_t>(remaining, kWebPacketBytes));
        Emit(chunk, tos_);
        remaining -= chunk;
      }
      ArmTick(now + Scaled(SimTime::FromSecondsF(
                       rng_.NextExponential(kWebThinkMeanSec))));
      return;
    }
    case TrafficModel::kIotChirp: {
      uint64_t burst = 1 + rng_.NextBounded(kIotMaxPacketsPerChirp);
      for (uint64_t i = 0; i < burst; ++i) {
        Emit(kIotBytes, tos_);
      }
      ArmTick(now + Scaled(SimTime::FromSecondsF(
                       rng_.NextExponential(kIotGapMeanSec))));
      return;
    }
  }
}

}  // namespace hacksim
