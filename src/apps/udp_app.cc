#include "src/apps/udp_app.h"

#include <algorithm>

#include "src/util/logging.h"

namespace hacksim {

UdpCbrSource::UdpCbrSource(Scheduler* scheduler, Config config,
                           FiveTuple flow, std::function<void(Packet)> send)
    : PacketSource(scheduler, flow, config.stop, std::move(send)),
      start_(config.start),
      payload_bytes_(config.payload_bytes) {
  double bits_per_packet = config.payload_bytes * 8.0;
  interval_ = SimTime::FromSecondsF(bits_per_packet / config.rate_bps);
  CHECK_GT(interval_.ns(), 0);
  CHECK_GE(config.burst_window.ns(), 0);
  uint64_t fit = static_cast<uint64_t>(config.burst_window.ns()) /
                 static_cast<uint64_t>(interval_.ns());
  auto burst = std::clamp<uint64_t>(fit, 1, kMaxBurstPackets);
  period_ = interval_ * static_cast<int>(burst);
}

void UdpCbrSource::Start() { Restart(start_); }

void UdpCbrSource::Restart(SimTime from) {
  next_emit_ = from;
  if (next_emit_ < stop_) {
    Arm(from);
  }
}

void UdpCbrSource::Stop() {
  PacketSource::Stop();
  // Strict <: a tick at exactly the stop instant dies (fault events are
  // scheduled ahead of same-nanosecond refills).
  while (next_emit_ < stop_) {
    Emit(payload_bytes_, /*tos=*/0);
    next_emit_ = next_emit_ + interval_;
  }
  next_emit_ = SimTime::Max();
}

void UdpCbrSource::Step() {
  SimTime now = scheduler_->Now();
  while (next_emit_ <= now && next_emit_ < stop_) {
    Emit(payload_bytes_, /*tos=*/0);
    next_emit_ = next_emit_ + interval_;
  }
  if (next_emit_ < stop_) {
    Arm(std::min(now + period_, stop_));
  }
}

void UdpSink::OnPacket(const Packet& packet) {
  if (!packet.has_udp()) {
    return;
  }
  bytes_received_ += packet.payload_bytes();
  tracker_.OnBytesDelivered(scheduler_->Now(), packet.payload_bytes());
  if (latency_ != nullptr) {
    SimTime delay = scheduler_->Now() - packet.created_at();
    uint8_t ac = packet.has_ip() ? AcForTos(packet.ip().tos) : kAcBe;
    latency_->Record(ac, delay);
    if (has_last_delay_) {
      SimTime delta = delay >= last_delay_ ? delay - last_delay_
                                           : last_delay_ - delay;
      latency_->RecordJitter(ac, delta);
    }
    last_delay_ = delay;
    has_last_delay_ = true;
  }
}

}  // namespace hacksim
