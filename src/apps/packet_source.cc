#include "src/apps/packet_source.h"

#include <algorithm>

namespace hacksim {

PacketSource::PacketSource(Scheduler* scheduler, FiveTuple flow, SimTime stop,
                           std::function<void(Packet)> send)
    : scheduler_(scheduler),
      stop_(stop),
      flow_(flow),
      send_(std::move(send)) {}

void PacketSource::Stop() {
  stop_ = scheduler_->Now();
  ++epoch_;  // the pending step carries the old epoch and dies on arrival
}

void PacketSource::Resume(SimTime at, SimTime stop) {
  ++epoch_;
  stop_ = stop;
  Restart(std::max(at, scheduler_->Now()));
}

void PacketSource::Arm(SimTime at) {
  scheduler_->ScheduleAt(at,
                         [this, epoch = epoch_]() {
                           if (epoch == epoch_) {
                             Step();
                           }
                         },
                         EventClass::kTransportTimer);
}

void PacketSource::Emit(uint32_t payload_bytes, uint8_t tos) {
  Packet p = Packet::MakeUdp(flow_.src_ip, flow_.dst_ip, flow_.src_port,
                             flow_.dst_port, payload_bytes);
  p.mutable_ip().tos = tos;
  p.set_created_at(scheduler_->Now());
  send_(std::move(p));
  ++packets_sent_;
  bytes_sent_ += payload_bytes;
}

}  // namespace hacksim
