// The control contract every per-station packet source shares, so the
// fault-injection engine drives CBR and traffic-model flows through one
// handle.
#ifndef SRC_APPS_PACKET_SOURCE_H_
#define SRC_APPS_PACKET_SOURCE_H_

#include <cstdint>
#include <functional>

#include "src/net/address.h"
#include "src/packet/packet.h"
#include "src/sim/scheduler.h"

namespace hacksim {

// Start() arms the source's emission schedule; Stop() ends it at the current
// instant; Resume(at, stop) arms a fresh schedule from max(at, now). Every
// armed step carries the epoch it was armed in, and Stop()/Resume() bump the
// epoch, so a step stranded by either dies on arrival and stop/resume cycles
// never double the emission rate. Termination: a source arms its next step
// only while an emission is still due strictly before `stop`, so no source
// leaves a no-op step behind at the end of its schedule.
class PacketSource {
 public:
  PacketSource(Scheduler* scheduler, FiveTuple flow, SimTime stop,
               std::function<void(Packet)> send);
  // Armed steps hold `this`.
  PacketSource(const PacketSource&) = delete;
  PacketSource& operator=(const PacketSource&) = delete;
  virtual ~PacketSource() = default;

  virtual void Start() = 0;
  virtual void Stop();
  void Resume(SimTime at, SimTime stop = SimTime::Max());

  uint64_t packets_sent() const { return packets_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }

 protected:
  // Arms Step() at `at` in the current epoch.
  void Arm(SimTime at);
  void Emit(uint32_t payload_bytes, uint8_t tos);

  Scheduler* scheduler_;
  SimTime stop_;

 private:
  // One scheduled step of the source's schedule; it re-arms itself via Arm.
  virtual void Step() = 0;
  // Resume's per-source half: reset schedule state and arm from `from`.
  virtual void Restart(SimTime from) = 0;

  FiveTuple flow_;
  std::function<void(Packet)> send_;
  uint64_t epoch_ = 0;
  uint64_t packets_sent_ = 0;
  uint64_t bytes_sent_ = 0;
};

}  // namespace hacksim

#endif  // SRC_APPS_PACKET_SOURCE_H_
