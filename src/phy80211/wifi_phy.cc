#include "src/phy80211/wifi_phy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/logging.h"

namespace hacksim {

namespace {
// Speed of light, metres per nanosecond.
constexpr double kMetersPerNs = 0.299792458;

// Propagation delay, clamped to >= 1 ns so same-slot transmit decisions at
// two stations are both made against pre-transmission channel state (the
// slotted collision model).
SimTime PropagationDelay(double distance_m) {
  auto prop_ns = static_cast<int64_t>(distance_m / kMetersPerNs);
  return SimTime::Nanos(std::max<int64_t>(prop_ns, 1));
}
}  // namespace

double DistanceMeters(Position a, Position b) {
  double dx = a.x - b.x;
  double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

WifiPhy::WifiPhy(Scheduler* scheduler, Random rng)
    : scheduler_(scheduler),
      rng_(rng),
      loss_model_(std::make_unique<NoLossModel>()) {}

void WifiPhy::AttachTo(WirelessChannel* channel) {
  CHECK(channel_ == nullptr);
  channel_ = channel;
  channel->Attach(this);
}

bool WifiPhy::Send(Ppdu ppdu) {
  CHECK(channel_ != nullptr);
  if (!radio_on_ || transmitting_) {
    ++stats_.tx_dropped_busy;
    return false;
  }
  transmitting_ = true;
  // Half duplex: anything currently arriving is lost.
  for (auto& [id, arrival] : arrivals_) {
    arrival.corrupted = true;
  }
  UpdateCca();
  channel_->Transmit(this, std::move(ppdu));
  return true;
}

void WifiPhy::SetRadioOn(bool on) {
  if (on == radio_on_) {
    return;
  }
  radio_on_ = on;
  if (!on) {
    // Power-down: every in-flight arrival dies with the radio. Their end
    // events are already scheduled; OnArrivalEnd swallows them through the
    // tolerance counter instead of a per-event Cancel.
    dropped_arrival_ends_ += arrivals_.size();
    arrivals_.clear();
    if (transmitting_) {
      ++aborted_tx_ends_;
      transmitting_ = false;
    }
    UpdateCca();
  }
}

void WifiPhy::OnOwnTxEnd(const Ppdu& ppdu) {
  if (!transmitting_) {
    // The transmission was aborted by a radio power-down; the MAC behind
    // this PHY was reset with it, so no listener callback.
    CHECK_GT(aborted_tx_ends_, 0u);
    --aborted_tx_ends_;
    return;
  }
  transmitting_ = false;
  UpdateCca();
  if (listener_ != nullptr) {
    listener_->OnTxEnd(ppdu);
  }
}

void WifiPhy::OnArrivalStart(uint64_t arrival_id, const Ppdu& ppdu,
                             SimTime end, double distance_m,
                             double rx_power_dbm) {
  if (!radio_on_) {
    // Dead receiver: ignore the frame, but remember that its already
    // scheduled end edge will knock on an empty arrivals_ list.
    ++dropped_arrival_ends_;
    return;
  }
  bool capture = channel_->propagation().limits_range();
  Arrival arrival{&ppdu, end, distance_m,
                  /*rx_power_mw=*/capture ? DbmToMw(rx_power_dbm) : 1.0,
                  /*interference_mw=*/0.0,
                  /*corrupted=*/false};
  if (transmitting_) {
    arrival.corrupted = true;
  }
  if (!arrivals_.empty()) {
    if (capture) {
      // SINR capture: overlap is not an automatic death sentence. Every
      // arrival accumulates the other's power as interference (energy is
      // there whether or not the other frame itself survives); the verdict
      // lands at each arrival's end.
      for (auto& [id, other] : arrivals_) {
        other.interference_mw += arrival.rx_power_mw;
        arrival.interference_mw += other.rx_power_mw;
      }
    } else {
      // Legacy fixed-loss rule: overlap corrupts both, no capture.
      arrival.corrupted = true;
      for (auto& [id, other] : arrivals_) {
        other.corrupted = true;
      }
    }
  }
  arrivals_.emplace_back(arrival_id, std::move(arrival));
  UpdateCca();
}

void WifiPhy::OnArrivalEnd(uint64_t arrival_id) {
  auto it = std::find_if(arrivals_.begin(), arrivals_.end(),
                         [arrival_id](const auto& entry) {
                           return entry.first == arrival_id;
                         });
  if (it == arrivals_.end()) {
    // An arrival cleared by a radio power-down, or one that began while
    // the radio was off: its end edge is expected exactly once.
    CHECK_GT(dropped_arrival_ends_, 0u)
        << "arrival end for an id the PHY never saw";
    --dropped_arrival_ends_;
    return;
  }
  Arrival arrival = std::move(it->second);
  arrivals_.erase(it);
  UpdateCca();
  if (listener_ == nullptr) {
    return;
  }
  if (arrival.corrupted) {
    listener_->OnRxCorrupted();
    return;
  }
  // SINR capture (range-limited propagation only): the frame survives the
  // energy that overlapped it iff its SINR clears the mode's capture
  // threshold. On the fixed-loss channel an overlapped arrival is already
  // corrupted above, so this block is never reached with interference.
  const PropagationModel& prop = channel_->propagation();
  if (prop.limits_range() && arrival.interference_mw > 0.0) {
    double sinr_db =
        MwToDbm(arrival.rx_power_mw) -
        MwToDbm(prop.noise_floor_mw() + arrival.interference_mw);
    if (sinr_db < prop.CaptureSinrDb(arrival.ppdu->mode)) {
      ++stats_.overlap_losses;
      listener_->OnRxCorrupted();
      return;
    }
    ++stats_.captures;
  }
  // Channel-noise loss per MPDU. For A-MPDUs each subframe has its own FCS
  // and fails independently; for single MPDUs there is just one draw.
  const Ppdu& ppdu = *arrival.ppdu;
  mpdu_ok_.assign(ppdu.mpdus.size(), false);
  bool any_ok = false;
  for (size_t i = 0; i < ppdu.mpdus.size(); ++i) {
    size_t bytes = ppdu.mpdus[i].SizeBytes();
    bool corrupt = loss_model_->ShouldCorrupt(ppdu.mode, bytes,
                                              arrival.distance_m, rng_);
    mpdu_ok_[i] = !corrupt;
    any_ok = any_ok || !corrupt;
  }
  if (!any_ok) {
    listener_->OnRxCorrupted();
    return;
  }
  listener_->OnPpduReceived(ppdu, mpdu_ok_);
}

void WifiPhy::UpdateCca() {
  bool busy = IsCcaBusy();
  if (busy == cca_busy_reported_) {
    return;
  }
  cca_busy_reported_ = busy;
  if (listener_ == nullptr) {
    return;
  }
  if (busy) {
    listener_->OnCcaBusy();
  } else {
    listener_->OnCcaIdle();
  }
}

void WirelessChannel::Attach(WifiPhy* phy) {
  CHECK(std::find(phys_.begin(), phys_.end(), phy) == phys_.end())
      << "PHY attached twice: every PPDU would be delivered to it twice";
  CHECK(!propagation_->limits_range() || phy->has_position())
      << "range-limited propagation needs an explicit position on every "
         "PHY: an unpositioned node would silently co-locate with the "
         "origin (set_position before Attach, or keep the fixed-loss model)";
  phys_.push_back(phy);
}

void WirelessChannel::set_propagation(std::unique_ptr<PropagationModel> model) {
  CHECK(model != nullptr);
  if (model->limits_range()) {
    for (WifiPhy* phy : phys_) {
      CHECK(phy->has_position())
          << "range-limited propagation needs an explicit position on every "
             "attached PHY: an unpositioned node would silently co-locate "
             "with the origin";
    }
  }
  propagation_ = std::move(model);
}

void WirelessChannel::Transmit(WifiPhy* sender, Ppdu ppdu) {
  ppdu.ppdu_id = next_ppdu_id_++;
  SimTime duration = ppdu.Duration();
  SimTime now = scheduler_->Now();

  // Airtime ledger.
  ++airtime_.ppdus;
  switch (ppdu.first().type) {
    case WifiFrameType::kData:
      airtime_.data_ns += duration.ns();
      break;
    case WifiFrameType::kAck:
    case WifiFrameType::kBlockAck:
      airtime_.ack_ns += duration.ns();
      break;
    case WifiFrameType::kBlockAckReq:
      airtime_.bar_ns += duration.ns();
      break;
    case WifiFrameType::kRts:
    case WifiFrameType::kCts:
    case WifiFrameType::kCfEnd:
      airtime_.rts_cts_ns += duration.ns();
      break;
  }
  if (active_transmissions_ > 0) {
    ++airtime_.collisions;
    if (active_transmissions_ == 1) {
      overlap_started_ = now;
    }
  }
  ++active_transmissions_;
  scheduler_->ScheduleAt(
      now + duration,
      [this]() {
        --active_transmissions_;
        if (active_transmissions_ == 1) {
          // Overlap period ends when concurrency drops back to one.
          airtime_.collision_ns += (scheduler_->Now() - overlap_started_).ns();
        }
      },
      EventClass::kChannel);

  // One shared copy of the payload for all receivers and the sender's
  // tx-end callback.
  PpduRef shared = std::make_shared<const Ppdu>(std::move(ppdu));
  if (mode_ == ChannelDeliveryMode::kBatched) {
    TransmitBatched(sender, shared, now, duration);
  } else {
    TransmitPerPhy(sender, shared, now, duration);
  }
  scheduler_->ScheduleAt(
      now + duration, [sender, shared]() { sender->OnOwnTxEnd(*shared); },
      EventClass::kChannel);
}

// Reference semantics: two events per attached PHY, scheduled in attach
// order. The batched path below must stay observably identical to this.
void WirelessChannel::TransmitPerPhy(WifiPhy* sender, PpduRef ppdu,
                                     SimTime now, SimTime duration) {
  bool ranged = propagation_->limits_range();
  for (WifiPhy* phy : phys_) {
    if (phy == sender) {
      continue;
    }
    double distance = DistanceMeters(sender->position(), phy->position());
    double rx_dbm = ranged ? propagation_->RxPowerDbm(distance) : 0.0;
    if (ranged && !propagation_->Detectable(rx_dbm)) {
      // Below the energy-detection threshold: the receiver sees nothing at
      // all — no decode, no CCA energy. This is the hidden-terminal
      // condition, and it also means no scheduler events for the pair.
      ++airtime_.out_of_range;
      continue;
    }
    SimTime prop = PropagationDelay(distance);
    uint64_t arrival_id = next_arrival_id_++;
    scheduler_->ScheduleAt(
        now + prop,
        [phy, arrival_id, ppdu = ppdu.get(), end = now + prop + duration,
         distance, rx_dbm]() {
          phy->OnArrivalStart(arrival_id, *ppdu, end, distance, rx_dbm);
        },
        EventClass::kChannel);
    // The end event owns a reference: the PHY's arrival points into the
    // PPDU until this edge has run.
    scheduler_->ScheduleAt(
        now + prop + duration,
        [phy, arrival_id, ppdu]() { phy->OnArrivalEnd(arrival_id); },
        EventClass::kChannel);
  }
}

// Batched delivery: one event per distinct arrival-edge nanosecond, all
// scheduled up-front at transmit time. Three properties make this
// bit-identical to TransmitPerPhy:
//   1. Edge times are computed with the same per-pair formula, so nothing
//      moves in time.
//   2. Within a group, edges run in attach order — the order the per-PHY
//      events would have been popped. The stable counting sort below keeps
//      attach order inside each nanosecond bucket, and the start-before-end
//      CHECK guarantees no group mixes start and end edges.
//   3. Groups are scheduled now, starts then ends, each in time order,
//      between the airtime event and the sender's tx-end event, so
//      same-nanosecond FIFO ordering against *other* PPDUs' events (and the
//      sender's own) is unchanged.
void WirelessChannel::TransmitBatched(WifiPhy* sender, PpduRef ppdu,
                                      SimTime now, SimTime duration) {
  bool ranged = propagation_->limits_range();
  uint64_t id_base = next_arrival_id_;
  next_arrival_id_ += phys_.size();
  in_range_.clear();
  int64_t min_prop = std::numeric_limits<int64_t>::max();
  int64_t max_prop = 0;
  for (size_t idx = 0; idx < phys_.size(); ++idx) {
    WifiPhy* phy = phys_[idx];
    if (phy == sender) {
      continue;
    }
    double distance = DistanceMeters(sender->position(), phy->position());
    double rx_dbm = ranged ? propagation_->RxPowerDbm(distance) : 0.0;
    if (ranged && !propagation_->Detectable(rx_dbm)) {
      // Same pruning rule as TransmitPerPhy (the equivalence tests cover
      // the ranged paths too): the receiver sees nothing.
      ++airtime_.out_of_range;
      continue;
    }
    int64_t prop = PropagationDelay(distance).ns();
    min_prop = std::min(min_prop, prop);
    max_prop = std::max(max_prop, prop);
    in_range_.push_back(
        {{phy, static_cast<uint32_t>(idx), distance, rx_dbm}, prop});
  }
  if (in_range_.empty()) {
    return;
  }
  CHECK_LT(max_prop - min_prop, duration.ns())
      << "batched delivery needs every arrival start of a PPDU before every "
         "arrival end: the receivers' propagation-delay spread must be "
         "shorter than the PPDU's airtime";

  // Stable counting sort on the delay offset: count, exclusive prefix sum
  // (one group per occupied bucket), then scatter in attach order.
  auto buckets = static_cast<size_t>(max_prop - min_prop) + 1;
  bucket_counts_.assign(buckets, 0);
  size_t occupied = 0;
  for (const auto& [slot, prop] : in_range_) {
    uint32_t& count = bucket_counts_[static_cast<size_t>(prop - min_prop)];
    occupied += count == 0 ? 1 : 0;
    ++count;
  }
  auto d = std::make_unique<Delivery>();
  d->ppdu = std::move(ppdu);
  d->duration = duration;
  d->arrival_id_base = id_base;
  d->slots.resize(in_range_.size());
  d->groups.reserve(occupied);
  uint32_t next = 0;
  for (size_t b = 0; b < buckets; ++b) {
    uint32_t count = bucket_counts_[b];
    if (count == 0) {
      continue;
    }
    d->groups.push_back(
        {next, now + SimTime::Nanos(min_prop + static_cast<int64_t>(b))});
    bucket_counts_[b] = next;
    next += count;
  }
  for (const auto& [slot, prop] : in_range_) {
    d->slots[bucket_counts_[static_cast<size_t>(prop - min_prop)]++] = slot;
  }

  Delivery* record = d.get();
  size_t last = record->groups.size() - 1;
  for (size_t g = 0; g <= last; ++g) {
    scheduler_->ScheduleAt(
        record->groups[g].start, [record, g]() { record->Start(g); },
        EventClass::kChannel);
  }
  for (size_t g = 0; g < last; ++g) {
    scheduler_->ScheduleAt(
        record->groups[g].start + duration,
        [record, g]() { record->End(g); }, EventClass::kChannel);
  }
  // The final end group fires after every other event of this PPDU, so it
  // owns the record; destroying the event frees it and its PPDU reference.
  scheduler_->ScheduleAt(
      record->groups[last].start + duration,
      [d = std::move(d), last]() { d->End(last); }, EventClass::kChannel);
}

void WirelessChannel::Delivery::Start(size_t g) const {
  SimTime end = groups[g].start + duration;
  for (uint32_t i = groups[g].begin; i < GroupEnd(g); ++i) {
    const ReceiverSlot& s = slots[i];
    s.phy->OnArrivalStart(arrival_id_base + s.attach_idx, *ppdu, end,
                          s.distance_m, s.rx_power_dbm);
  }
}

void WirelessChannel::Delivery::End(size_t g) const {
  for (uint32_t i = groups[g].begin; i < GroupEnd(g); ++i) {
    const ReceiverSlot& s = slots[i];
    s.phy->OnArrivalEnd(arrival_id_base + s.attach_idx);
  }
}

}  // namespace hacksim
