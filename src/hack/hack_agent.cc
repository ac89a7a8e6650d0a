#include "src/hack/hack_agent.h"

#include <algorithm>

#include "src/tcp/tcp_common.h"
#include "src/util/logging.h"

namespace hacksim {

HackAgent::HackAgent(Scheduler* scheduler, WifiMac* mac,
                     HackAgentConfig config)
    : scheduler_(scheduler), mac_(mac), config_(config) {
  mac_->set_hack_hooks(this);
  mac_->on_mpdu_delivered = [this](const Packet& packet, MacAddress dest) {
    OnMpduDelivered(packet, dest);
  };
}

// --- client role -----------------------------------------------------------------

bool HackAgent::ShouldHoldAcks(const PeerState& ps) const {
  switch (config_.variant) {
    case HackVariant::kOff:
      return false;
    case HackVariant::kMoreData:
      return ps.more_data_latched;
    case HackVariant::kOpportunistic:
      return true;  // always stage; the vanilla copy races in parallel
    case HackVariant::kExplicitTimer:
      return true;  // always stage; the timer bounds the delay
    case HackVariant::kTimestampEcho:
      // Hold while an unechoed timestamp implies our ACKs are still in
      // flight to the sender and more data should follow (§5).
      return ps.echo_outstanding;
  }
  return false;
}

bool HackAgent::OfferOutgoingPacket(Packet&& packet, MacAddress dest) {
  if (config_.variant == HackVariant::kOff || !packet.IsPureTcpAck()) {
    return false;
  }
  PeerState& ps = peers_[dest];
  FiveTuple flow = packet.Flow();

  bool hold = ShouldHoldAcks(ps) && ContextEstablished(flow);
  if (!hold) {
    SendVanilla(std::move(packet), dest);
    return true;  // we enqueued it ourselves
  }

  RohcCompressor::Result compressed = compressor_.Compress(packet);
  if (compressed.bytes.empty()) {
    // CID collision or inexpressible options: this flow stays vanilla.
    SendVanilla(std::move(packet), dest);
    return true;
  }

  StagedAck staged;
  staged.flow = flow;
  staged.compressed = std::move(compressed.bytes);
  staged.ready_at = scheduler_->Now() + config_.staging_latency;
  ++stats_.unique_compressed_acks;
  stats_.unique_compressed_bytes += staged.compressed.size();

  if (config_.variant == HackVariant::kOpportunistic) {
    // Stage *and* enqueue vanilla: whichever transmission happens first
    // wins. The vanilla copy is pulled from the MAC queue if the compressed
    // copy rides an LL ACK first.
    staged.vanilla_uid = packet.uid();
    staged.original = packet;  // deliberate copy: the original races vanilla
    ps.staged.push_back(std::move(staged));
    return false;  // caller enqueues the vanilla copy
  }

  std::optional<TcpTimestamps> timestamps = packet.tcp().timestamps;
  staged.original = std::move(packet);
  ps.staged.push_back(std::move(staged));
  if (config_.ack_policy.enabled()) {
    HoldStagedAck(dest, ps);
  }
  if (config_.variant == HackVariant::kExplicitTimer ||
      config_.variant == HackVariant::kTimestampEcho) {
    ArmFlushTimer(dest, ps);
  }
  if (timestamps.has_value()) {
    ps.last_released_tsval = timestamps->tsval;
    ps.echo_outstanding = true;
  }
  return true;
}

void HackAgent::HoldStagedAck(MacAddress dest, PeerState& ps) {
  ps.staged.back().held = true;
  ++ps.held_count;
  if (config_.ack_policy.flush_count > 0 &&
      ps.held_count >= config_.ack_policy.flush_count) {
    ReleaseHeld(ps, &stats_.batch_flush_count);
    return;
  }
  if (ps.batch_timer == kInvalidEventId) {
    // One coalesced deadline for the whole batch, armed by its first entry
    // (the PR 8 idiom): later holds ride the pending timer, and any release
    // cancels it, so a batch costs at most one scheduler event.
    ps.batch_timer = scheduler_->ScheduleIn(
        config_.ack_policy.flush_window,
        [this, dest]() {
          PeerState& state = peers_[dest];
          state.batch_timer = kInvalidEventId;
          ReleaseHeld(state, &stats_.batch_flush_window);
        },
        EventClass::kTransportTimer);
  }
}

void HackAgent::ReleaseHeld(PeerState& ps, uint64_t* cause) {
  if (ps.batch_timer != kInvalidEventId) {
    scheduler_->Cancel(ps.batch_timer);
    ps.batch_timer = kInvalidEventId;
  }
  if (ps.held_count == 0) {
    return;
  }
  for (StagedAck& s : ps.staged) {
    s.held = false;
  }
  stats_.batched_acks += ps.held_count;
  ++stats_.ack_batches;
  ++*cause;
  ps.held_count = 0;
}

void HackAgent::NoteHeldEvicted(PeerState& ps, size_t evicted) {
  if (evicted == 0 || ps.held_count == 0) {
    return;
  }
  ps.held_count -= std::min(ps.held_count, evicted);
  if (ps.held_count == 0 && ps.batch_timer != kInvalidEventId) {
    scheduler_->Cancel(ps.batch_timer);
    ps.batch_timer = kInvalidEventId;
  }
}

void HackAgent::SendVanilla(Packet&& packet, MacAddress dest) {
  PeerState& ps = peers_[dest];
  FiveTuple flow = packet.Flow();
  // Fig 7: going vanilla invalidates any compressed state for the flow; the
  // cumulative ACK we are about to send supersedes the retained ones.
  FlushFlowState(ps, flow, dest);
  compressor_.ForceRefresh(flow);
  ++stats_.vanilla_acks_sent;
  stats_.vanilla_ack_bytes += packet.SizeBytes();
  if (packet.tcp().timestamps.has_value()) {
    ps.last_released_tsval = packet.tcp().timestamps->tsval;
    ps.echo_outstanding = true;
  }
  mac_->Enqueue(std::move(packet), dest);
}

void HackAgent::FlushFlowState(PeerState& ps, const FiveTuple& flow,
                               MacAddress dest) {
  // Retained records rode an LL ACK already; the newer cumulative ACK that
  // triggered this flush supersedes them (Fig 7), so they are dropped.
  size_t before = ps.retained.size();
  ps.retained.erase(
      std::remove_if(ps.retained.begin(), ps.retained.end(),
                     [&](const StagedAck& s) { return s.flow == flow; }),
      ps.retained.end());
  size_t dropped = before - ps.retained.size();

  // Staged records were never transmitted. They must be demoted to vanilla
  // MPDUs — in order, ahead of the triggering ACK — because dupacks among
  // them carry the count that drives the sender's fast retransmit (§6).
  std::vector<StagedAck> demote;
  size_t held_evicted = 0;
  for (auto it = ps.staged.begin(); it != ps.staged.end();) {
    if (it->flow == flow) {
      if (it->held) {
        ++held_evicted;
      }
      demote.push_back(std::move(*it));
      it = ps.staged.erase(it);
    } else {
      ++it;
    }
  }
  NoteHeldEvicted(ps, held_evicted);
  for (StagedAck& s : demote) {
    ++stats_.vanilla_acks_sent;
    stats_.vanilla_ack_bytes += s.original.SizeBytes();
    mac_->Enqueue(std::move(s.original), dest);
  }
  size_t flushed = dropped + demote.size();
  if (flushed > 0) {
    stats_.flushed_to_vanilla += flushed;
    compressor_.ForceRefresh(flow);
  }
}

void HackAgent::FlushAllToVanilla(MacAddress dest, PeerState& ps) {
  // Everything staged leaves, held or not; the batch state resets wholesale.
  NoteHeldEvicted(ps, ps.held_count);
  // Demote staged (never-sent) compressed ACKs to vanilla MPDUs. Only the
  // newest cumulative ACK per flow plus any dupacks are worth sending;
  // older cumulative ACKs are superseded.
  std::vector<StagedAck> all;
  all.reserve(ps.staged.size());
  for (auto& s : ps.staged) {
    all.push_back(std::move(s));
  }
  ps.staged.clear();
  if (all.empty()) {
    return;
  }
  // Any retained records for the demoted flows must be discarded: the
  // vanilla ACKs below will re-anchor the AP's decompressor, after which a
  // retained replay would desync the delta chain. Cumulative ACK semantics
  // make the drop safe (the demoted ACKs are newer).
  for (const StagedAck& s : all) {
    ps.retained.erase(
        std::remove_if(ps.retained.begin(), ps.retained.end(),
                       [&](const StagedAck& r) { return r.flow == s.flow; }),
        ps.retained.end());
  }
  // Newest cumulative ACK per flow.
  std::unordered_map<FiveTuple, uint32_t, FiveTupleHash> newest;
  for (const StagedAck& s : all) {
    uint32_t ack = s.original.tcp().ack;
    auto [it, inserted] = newest.emplace(s.flow, ack);
    if (!inserted && Seq32Gt(ack, it->second)) {
      it->second = ack;
    }
  }
  std::unordered_set<FiveTuple, FiveTupleHash> refreshed;
  for (StagedAck& s : all) {
    if (refreshed.insert(s.flow).second) {
      compressor_.ForceRefresh(s.flow);
    }
    uint32_t ack = s.original.tcp().ack;
    bool is_newest = ack == newest[s.flow];
    bool is_dupack_with_sack = !s.original.tcp().sack_blocks.empty();
    if (!is_newest && !is_dupack_with_sack) {
      ++stats_.flushed_to_vanilla;
      continue;  // superseded by the newest cumulative ACK
    }
    ++stats_.vanilla_acks_sent;
    stats_.vanilla_ack_bytes += s.original.SizeBytes();
    ++stats_.flushed_to_vanilla;
    mac_->Enqueue(std::move(s.original), dest);
  }
}

void HackAgent::ArmFlushTimer(MacAddress dest, PeerState& ps) {
  if (ps.flush_timer != kInvalidEventId) {
    return;
  }
  ps.flush_timer = scheduler_->ScheduleIn(
      config_.explicit_timer,
      [this, dest]() {
        PeerState& state = peers_[dest];
        state.flush_timer = kInvalidEventId;
        FlushAllToVanilla(dest, state);
      },
      EventClass::kTransportTimer);
}

void HackAgent::OnMpduDelivered(const Packet& packet, MacAddress dest) {
  if (!packet.IsPureTcpAck()) {
    return;
  }
  // A vanilla TCP ACK reached the AP: its driver snooped it, so the ROHC
  // context now exists there.
  established_flows_.insert(packet.Flow());
  if (config_.variant == HackVariant::kOpportunistic) {
    // The vanilla copy won the race. If it moved the AP's context forward,
    // it re-anchored it there and dropped the MSN anchor and the learned ack
    // stride (RohcDecompressor::NoteVanillaAck), so a record compressed
    // against the old context would be decoded against the new one. Withdraw
    // the flow's retained records that this cumulative ACK supersedes (ack
    // not above it, Fig 7), whichever copy won their own race, and every
    // staged one (a newer record may lean on the stride; its own vanilla
    // copy is still queued). The ForceRefresh below makes the flow's next
    // record a refresh.
    PeerState& ps = peers_[dest];
    const FiveTuple flow = packet.Flow();
    const uint32_t ack = packet.tcp().ack;
    auto withdraw = [&](std::deque<StagedAck>& dq, auto withdrawn) {
      size_t before = dq.size();
      dq.erase(std::remove_if(dq.begin(), dq.end(),
                              [&](const StagedAck& s) {
                                return s.flow == flow && withdrawn(s);
                              }),
               dq.end());
      stats_.withdrawn_vanilla_won += before - dq.size();
    };
    withdraw(ps.retained, [ack](const StagedAck& s) {
      return !Seq32Gt(s.original.tcp().ack, ack);
    });
    withdraw(ps.staged, [](const StagedAck&) { return true; });
    ++stats_.vanilla_acks_sent;
    stats_.vanilla_ack_bytes += packet.SizeBytes();
    compressor_.ForceRefresh(packet.Flow());
  }
}

// --- hooks from the MAC ---------------------------------------------------------

void HackAgent::OnDataPpdu(MacAddress from, bool aggregated,
                           bool has_new_mpdu, bool more_data, bool sync) {
  if (config_.variant == HackVariant::kOff) {
    return;
  }
  PeerState& ps = peers_[from];
  ps.more_data_latched = more_data;

  if (!more_data && config_.ack_policy.enabled() &&
      config_.ack_policy.flush_on_more_data_edge) {
    // End of the peer's burst: no further reverse frame is coming to ride,
    // so the batch releases now — OnDataPpdu runs before the SIFS-delayed
    // BuildAckPayload, which means the released set boards the *final*
    // LL ACK of the burst instead of stranding until the window expires.
    ReleaseHeld(ps, &stats_.batch_flush_edge);
  }

  if (!more_data) {
    // Last expected batch: whatever the upcoming LL ACK cannot carry
    // (payload cap, ready race) has no further ride and must fall back to
    // normal transmission (Fig 4's "re-enqueue for normal transmission").
    // Give the LL ACK a moment to take what fits, then demote the rest.
    scheduler_->ScheduleIn(
        SimTime::Millis(1),
        [this, from]() {
          PeerState& state = peers_[from];
          if (!state.more_data_latched && !state.staged.empty()) {
            FlushAllToVanilla(from, state);
          }
        },
        EventClass::kTransportTimer);
  }

  if (sync) {
    // AP gave up on Block ACK Requests and moved on; it never received our
    // retained compressed ACKs — keep them for the next LL ACK (Fig 8).
    return;
  }
  // Implicit confirmation (§3.4, Fig 5): for A-MPDUs, *any* subsequent
  // batch confirms our previous Block ACK arrived; for single MPDUs, only a
  // *new* (higher-sequence) MPDU does — the same sequence number means our
  // ACK was lost and the AP is retransmitting.
  bool confirmed = aggregated ? true : has_new_mpdu;
  if (confirmed && !ps.retained.empty()) {
    ps.retained.clear();
  }
}

std::vector<uint8_t> HackAgent::BuildAckPayload(MacAddress to) {
  if (config_.variant == HackVariant::kOff) {
    return {};
  }
  PeerState& ps = peers_[to];
  SimTime now = scheduler_->Now();

  std::vector<std::vector<uint8_t>> records;
  size_t bytes = 1;  // envelope count byte
  bool anything_not_ready = false;

  // Retained first: reliability re-sends (identical bytes, deduped by MSN
  // at the AP).
  size_t retained_count = 0;
  for (const StagedAck& s : ps.retained) {
    if (bytes + s.compressed.size() > config_.max_payload_bytes) {
      break;
    }
    bytes += s.compressed.size();
    records.push_back(s.compressed);
    ++retained_count;
  }
  if (retained_count > 0) {
    stats_.retained_resends += retained_count;
  }

  // Then staged ACKs whose DMA latency has elapsed (the Fig 3/4 ready gate).
  size_t promoted = 0;
  for (const StagedAck& s : ps.staged) {
    if (s.held) {
      // Held-back suffix: the aggregation policy has not released these, so
      // they are not eligible for this LL ACK (and do not count as a ready
      // race — nothing about the NIC made them miss the ride).
      break;
    }
    if (s.ready_at > now) {
      anything_not_ready = true;
      break;  // staging is FIFO; later entries are not ready either
    }
    if (bytes + s.compressed.size() > config_.max_payload_bytes) {
      break;
    }
    bytes += s.compressed.size();
    records.push_back(s.compressed);
    ++promoted;
  }

  if (records.empty()) {
    if (anything_not_ready) {
      ++stats_.ready_race_fallbacks;
    }
    return {};
  }

  // Move the promoted staged entries into the retained list.
  for (size_t i = 0; i < promoted; ++i) {
    StagedAck s = std::move(ps.staged.front());
    ps.staged.pop_front();
    if (config_.variant == HackVariant::kOpportunistic &&
        s.vanilla_uid != 0) {
      // Withdraw the racing vanilla copy if it has not been sent yet.
      uint64_t uid = s.vanilla_uid;
      mac_->RemoveQueued(
          to, [uid](const Packet& p) { return p.uid() == uid; });
    }
    ps.retained.push_back(std::move(s));
  }

  stats_.compressed_acks_sent += records.size();
  std::vector<uint8_t> payload = BuildHackPayload(records);
  stats_.compressed_ack_bytes += payload.size();
  return payload;
}

void HackAgent::OnAckPayload(MacAddress from,
                             std::span<const uint8_t> payload) {
  auto split = SplitHackPayload(payload);
  if (!split.has_value()) {
    ++stats_.crc_failures_at_ap;  // malformed counts as a hard failure
    return;
  }
  for (const std::vector<uint8_t>& raw : *split) {
    ByteReader reader(raw);
    auto record = CompressedAckRecord::Deserialize(reader);
    if (!record.has_value()) {
      ++stats_.crc_failures_at_ap;
      continue;
    }
    RohcDecompressor::Result result = decompressors_[from].Decompress(*record);
    switch (result.status) {
      case RohcDecompressor::Status::kOk:
        ++stats_.acks_recovered_at_ap;
        if (forward_decompressed) {
          forward_decompressed(std::move(*result.packet), from);
        }
        break;
      case RohcDecompressor::Status::kDuplicate:
        ++stats_.duplicates_discarded_at_ap;
        break;
      case RohcDecompressor::Status::kNoContext:
      case RohcDecompressor::Status::kStale:
        ++stats_.stale_context_drops;
        break;
      case RohcDecompressor::Status::kCrcFailure:
      case RohcDecompressor::Status::kMalformed:
        ++stats_.crc_failures_at_ap;
        break;
    }
  }
}

// --- AP role ----------------------------------------------------------------------

void HackAgent::NoteReceivedVanillaAck(const Packet& packet, MacAddress from) {
  decompressors_[from].NoteVanillaAck(packet);
}

void HackAgent::NoteReceivedDataSegment(const Packet& packet) {
  if (config_.variant != HackVariant::kTimestampEcho || !packet.has_tcp()) {
    return;
  }
  const TcpHeader& tcp = packet.tcp();
  if (!tcp.timestamps.has_value()) {
    return;
  }
  // Echo of (at least) our last released TSval: the sender has our ACKs —
  // any further data it had queued is on the wire; stop expecting more.
  for (auto& [peer, ps] : peers_) {
    if (ps.echo_outstanding &&
        !Seq32Lt(tcp.timestamps->tsecr, ps.last_released_tsval)) {
      ps.echo_outstanding = false;
    }
  }
}

}  // namespace hacksim
