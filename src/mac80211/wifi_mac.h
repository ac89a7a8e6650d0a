// 802.11 MAC: DCF/EDCA access, one originator exchange path for A-MPDU +
// Block ACK exchanges (802.11n) and stop-and-wait (802.11a: the same
// outstanding window, one MPDU wide, answered by an ACK), Block ACK Request
// recovery, RTS/CTS with NAV-based virtual carrier sensing (rts_threshold),
// per-station ARF rate adaptation, NAV, EIFS, per-destination queues, and
// the two header bits HACK relies on: MORE DATA (standard, §3.2) and SYNC
// (HACK extension, §3.4). See docs/mac.md for the RTS/CTS sequencing and
// the rate-adaptation algorithm.
//
// The MAC is symmetric: an AP is simply a station with several destination
// queues. HACK integration is confined to the three HackHooks touch points;
// with hooks unset this is a faithful "stock" 802.11 MAC.
//
// Medium visibility is strictly per-receiver: CCA busy/idle edges arrive
// from this station's own PHY, and NAV is set only from frames this station
// actually decoded. On the legacy fixed-loss channel every station hears
// every PPDU, so those edges are cell-global in practice; on a
// range-limited channel (docs/channel.md) a hidden transmitter produces
// *no* edge here at all — carrier sense simply never fires, which is
// exactly why the RTS/CTS path matters there: the CTS from the receiver
// plants the NAV in regions the data transmitter cannot reach. Nothing in
// the MAC special-cases this; the same lazy idle-edge re-arm serves both
// channels, and stays pick-for-pick identical in legacy mode (dcf_test).
//
// Station addressing is dense: peers are interned into a StationTable at
// first contact (or ahead of time via Associate), and all per-peer TX/RX
// state lives in flat vectors indexed by StationId. Destination scheduling
// is an O(1) cursor over an ActiveSlotRing of stations with pending work,
// and the per-MPDU outstanding/reorder state is kept in 64-entry rings
// sized to the Block ACK window — no per-packet map walks anywhere, which
// is what lets one MAC serve 1000+ stations (see docs/perf.md).
#ifndef SRC_MAC80211_WIFI_MAC_H_
#define SRC_MAC80211_WIFI_MAC_H_

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/mac80211/dcf.h"
#include "src/mac80211/hack_hooks.h"
#include "src/mac80211/station_table.h"
#include "src/phy80211/wifi_phy.h"
#include "src/stats/mac_stats.h"

namespace hacksim {

// Per-access-category EDCA parameter row (802.11e): AIFS = SIFS + aifsn
// slots, contention window bounds, and the TXOP limit the A-MPDU builder
// sizes batches against. See docs/qos.md for the table and the
// internal-contention rule.
struct EdcaAcParams {
  uint8_t aifsn = 3;
  uint32_t cw_min = 15;
  uint32_t cw_max = 1023;
  // Zero means "use WifiMacConfig::txop_limit" (the global limit).
  SimTime txop_limit;
};

// 802.11e-2005 Table 7-37 defaults (for a CWmin 15 / CWmax 1023 PHY),
// indexed by AC. The BE row mirrors the standard's base timings (aifsn 3 ==
// DIFS for 11n, CW 15/1023) and is informational only: the BE engine is
// built from PhyTimings directly, so a MAC with EDCA off runs plain DCF.
static_assert(kAcVo == 0 && kAcVi == 1 && kAcBe == 2 && kAcBk == 3);
inline constexpr std::array<EdcaAcParams, kNumAcs> kEdcaTable = {{
    {2, 3, 7, SimTime::Micros(1504)},   // VO
    {2, 7, 15, SimTime::Micros(3008)},  // VI
    {3, 15, 1023, SimTime::Zero()},     // BE
    {7, 15, 1023, SimTime::Zero()},     // BK
}};

// Maps a packet to its access category via the IP precedence bits
// (AcForTos); packets without an IP header ride best-effort.
uint8_t ClassifyAc(const Packet& packet);

// SoRa's LL-ACK quirk (§4.1): the software radio returns LL ACKs this much
// later than SIFS, and the sender widens its response timeouts to match.
inline constexpr SimTime kSoraAckDelay = SimTime::Micros(37);
inline constexpr SimTime kSoraAckTimeoutExtra = SimTime::Micros(80);

struct WifiMacConfig {
  WifiStandard standard = WifiStandard::k80211n;
  WifiMode data_mode;
  // Paper §4.3: AP buffers 126 packets per flow (3 batches of 42).
  size_t per_dest_queue_limit = 126;
  SimTime txop_limit = SimTime::Millis(4);
  // RTS/CTS virtual carrier sense: data PPDUs whose PSDU exceeds this many
  // bytes are preceded by an RTS/CTS handshake whose Duration fields make
  // overhearing stations reserve (NAV) the whole exchange. 0 disables —
  // the default, and the legacy scenarios' bit-identical path.
  size_t rts_threshold = 0;
  // NAV-reset probe implementation. false (default) = coalesced: the probe
  // is one provisional deadline per overheard RTS reservation, consulted
  // lazily from dated CCA edges — zero scheduled events per overhearer.
  // true = the historical armed-probe event per overheard RTS, kept as the
  // pick-for-pick reference the coalesced path is tested against
  // (docs/mac.md).
  bool legacy_nav_probe_events = false;
  // Per-station ARF rate adaptation over the standard's mode table;
  // data_mode becomes the starting rate. Off by default: every data PPDU
  // then goes out at data_mode exactly as before.
  bool enable_rate_adaptation = false;
  RateAdaptConfig rate_adapt;
  // SoRa's LL-ACK quirk (§4.1): LL ACKs go out kSoraAckDelay after SIFS,
  // and response timeouts widen by kSoraAckTimeoutExtra to compensate.
  bool sora_ack_quirk = false;
  // When > 0, response timeouts budget for HACK payload bytes appended to
  // LL ACKs by the peer.
  size_t max_hack_payload_bytes = 0;
  // Dead-peer detection: after this many *consecutive* exchange give-ups
  // for one destination (Block ACK agreement give-ups, or single-MPDU
  // retry-limit drops) the MAC flushes that destination's queue instead of
  // burning airtime on a peer that vanished. Any delivered MPDU resets the
  // streak. 0 disables — the default, and the legacy bit-identical path
  // (hidden-terminal runs legitimately hit give-ups on live peers).
  int dead_peer_flush_threshold = 0;
  // 802.11e EDCA. Every MAC runs the per-AC contention path; this picks
  // its access categories. Off (default): BE alone — one DCF engine, one
  // queue per destination, every packet best-effort, i.e. plain DCF. On:
  // all four (VO/VI/BE/BK), each with its own engine parameterised from
  // kEdcaTable, DSCP classification at enqueue, per-(destination, AC)
  // queues, and internal contention — same-instant grants resolve to the
  // highest-priority AC, losers re-draw as virtual collisions (docs/qos.md).
  bool edca_enabled = false;
};

class WifiMac final : public WifiPhyListener {
 public:
  WifiMac(Scheduler* scheduler, WifiPhy* phy, MacAddress address,
          WifiMacConfig config, Random rng);

  // Interns `peer` into the station table and pre-sizes its TX/RX state, so
  // scenario builders can hand out StationIds in a deterministic order
  // before traffic flows. Purely an optimisation hint: unknown peers are
  // interned lazily on first contact.
  void Associate(MacAddress peer);
  size_t station_count() const { return stations_.size(); }

  // Clean removal of a peer (station churn): flushes its queue and
  // outstanding state, releases its service slot and recycles its
  // StationId. Safe mid-exchange — an exchange currently addressed to the
  // peer is abandoned when its response/timeout resolves. No-op for
  // never-seen peers.
  void Disassociate(MacAddress peer);

  // Radio interface reset (crash, AP outage, or an explicit interface
  // bounce): cancels every pending MAC timer, drops all association,
  // queue, sequence and NAV state, and returns the MAC to a cold-boot
  // idle. The caller re-Associates peers afterwards as needed.
  void ResetRadioState();

  // Liveness probes for SimWatchdog: queued-or-in-flight work, and the
  // current NAV horizon (SimTime::Zero() when no reservation is held).
  bool HasBacklog() const;
  // Effective NAV horizon: a matured-but-unresolved coalesced probe counts
  // as already reclaimed (the MAC would resolve it on its next state read),
  // so the watchdog's NAV-leak check sees the same horizon either probe
  // implementation yields.
  SimTime nav_until() const {
    if (nav_provisional_ && !phy_busy_ && nav_until_ == nav_probe_value_ &&
        scheduler_->Now() > nav_probe_deadline_) {
      return nav_probe_deadline_;
    }
    return nav_until_;
  }

  // Upper-layer interface. Takes ownership: the packet is moved into the
  // per-destination queue (or dropped), never copied.
  void Enqueue(Packet&& packet, MacAddress dest);
  size_t QueueDepth(MacAddress dest) const;
  // Removes queued (not yet transmitted) packets matching `pred`; returns
  // the number removed. Used by opportunistic HACK to pull vanilla TCP ACKs
  // that were delivered via an LL ACK instead.
  size_t RemoveQueued(MacAddress dest,
                      const std::function<bool(const Packet&)>& pred);

  std::function<void(Packet, MacAddress from)> on_rx_packet;

  // Fires when a data MPDU is confirmed delivered (LL-acknowledged by the
  // peer). HACK uses this to learn that a vanilla TCP ACK reached the AP —
  // the signal that the ROHC context is established there.
  std::function<void(const Packet&, MacAddress dest)> on_mpdu_delivered;

  void set_hack_hooks(HackHooks* hooks) { hack_hooks_ = hooks; }

  MacAddress address() const { return address_; }
  const WifiMacConfig& config() const { return config_; }
  const PhyTimings& timings() const { return timings_; }
  // Reading the counters is a state read: it delivers any matured
  // coalesced-probe verdict first, so nav_resets does not depend on which
  // probe implementation ran (a reservation dying right at sim end would
  // otherwise count only in legacy mode, where the armed event fires
  // unconditionally).
  MacStats& stats() {
    ResolveNavProbe();
    return stats_;
  }
  const MacStats& stats() const {
    const_cast<WifiMac*>(this)->ResolveNavProbe();
    return stats_;
  }

  // WifiPhyListener:
  void OnPpduReceived(const Ppdu& ppdu,
                      const std::vector<bool>& mpdu_ok) override;
  void OnRxCorrupted() override;
  void OnTxEnd(const Ppdu& ppdu) override;
  void OnCcaBusy() override;
  void OnCcaIdle() override;

 private:
  struct OutstandingMpdu {
    WifiFrame frame;
    int retries = 0;
  };

  // Originator-side state, per destination (indexed by StationId).
  //
  // Outstanding MPDUs live in a 64-slot ring keyed by seq % 64: every live
  // seq is inside [win_start, win_start + 64) (the Block ACK window), so
  // slots are collision-free and "iterate in window order" is a 64-step
  // walk from win_start. 802.11a stop-and-wait uses the same ring with a
  // window of one MPDU.
  struct TxState {
    static constexpr uint32_t kNoServiceSlot = 0xFFFFFFFFu;

    std::deque<Packet> queue;
    uint16_t next_seq = 0;
    uint16_t win_start = 0;
    std::vector<std::optional<OutstandingMpdu>> outstanding;  // lazy, 64 slots
    size_t outstanding_count = 0;
    bool bar_pending = false;
    int bar_retries = 0;
    bool sync_pending = false;
    // Consecutive CTS timeouts; past the retry limit one exchange bypasses
    // RTS protection so a CTS-deaf peer cannot stall the queue forever.
    int rts_retries = 0;
    bool rts_bypass_once = false;
    uint32_t service_slot = kNoServiceSlot;  // slot in every AC ring
    // Consecutive exchange give-ups with no delivery in between; feeds the
    // dead-peer flush (config.dead_peer_flush_threshold).
    int consecutive_give_ups = 0;
    // EDCA: lazily created per-AC staging queues. BE traffic — all of it
    // with EDCA off — stays in `queue` (the [kAcBe] slot is never touched),
    // so a BE-only MAC never pays the allocation.
    std::unique_ptr<std::array<std::deque<Packet>, kNumAcs>> edca_queues;
    // AC of the most recent data exchange toward this destination. The
    // seq/Block-ACK window is shared across ACs (one agreement per peer, a
    // documented simplification vs per-TID agreements — docs/qos.md), so
    // BAR recovery and retransmission work is attributed to this AC.
    uint8_t recovery_ac = kAcBe;

    bool HasWork() const {
      return bar_pending || !queue.empty() || outstanding_count > 0 ||
             HasEdcaBacklog();
    }
    bool HasEdcaBacklog() const {
      if (edca_queues == nullptr) {
        return false;
      }
      for (const std::deque<Packet>& q : *edca_queues) {
        if (!q.empty()) {
          return true;
        }
      }
      return false;
    }
    OutstandingMpdu* FindOutstanding(uint16_t seq);
    OutstandingMpdu& AddOutstanding(uint16_t seq, OutstandingMpdu mpdu);
    void EraseOutstanding(uint16_t seq);
    void ClearOutstanding();
  };

  // Recipient-side state, per transmitter (indexed by StationId). The
  // scoreboard is a 64-bit bitmap (bit = seq % 64) plus a matching 64-slot
  // reorder ring — the former std::set / std::map pair, windowed.
  struct RxState {
    uint16_t win_start = 0;
    uint64_t received_bits = 0;
    std::vector<std::optional<Packet>> reorder;  // lazy, 64 slots
    uint16_t last_single_seq = 0;
    bool has_last_single = false;
  };

  // kAwaitingCts sits between the RTS transmission and either the CTS (the
  // stored data PPDU then follows SIFS later) or the CTS timeout (which
  // re-enters backoff through the ordinary NotifyTxFailure path — no
  // special-case interaction with the lazy idle-edge re-arm).
  enum class TxPhase { kIdle, kTransmitting, kAwaitingCts, kAwaitingResponse };

  // --- station table ---------------------------------------------------------
  TxState& TxFor(StationId sid) {
    if (tx_.size() <= sid) {
      tx_.resize(sid + 1);
    }
    return tx_[sid];
  }
  RxState& RxFor(StationId sid) {
    if (rx_.size() <= sid) {
      rx_.resize(sid + 1);
    }
    return rx_[sid];
  }
  void EnsureServiceSlot(StationId sid, TxState& st);
  // Re-syncs the station's bit in each AC ring with AcHasWork(); call after
  // any mutation that can change it.
  void UpdateServiceRing(TxState& st);

  // --- access categories -----------------------------------------------------
  // The engine contending for `ac`: dcf_ for BE, the dedicated engine
  // otherwise. dcf_ is built first whatever acs_ holds, so its RNG stream
  // does not depend on edca_enabled.
  DcfEngine& EngineFor(uint8_t ac) {
    return edca_engines_[ac] != nullptr ? *edca_engines_[ac] : dcf_;
  }
  // Applies `fn` to every live engine — dcf_ plus any per-AC engines.
  // Medium-state transitions (busy/idle edges, EIFS, radio reset) broadcast
  // through this; exchange-lifecycle calls route through EngineFor().
  template <typename Fn>
  void ForEachEngine(Fn&& fn) {
    fn(dcf_);
    for (std::unique_ptr<DcfEngine>& engine : edca_engines_) {
      if (engine != nullptr) {
        fn(*engine);
      }
    }
  }
  // The staging queue for (station, ac): st.queue for BE, the lazily
  // created per-AC queue otherwise.
  std::deque<Packet>& SendQueue(TxState& st, uint8_t ac);
  // Whether `ac`'s engine has a reason to contend for this station: fresh
  // packets in its queue, or recovery work (BAR/outstanding MPDUs) that
  // the AC of the original exchange owns.
  bool AcHasWork(const TxState& st, uint8_t ac) const;
  SimTime TxopLimitFor(uint8_t ac) const;

  // --- originator pipeline ---------------------------------------------------
  void MaybeRequestAccess();
  void OnAccessGranted(uint8_t ac);
  TxState* PickNextDest(uint8_t ac, StationId* sid_out);
  void StartExchange(StationId sid, TxState& st);
  Ppdu BuildDataPpdu(MacAddress dest, TxState& st);
  // Counts the data-PPDU stats and puts `ppdu` on the air (directly, or
  // SIFS after the CTS on the protected path).
  void TransmitDataPpdu(Ppdu ppdu);
  // Sends an RTS reserving the whole RTS-CTS-DATA-response exchange; the
  // data PPDU is parked in pending_data_ppdu_ until the CTS arrives.
  void SendRtsFor(Ppdu data_ppdu);
  void HandleCts(const WifiFrame& frame);
  void HandleCtsTimeout();
  void HandleResponseTimeout();
  // The response to a data or BAR exchange: a Block ACK, or the ACK of a
  // stop-and-wait exchange, read as a one-bit Block ACK for its MPDU.
  void HandleBlockAck(const WifiFrame& frame);
  void FinishExchange();
  void ReleaseDelivered(TxState& st, const OutstandingMpdu& mpdu);
  // Counts a retry against every MPDU of the current batch still
  // outstanding and drops those past the retry limit; returns the number
  // dropped.
  size_t RetryUnacked(TxState& st);
  // Slides the originator window to the oldest outstanding MPDU (to
  // next_seq when none is left).
  void AdvanceTxWindow(TxState& st);
  void GiveUpBlockAck(TxState& st);
  // Counts a give-up towards the dead-peer streak and flushes the
  // destination's queue once the threshold is crossed.
  void NoteGiveUp(TxState& st);
  // Drops everything queued/outstanding for the station and returns the
  // number of upper-layer packets that died with it.
  size_t FlushStation(TxState& st);
  void NotifyRateOutcome(StationId sid, bool success);
  SimTime ResponseTimeoutDelay(bool block_ack_expected) const;
  SimTime CtsTimeoutDelay() const;

  // --- recipient pipeline ----------------------------------------------------
  void HandleDataPpdu(const Ppdu& ppdu, const std::vector<bool>& mpdu_ok);
  void HandleBar(const WifiFrame& frame, const WifiMode& eliciting_mode);
  void HandleRts(const WifiFrame& frame, const WifiMode& eliciting_mode);
  void ScheduleResponse(WifiFrame response, const WifiMode& eliciting_mode);
  void AdvanceRxWindow(RxState& rx, MacAddress from, uint16_t new_start);
  void DeliverContiguous(RxState& rx, MacAddress from);
  uint64_t BuildBitmap(const RxState& rx) const;

  // --- medium state -----------------------------------------------------------
  void UpdateMediumState();
  void SetNav(SimTime until);
  // Arms the 802.11 NAV-reset probe for an overheard RTS: if the medium
  // shows no PHY activity for 2*SIFS + CTS airtime + 2*slot after the RTS,
  // the reservation is dead (the CTS never came) and the NAV it set is
  // reclaimed.
  void ArmNavResetProbe(SimTime rts_nav_until, const WifiMode& rts_mode);
  void HandleNavResetProbe(SimTime armed_nav_value, uint64_t armed_edges);
  // Coalesced-probe resolution (default mode). ResolveNavProbe is the
  // passive form called from every state read: delivers the verdict once
  // the deadline has passed. FinishNavProbe is the verdict itself — the
  // same decision the armed probe event makes in legacy mode.
  void ResolveNavProbe();
  void FinishNavProbe();

  Scheduler* scheduler_;
  WifiPhy* phy_;
  MacAddress address_;
  WifiMacConfig config_;
  PhyTimings timings_;
  DcfEngine dcf_;
  // The access categories this MAC contends in, highest priority first:
  // {BE} with EDCA off, {VO, VI, BE, BK} with it on. An AC outside acs_
  // gets no engine, and its ring stays empty and untouched.
  std::span<const uint8_t> acs_;
  // Per-AC engines for VO/VI/BK, EDCA on only. [kAcBe] stays null — dcf_ IS
  // the BE engine (see EngineFor).
  std::array<std::unique_ptr<DcfEngine>, kNumAcs> edca_engines_;
  HackHooks* hack_hooks_ = nullptr;
  MacStats stats_;

  StationTable stations_;
  // Flat per-station state. tx_ grows only at transmit-side entry points
  // (Enqueue/Associate) and rx_ only at receive-side ones, so references
  // held across upper-layer callbacks (which may intern new stations by
  // enqueueing) never dangle.
  std::vector<TxState> tx_;
  std::vector<RxState> rx_;
  // Service rings, one per AC in acs_: slot index -> station, assigned in
  // first-enqueue order and picked via an O(1) cursor. The rings move in
  // slot lockstep (same AddSlot / ReleaseSlot history, so slot s means the
  // same station everywhere); a slot is active in ring[ac] iff
  // AcHasWork(st, ac).
  std::vector<StationId> service_slot_station_;
  std::array<ActiveSlotRing, kNumAcs> ac_rings_;
  // When each AC last started contending; a granted exchange's channel
  // wait (Table 3 accounting) is measured from here.
  std::array<SimTime, kNumAcs> ac_request_time_{};

  // Rate adaptation (engaged only when config_.enable_rate_adaptation).
  std::span<const WifiMode> rate_table_;
  size_t data_mode_index_ = 0;
  std::optional<ArfRateController> rate_ctrl_;

  TxPhase phase_ = TxPhase::kIdle;
  // AC of the exchange in flight (kAcBe always with EDCA off); exchange
  // lifecycle feedback (TX success/failure, post-TX backoff, TXOP limit)
  // routes to EngineFor(current_ac_).
  uint8_t current_ac_ = kAcBe;
  MacAddress current_dest_;
  StationId current_dest_sid_ = kInvalidStationId;
  // The in-flight exchange's destination was disassociated mid-exchange:
  // when the response or timeout resolves, skip every per-station mutation
  // (the TxState was already reset and may belong to a new peer).
  bool current_dest_gone_ = false;
  // Bumped by ResetRadioState; SIFS-delayed closures (responses, the
  // CTS→data hop) capture it and become no-ops if a reset intervened.
  uint64_t reset_epoch_ = 0;
  bool current_is_bar_ = false;
  bool current_all_tcp_acks_ = false;
  // TX mode of the exchange in flight (data rate, or data_mode for BARs);
  // response durations and timeouts derive from it.
  WifiMode current_data_mode_;
  size_t current_mode_index_ = 0;
  std::vector<uint16_t> current_batch_seqs_;
  // Data PPDU parked between RTS transmission and CTS reception.
  std::optional<Ppdu> pending_data_ppdu_;
  EventId response_timeout_event_ = kInvalidEventId;
  EventId cts_timeout_event_ = kInvalidEventId;
  SimTime tx_end_time_;

  bool phy_busy_ = false;
  SimTime nav_until_;
  // Monotone count of CCA busy edges; the NAV-reset probe uses it to ask
  // "did any PHY activity follow the RTS?" without tracking timestamps.
  uint64_t cca_busy_edges_ = 0;
  EventId nav_reset_probe_event_ = kInvalidEventId;
  // Coalesced NAV-reset probe (default mode): one provisional deadline per
  // overheard RTS reservation instead of an armed event. A CCA busy edge
  // inside the window confirms the reservation (the exchange started); the
  // first state read past the deadline delivers the reclaim verdict.
  bool nav_provisional_ = false;
  SimTime nav_probe_deadline_;
  SimTime nav_probe_value_;  // the nav_until_ the probe would reclaim
  bool medium_busy_reported_ = false;
  // Idle start last announced to the DCF engine (Now() or a future
  // nav_until_). NAV expiry is never a scheduled event: the engine arms its
  // grant against the announced idle start directly (see UpdateMediumState).
  SimTime reported_idle_from_;
  // SIFS responses scheduled but not yet on the air. While non-zero the MAC
  // must not start its own exchanges: a real NIC's response logic runs
  // below the contention engine, and with delayed responses (the SoRa
  // quirk) a DCF grant could otherwise trample the pending LL ACK.
  int responses_pending_ = 0;
};

}  // namespace hacksim

#endif  // SRC_MAC80211_WIFI_MAC_H_
