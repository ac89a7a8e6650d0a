// 802.11 MAC frame and PPDU models with byte-exact sizes.
//
// Sizes (all + FCS 4 where noted):
//   QoS Data MPDU : 26 B header + 8 B LLC/SNAP + IP datagram + 4 B FCS
//   ACK           : 14 B (+ appended HACK payload)
//   Block ACK     : 32 B compressed-bitmap variant (+ appended HACK payload)
//   Block ACK Req : 24 B
//   RTS           : 20 B
//   CTS           : 14 B
// A-MPDU subframes add a 4 B delimiter and pad the MPDU to a 4 B boundary;
// with 1460 B TCP payloads this yields 1556 B per subframe and the paper's
// 42-MPDU maximum under the 64 KB A-MPDU bound.
//
// The HACK SYNC bit (paper §3.4, Figure 8) lives in an 802.11 reserved
// header bit; MORE DATA is the standard power-management bit reused as the
// paper describes (§3.2).
#ifndef SRC_PHY80211_FRAME_H_
#define SRC_PHY80211_FRAME_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/net/address.h"
#include "src/packet/packet.h"
#include "src/phy80211/wifi_mode.h"
#include "src/sim/sim_time.h"

namespace hacksim {

enum class WifiFrameType {
  kData,
  kAck,
  kBlockAck,
  kBlockAckReq,
  kRts,
  kCts,
};

// Compressed-bitmap Block ACK content: 64 sequence numbers starting at
// start_seq (mod 4096), bit i set = MPDU (start_seq + i) received.
struct BlockAckInfo {
  uint16_t start_seq = 0;
  uint64_t bitmap = 0;
  friend bool operator==(const BlockAckInfo&, const BlockAckInfo&) = default;
};

struct WifiFrame {
  WifiFrameType type = WifiFrameType::kData;
  MacAddress ta;  // transmitter
  MacAddress ra;  // receiver
  uint16_t seq = 0;
  bool more_data = false;
  bool sync = false;
  // Valid when `sync` is set on a data MPDU: the originator's window start
  // at build time. The recipient flushes its reorder window to it — the
  // in-sim stand-in for the BAR flush the standard mandates after an
  // originator discards MPDUs. Carried on every MPDU of the batch so the
  // flush target survives any subset of subframes decoding (inferring it
  // from the first *decoded* MPDU would overshoot when the lead subframe
  // is corrupted, silently acking data the receiver never delivered).
  uint16_t sync_start_seq = 0;
  bool retry = false;
  // NAV reservation carried in the Duration field: time after this frame's
  // end that the exchange still needs (SIFS + response).
  SimTime duration_field;
  std::optional<Packet> packet;      // kData
  std::optional<BlockAckInfo> ba;    // kBlockAck
  uint16_t bar_start_seq = 0;        // kBlockAckReq
  // ROHC-compressed TCP ACK envelope appended to kAck / kBlockAck frames.
  std::vector<uint8_t> hack_payload;

  // MPDU size in bytes including FCS and any HACK payload.
  size_t SizeBytes() const;
};

inline constexpr size_t kQosDataHeaderBytes = 26;
inline constexpr size_t kLlcSnapBytes = 8;
inline constexpr size_t kFcsBytes = 4;
inline constexpr size_t kAckBytes = 14;
inline constexpr size_t kBlockAckBytes = 32;
inline constexpr size_t kBlockAckReqBytes = 24;
inline constexpr size_t kRtsBytes = 20;
inline constexpr size_t kCtsBytes = 14;
inline constexpr size_t kAmpduDelimiterBytes = 4;
inline constexpr size_t kMaxAmpduBytes = 65535;
inline constexpr size_t kMaxAmpduMpdus = 64;
inline constexpr uint16_t kSeqModulo = 4096;

// One PHY transmission: a single MPDU or an A-MPDU of data MPDUs.
struct Ppdu {
  std::vector<WifiFrame> mpdus;
  bool aggregated = false;
  WifiMode mode;
  uint64_t ppdu_id = 0;  // assigned by the channel on transmit

  // PSDU size: the lone MPDU, or the sum of delimiter+padded subframes.
  size_t PsduBytes() const;
  SimTime Duration() const;

  const WifiFrame& first() const { return mpdus.front(); }
  MacAddress transmitter() const { return mpdus.front().ta; }
  MacAddress receiver() const { return mpdus.front().ra; }
};

// 12-bit sequence arithmetic helpers.
inline uint16_t SeqAdd(uint16_t seq, int delta) {
  return static_cast<uint16_t>((seq + delta + kSeqModulo) % kSeqModulo);
}
// Distance from `from` forward to `to` in sequence space, in [0, 4095].
inline uint16_t SeqDistance(uint16_t from, uint16_t to) {
  return static_cast<uint16_t>((to - from + kSeqModulo) % kSeqModulo);
}
// True if `seq` is within [start, start+window) mod 4096.
inline bool SeqInWindow(uint16_t start, uint16_t seq, uint16_t window) {
  return SeqDistance(start, seq) < window;
}

}  // namespace hacksim

#endif  // SRC_PHY80211_FRAME_H_
