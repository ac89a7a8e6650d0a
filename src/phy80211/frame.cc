#include "src/phy80211/frame.h"

#include "src/util/logging.h"

namespace hacksim {

size_t WifiFrame::SizeBytes() const {
  switch (type) {
    case WifiFrameType::kData:
      CHECK(packet.has_value());
      return kQosDataHeaderBytes + kLlcSnapBytes + packet->SizeBytes() +
             kFcsBytes;
    case WifiFrameType::kAck:
      return kAckBytes + hack_payload.size();
    case WifiFrameType::kBlockAck:
      return kBlockAckBytes + hack_payload.size();
    case WifiFrameType::kBlockAckReq:
      return kBlockAckReqBytes;
    case WifiFrameType::kRts:
      return kRtsBytes;
    case WifiFrameType::kCts:
      return kCtsBytes;
  }
  return 0;
}

size_t Ppdu::PsduBytes() const {
  CHECK(!mpdus.empty());
  if (!aggregated) {
    CHECK_EQ(mpdus.size(), 1u);
    return mpdus.front().SizeBytes();
  }
  size_t total = 0;
  for (const WifiFrame& mpdu : mpdus) {
    size_t padded = (mpdu.SizeBytes() + 3) & ~size_t{3};
    total += kAmpduDelimiterBytes + padded;
  }
  return total;
}

SimTime Ppdu::Duration() const { return FrameDuration(mode, PsduBytes()); }

}  // namespace hacksim
