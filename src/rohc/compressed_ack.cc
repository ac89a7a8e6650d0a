#include "src/rohc/compressed_ack.h"

#include "src/util/crc.h"
#include "src/util/logging.h"

namespace hacksim {

void CompressedAckRecord::Serialize(ByteWriter& writer) const {
  writer.WriteU8(cid);
  uint8_t ctrl = 0;
  if (refresh) {
    ctrl |= 0x80;
  }
  ctrl |= static_cast<uint8_t>((ack_mode & 0x3) << 5);
  if (has_ts_delta) {
    ctrl |= 0x10;
  }
  if (has_window) {
    ctrl |= 0x08;
  }
  ctrl |= crc3 & 0x7;
  writer.WriteU8(ctrl);
  writer.WriteU8(msn);

  if (refresh) {
    CHECK_LE(sack_blocks.size(), kMaxSackBlocksInRefresh);
    uint8_t flags = static_cast<uint8_t>(
        (refresh_has_ts ? 0x80 : 0) | ((sack_blocks.size() & 0x7) << 4));
    writer.WriteU8(flags);
    writer.WriteU32Le(seq);
    writer.WriteU32Le(ack);
    writer.WriteU16Le(window);
    if (refresh_has_ts) {
      writer.WriteU32Le(tsval);
      writer.WriteU32Le(tsecr);
    }
    for (const SackBlock& block : sack_blocks) {
      writer.WriteU32Le(block.start);
      writer.WriteU32Le(block.end);
    }
    return;
  }

  switch (ack_mode) {
    case 0:
      break;
    case 1:
      writer.WriteU8(static_cast<uint8_t>(ack_delta));
      break;
    case 2:
      writer.WriteU16Le(static_cast<uint16_t>(ack_delta));
      break;
    case 3:
      writer.WriteU32Le(ack_abs);
      break;
  }
  if (has_ts_delta) {
    writer.WriteU8(tsval_delta);
    writer.WriteU8(tsecr_delta);
  }
  if (has_window) {
    writer.WriteU16Le(window);
  }
}

// Every read is checked on its own: a failed read leaves the reader where
// it was, so a later, shorter read can still succeed on a truncated record.
std::optional<CompressedAckRecord> CompressedAckRecord::Deserialize(
    ByteReader& reader) {
  CompressedAckRecord rec;
  auto cid = reader.ReadU8();
  auto ctrl = reader.ReadU8();
  auto msn = reader.ReadU8();
  if (!cid || !ctrl || !msn) {
    return std::nullopt;
  }
  rec.cid = *cid;
  rec.msn = *msn;
  rec.refresh = (*ctrl & 0x80) != 0;
  rec.ack_mode = (*ctrl >> 5) & 0x3;
  rec.has_ts_delta = (*ctrl & 0x10) != 0;
  rec.has_window = (*ctrl & 0x08) != 0;
  rec.crc3 = *ctrl & 0x7;

  if (rec.refresh) {
    auto flags = reader.ReadU8();
    if (!flags) {
      return std::nullopt;
    }
    rec.refresh_has_ts = (*flags & 0x80) != 0;
    size_t sack_count = (*flags >> 4) & 0x7;
    auto seq = reader.ReadU32Le();
    auto ack = reader.ReadU32Le();
    auto window = reader.ReadU16Le();
    if (!seq || !ack || !window) {
      return std::nullopt;
    }
    rec.seq = *seq;
    rec.ack = *ack;
    rec.window = *window;
    if (rec.refresh_has_ts) {
      auto tsval = reader.ReadU32Le();
      auto tsecr = reader.ReadU32Le();
      if (!tsval || !tsecr) {
        return std::nullopt;
      }
      rec.tsval = *tsval;
      rec.tsecr = *tsecr;
    }
    for (size_t i = 0; i < sack_count; ++i) {
      auto start = reader.ReadU32Le();
      auto end = reader.ReadU32Le();
      if (!start || !end) {
        return std::nullopt;
      }
      rec.sack_blocks.push_back(SackBlock{*start, *end});
    }
    return rec;
  }

  switch (rec.ack_mode) {
    case 0:
      break;
    case 1: {
      auto d = reader.ReadU8();
      if (!d) {
        return std::nullopt;
      }
      rec.ack_delta = *d;
      break;
    }
    case 2: {
      auto d = reader.ReadU16Le();
      if (!d) {
        return std::nullopt;
      }
      rec.ack_delta = *d;
      break;
    }
    case 3: {
      auto v = reader.ReadU32Le();
      if (!v) {
        return std::nullopt;
      }
      rec.ack_abs = *v;
      break;
    }
  }
  if (rec.has_ts_delta) {
    auto tsval_delta = reader.ReadU8();
    auto tsecr_delta = reader.ReadU8();
    if (!tsval_delta || !tsecr_delta) {
      return std::nullopt;
    }
    rec.tsval_delta = *tsval_delta;
    rec.tsecr_delta = *tsecr_delta;
  }
  if (rec.has_window) {
    auto window = reader.ReadU16Le();
    if (!window) {
      return std::nullopt;
    }
    rec.window = *window;
  }
  return rec;
}

uint8_t ComputeAckCrc3(uint32_t seq, uint32_t ack, uint32_t tsval,
                       uint32_t tsecr, uint16_t window, uint8_t msn) {
  uint8_t buf[19];
  auto put32 = [&buf](size_t at, uint32_t v) {
    buf[at] = static_cast<uint8_t>(v);
    buf[at + 1] = static_cast<uint8_t>(v >> 8);
    buf[at + 2] = static_cast<uint8_t>(v >> 16);
    buf[at + 3] = static_cast<uint8_t>(v >> 24);
  };
  put32(0, seq);
  put32(4, ack);
  put32(8, tsval);
  put32(12, tsecr);
  buf[16] = static_cast<uint8_t>(window);
  buf[17] = static_cast<uint8_t>(window >> 8);
  buf[18] = msn;
  return Crc3Rohc(buf);
}

std::vector<uint8_t> BuildHackPayload(
    std::span<const std::vector<uint8_t>> records) {
  CHECK_LE(records.size(), 255u);
  std::vector<uint8_t> out;
  size_t total = 1;
  for (const auto& r : records) {
    total += r.size();
  }
  out.reserve(total);
  out.push_back(static_cast<uint8_t>(records.size()));
  for (const auto& r : records) {
    out.insert(out.end(), r.begin(), r.end());
  }
  return out;
}

std::optional<std::vector<std::vector<uint8_t>>> SplitHackPayload(
    std::span<const uint8_t> payload) {
  if (payload.empty()) {
    return std::nullopt;
  }
  size_t count = payload[0];
  ByteReader reader(payload.subspan(1));
  std::vector<std::vector<uint8_t>> records;
  records.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    size_t start = reader.position();
    auto rec = CompressedAckRecord::Deserialize(reader);
    if (!rec) {
      return std::nullopt;
    }
    size_t len = reader.position() - start;
    const uint8_t* base = payload.data() + 1 + start;
    records.emplace_back(base, base + len);
  }
  return records;
}

}  // namespace hacksim
