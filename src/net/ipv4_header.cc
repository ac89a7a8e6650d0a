#include "src/net/ipv4_header.h"

namespace hacksim {

uint16_t InternetChecksum(std::span<const uint8_t> data, uint32_t seed) {
  uint32_t sum = seed;
  size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<uint32_t>(data[i]) << 8 | data[i + 1];
  }
  if (i < data.size()) {
    sum += static_cast<uint32_t>(data[i]) << 8;
  }
  while (sum >> 16) {
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum);
}

namespace {

void SerializeWithChecksum(const Ipv4Header& h, ByteWriter& writer,
                           uint16_t checksum) {
  writer.WriteU8(0x45);  // version 4, IHL 5
  writer.WriteU8(h.tos);
  writer.WriteU16Be(h.total_length);
  writer.WriteU16Be(h.identification);
  uint16_t flags_frag = h.dont_fragment ? 0x4000 : 0x0000;
  writer.WriteU16Be(flags_frag);
  writer.WriteU8(h.ttl);
  writer.WriteU8(h.protocol);
  writer.WriteU16Be(checksum);
  writer.WriteU32Be(h.src.value());
  writer.WriteU32Be(h.dst.value());
}

std::optional<Ipv4Header> Deserialize20(ByteReader& reader) {
  auto ver_ihl = reader.ReadU8();
  if (!ver_ihl || *ver_ihl != 0x45) {
    return std::nullopt;  // options unsupported by design
  }
  Ipv4Header h;
  auto tos = reader.ReadU8();
  auto total_length = reader.ReadU16Be();
  auto identification = reader.ReadU16Be();
  auto flags_frag = reader.ReadU16Be();
  auto ttl = reader.ReadU8();
  auto protocol = reader.ReadU8();
  auto checksum = reader.ReadU16Be();
  auto src = reader.ReadU32Be();
  auto dst = reader.ReadU32Be();
  // Checked one by one: a failed read does not advance the reader, so a
  // later, shorter read can still succeed on truncated input.
  if (!tos || !total_length || !identification || !flags_frag || !ttl ||
      !protocol || !checksum || !src || !dst) {
    return std::nullopt;
  }
  h.tos = *tos;
  h.total_length = *total_length;
  h.identification = *identification;
  h.dont_fragment = (*flags_frag & 0x4000) != 0;
  h.ttl = *ttl;
  h.protocol = *protocol;
  h.src = Ipv4Address(*src);
  h.dst = Ipv4Address(*dst);
  if (h.ComputeChecksum() != *checksum) {
    return std::nullopt;
  }
  return h;
}

}  // namespace

uint16_t Ipv4Header::ComputeChecksum() const {
  ByteWriter writer;
  SerializeWithChecksum(*this, writer, 0);
  return InternetChecksum(writer.bytes());
}

void Ipv4Header::Serialize(ByteWriter& writer) const {
  SerializeWithChecksum(*this, writer, ComputeChecksum());
}

std::optional<Ipv4Header> Ipv4Header::Deserialize(ByteReader& reader) {
  return Deserialize20(reader);
}

}  // namespace hacksim
