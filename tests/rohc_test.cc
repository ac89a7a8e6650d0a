// Unit + property tests for the ROHC codec: wire-format round trips, context
// evolution, MSN dedup, CRC poisoning/recovery, and the gold invariant —
// decompressed ACKs are byte-identical to the originals.
#include <gtest/gtest.h>

#include "src/rohc/compressed_ack.h"
#include "src/rohc/rohc.h"
#include "src/sim/random.h"

namespace hacksim {
namespace {

Packet MakeAck(uint32_t ack, uint32_t tsval = 100, uint32_t tsecr = 200,
               uint16_t window = 32768, uint16_t src_port = 6000) {
  TcpHeader tcp;
  tcp.src_port = src_port;
  tcp.dst_port = 5000;
  tcp.seq = 1;
  tcp.ack = ack;
  tcp.flag_ack = true;
  tcp.window = window;
  tcp.timestamps = TcpTimestamps{tsval, tsecr};
  return Packet::MakeTcp(Ipv4Address::FromOctets(10, 0, 2, 1),
                         Ipv4Address::FromOctets(10, 0, 0, 1), tcp, 0);
}

std::vector<uint8_t> SerializePacket(const Packet& p) {
  ByteWriter w;
  p.ip().Serialize(w);
  p.tcp().Serialize(w);
  return std::move(w).Take();
}

// Compress at one end, decompress at the other, require byte identity.
class RohcPair {
 public:
  RohcCompressor comp;
  RohcDecompressor decomp;

  void Bootstrap(const Packet& vanilla) { decomp.NoteVanillaAck(vanilla); }

  RohcDecompressor::Result RoundTrip(const Packet& ack) {
    RohcCompressor::Result c = comp.Compress(ack);
    EXPECT_FALSE(c.bytes.empty());
    ByteReader r(c.bytes);
    auto rec = CompressedAckRecord::Deserialize(r);
    EXPECT_TRUE(rec.has_value());
    EXPECT_TRUE(r.AtEnd()) << "record must be self-delimiting";
    return decomp.Decompress(*rec);
  }
};

TEST(CompressedAckTest, RecordRoundTripDelta) {
  CompressedAckRecord rec;
  rec.cid = 42;
  rec.msn = 7;
  rec.crc3 = 5;
  rec.ack_mode = 2;
  rec.ack_delta = 2920;
  rec.has_ts_delta = true;
  rec.tsval_delta = 3;
  rec.tsecr_delta = 1;
  ByteWriter w;
  rec.Serialize(w);
  EXPECT_EQ(w.size(), 3u + 2 + 2);
  ByteReader r(w.bytes());
  auto parsed = CompressedAckRecord::Deserialize(r);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cid, 42);
  EXPECT_EQ(parsed->msn, 7);
  EXPECT_EQ(parsed->crc3, 5);
  EXPECT_EQ(parsed->ack_mode, 2);
  EXPECT_EQ(parsed->ack_delta, 2920u);
  EXPECT_TRUE(parsed->has_ts_delta);
  EXPECT_EQ(parsed->tsval_delta, 3);
  EXPECT_EQ(parsed->tsecr_delta, 1);
}

TEST(CompressedAckTest, RecordRoundTripRefreshWithSack) {
  CompressedAckRecord rec;
  rec.cid = 1;
  rec.msn = 200;
  rec.refresh = true;
  rec.refresh_has_ts = true;
  rec.seq = 111;
  rec.ack = 222;
  rec.window = 333;
  rec.tsval = 444;
  rec.tsecr = 555;
  rec.sack_blocks = {{1000, 2000}, {3000, 4000}};
  ByteWriter w;
  rec.Serialize(w);
  ByteReader r(w.bytes());
  auto parsed = CompressedAckRecord::Deserialize(r);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->refresh);
  EXPECT_EQ(parsed->seq, 111u);
  EXPECT_EQ(parsed->ack, 222u);
  EXPECT_EQ(parsed->window, 333);
  EXPECT_EQ(parsed->tsval, 444u);
  EXPECT_EQ(parsed->tsecr, 555u);
  ASSERT_EQ(parsed->sack_blocks.size(), 2u);
  EXPECT_EQ(parsed->sack_blocks[1], (SackBlock{3000, 4000}));
}

// A failed read leaves the reader where it was, so a later, shorter read can
// still succeed: a refresh record cut two bytes after its flags byte reads
// no seq and no ack, then a window. Every strict prefix of a record must be
// rejected, and the whole record must still parse.
TEST(CompressedAckTest, EveryStrictPrefixIsRejected) {
  const std::vector<uint8_t> cut = {0x01, 0x80, 0x05, 0x00, 0xAA, 0xBB};
  ByteReader cut_reader(cut);
  EXPECT_FALSE(CompressedAckRecord::Deserialize(cut_reader).has_value());

  CompressedAckRecord refresh;
  refresh.cid = 1;
  refresh.msn = 5;
  refresh.refresh = true;
  refresh.refresh_has_ts = true;
  refresh.seq = 111;
  refresh.ack = 222;
  refresh.window = 333;
  refresh.tsval = 444;
  refresh.tsecr = 555;
  refresh.sack_blocks = {{1000, 2000}, {3000, 4000}};
  std::vector<CompressedAckRecord> records = {refresh};
  for (uint8_t mode = 0; mode < 4; ++mode) {
    CompressedAckRecord delta;
    delta.cid = 2;
    delta.msn = 6;
    delta.ack_mode = mode;
    delta.ack_delta = mode == 1 ? 200 : 60000;
    delta.ack_abs = 123456;
    delta.has_ts_delta = true;
    delta.tsval_delta = 3;
    delta.tsecr_delta = 1;
    delta.has_window = true;
    delta.window = 777;
    records.push_back(delta);
  }
  for (const CompressedAckRecord& rec : records) {
    ByteWriter w;
    rec.Serialize(w);
    std::span<const uint8_t> bytes = w.bytes();
    ByteReader whole(bytes);
    EXPECT_TRUE(CompressedAckRecord::Deserialize(whole).has_value());
    for (size_t len = 0; len < bytes.size(); ++len) {
      ByteReader r(bytes.first(len));
      EXPECT_FALSE(CompressedAckRecord::Deserialize(r).has_value())
          << "refresh " << rec.refresh << " ack_mode " << int{rec.ack_mode}
          << ": prefix of " << len << "/" << bytes.size() << " bytes";
    }
  }
}

TEST(CompressedAckTest, StrideRecordIsThreeBytes) {
  // The paper: "3 bytes if the associated flow transmits a constant payload
  // size". Establish a stride, then check the steady-state record size.
  RohcCompressor comp;
  (void)comp.Compress(MakeAck(1000));          // refresh
  (void)comp.Compress(MakeAck(1000 + 2920));   // delta16 -> learns stride
  RohcCompressor::Result r = comp.Compress(MakeAck(1000 + 2 * 2920));
  EXPECT_EQ(r.bytes.size(), 3u);
}

TEST(CompressedAckTest, PayloadEnvelopeRoundTrip) {
  std::vector<std::vector<uint8_t>> records;
  RohcCompressor comp;
  for (int i = 0; i < 5; ++i) {
    records.push_back(comp.Compress(MakeAck(1000 + i * 2920)).bytes);
  }
  std::vector<uint8_t> payload = BuildHackPayload(records);
  auto split = SplitHackPayload(payload);
  ASSERT_TRUE(split.has_value());
  ASSERT_EQ(split->size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ((*split)[i], records[i]);
  }
}

TEST(CompressedAckTest, MalformedPayloadRejected) {
  EXPECT_FALSE(SplitHackPayload({}).has_value());
  std::vector<uint8_t> bogus = {3, 0x01};  // claims 3 records, truncated
  EXPECT_FALSE(SplitHackPayload(bogus).has_value());
}

TEST(RohcTest, FirstRecordIsRefresh) {
  RohcCompressor comp;
  RohcCompressor::Result r = comp.Compress(MakeAck(5000));
  EXPECT_TRUE(r.was_refresh);
}

TEST(RohcTest, ByteIdenticalReconstruction) {
  RohcPair pair;
  Packet bootstrap = MakeAck(1000);
  pair.Bootstrap(bootstrap);
  for (int i = 1; i <= 50; ++i) {
    Packet original = MakeAck(1000 + i * 2920, 100 + i / 7, 200 + i / 9);
    auto result = pair.RoundTrip(original);
    ASSERT_EQ(result.status, RohcDecompressor::Status::kOk) << "i=" << i;
    EXPECT_EQ(SerializePacket(*result.packet), SerializePacket(original))
        << "i=" << i;
  }
}

TEST(RohcTest, DupacksReconstructExactly) {
  RohcPair pair;
  pair.Bootstrap(MakeAck(1000));
  (void)pair.RoundTrip(MakeAck(2000));
  for (int i = 0; i < 5; ++i) {
    Packet dup = MakeAck(2000, 101, 201);  // same ack: dupack
    auto result = pair.RoundTrip(dup);
    ASSERT_EQ(result.status, RohcDecompressor::Status::kOk);
    EXPECT_EQ(SerializePacket(*result.packet), SerializePacket(dup));
  }
}

TEST(RohcTest, SackAcksUseRefreshAndReconstruct) {
  RohcPair pair;
  pair.Bootstrap(MakeAck(1000));
  (void)pair.RoundTrip(MakeAck(2000));
  Packet sacked = MakeAck(2000, 105, 205);
  sacked.mutable_tcp().sack_blocks = {{5000, 6460}, {8000, 9460}};
  sacked.mutable_ip().total_length =
      static_cast<uint16_t>(20 + sacked.tcp().HeaderBytes());
  RohcCompressor::Result c = pair.comp.Compress(sacked);
  ASSERT_FALSE(c.bytes.empty());
  EXPECT_TRUE(c.was_refresh);
  ByteReader r(c.bytes);
  auto rec = CompressedAckRecord::Deserialize(r);
  auto result = pair.decomp.Decompress(*rec);
  ASSERT_EQ(result.status, RohcDecompressor::Status::kOk);
  EXPECT_EQ(SerializePacket(*result.packet), SerializePacket(sacked));
}

TEST(RohcTest, WindowChangeEncodes) {
  RohcPair pair;
  pair.Bootstrap(MakeAck(1000, 100, 200, 32768));
  (void)pair.RoundTrip(MakeAck(2000, 100, 200, 32768));
  Packet changed = MakeAck(3000, 100, 200, 16384);
  auto result = pair.RoundTrip(changed);
  ASSERT_EQ(result.status, RohcDecompressor::Status::kOk);
  EXPECT_EQ(result.packet->tcp().window, 16384);
  EXPECT_EQ(SerializePacket(*result.packet), SerializePacket(changed));
}

TEST(RohcTest, LargeTimestampJumpForcesRefresh) {
  RohcCompressor comp;
  (void)comp.Compress(MakeAck(1000, 100, 200));
  RohcCompressor::Result r = comp.Compress(MakeAck(2000, 100 + 1000, 200));
  EXPECT_TRUE(r.was_refresh);
}

TEST(RohcTest, MsnDuplicateDiscard) {
  RohcPair pair;
  pair.Bootstrap(MakeAck(1000));
  RohcCompressor::Result c = pair.comp.Compress(MakeAck(2000));
  ByteReader r1(c.bytes);
  auto rec = CompressedAckRecord::Deserialize(r1);
  EXPECT_EQ(pair.decomp.Decompress(*rec).status,
            RohcDecompressor::Status::kOk);
  // Retained re-send of the same record: discarded as duplicate.
  EXPECT_EQ(pair.decomp.Decompress(*rec).status,
            RohcDecompressor::Status::kDuplicate);
  EXPECT_EQ(pair.decomp.duplicates(), 1u);
}

TEST(RohcTest, RetainedRunReplayOnlyAppliesNewRecords) {
  // Payload [R1 R2] applied, then [R1 R2 R3] re-sent: R1, R2 dups, R3 ok.
  RohcPair pair;
  pair.Bootstrap(MakeAck(1000));
  auto c1 = pair.comp.Compress(MakeAck(2000));
  auto c2 = pair.comp.Compress(MakeAck(3000));
  auto c3 = pair.comp.Compress(MakeAck(4000));
  auto decode = [&](const std::vector<uint8_t>& bytes) {
    ByteReader r(bytes);
    return pair.decomp.Decompress(*CompressedAckRecord::Deserialize(r));
  };
  EXPECT_EQ(decode(c1.bytes).status, RohcDecompressor::Status::kOk);
  EXPECT_EQ(decode(c2.bytes).status, RohcDecompressor::Status::kOk);
  EXPECT_EQ(decode(c1.bytes).status, RohcDecompressor::Status::kDuplicate);
  EXPECT_EQ(decode(c2.bytes).status, RohcDecompressor::Status::kDuplicate);
  auto r3 = decode(c3.bytes);
  ASSERT_EQ(r3.status, RohcDecompressor::Status::kOk);
  EXPECT_EQ(r3.packet->tcp().ack, 4000u);
}

TEST(RohcTest, NoContextWithoutBootstrap) {
  RohcCompressor comp;
  RohcDecompressor decomp;
  auto c = comp.Compress(MakeAck(2000));
  ByteReader r(c.bytes);
  auto rec = CompressedAckRecord::Deserialize(r);
  EXPECT_EQ(decomp.Decompress(*rec).status,
            RohcDecompressor::Status::kNoContext);
}

TEST(RohcTest, CorruptedDeltaPoisonsContextAndVanillaHeals) {
  RohcPair pair;
  pair.Bootstrap(MakeAck(1000));
  (void)pair.RoundTrip(MakeAck(2000));

  // Simulate a desync: a delta record compressed against context state the
  // decompressor never saw (as if an unconfirmed record were dropped).
  RohcCompressor::Result skipped = pair.comp.Compress(MakeAck(3000));
  (void)skipped;  // never delivered
  RohcCompressor::Result next = pair.comp.Compress(MakeAck(3500));
  ByteReader r(next.bytes);
  auto rec = CompressedAckRecord::Deserialize(r);
  auto result = pair.decomp.Decompress(*rec);
  EXPECT_EQ(result.status, RohcDecompressor::Status::kCrcFailure);
  EXPECT_EQ(pair.decomp.crc_failures(), 1u);

  // Further delta records are dropped as stale...
  RohcCompressor::Result more = pair.comp.Compress(MakeAck(3600));
  ByteReader r2(more.bytes);
  auto rec2 = CompressedAckRecord::Deserialize(r2);
  EXPECT_EQ(pair.decomp.Decompress(*rec2).status,
            RohcDecompressor::Status::kStale);

  // ...until a vanilla ACK re-anchors the context.
  Packet vanilla = MakeAck(4000, 110, 210);
  pair.decomp.NoteVanillaAck(vanilla);
  pair.comp.ForceRefresh(vanilla.Flow());
  auto healed = pair.RoundTrip(MakeAck(5000, 110, 210));
  EXPECT_EQ(healed.status, RohcDecompressor::Status::kOk);
}

TEST(RohcTest, VanillaFallbackThenRefreshChainsCorrectly) {
  RohcPair pair;
  pair.Bootstrap(MakeAck(1000));
  (void)pair.RoundTrip(MakeAck(2000));
  // Vanilla fallback (e.g. MORE DATA cleared).
  Packet vanilla = MakeAck(3000, 103, 203);
  pair.comp.ForceRefresh(vanilla.Flow());
  pair.decomp.NoteVanillaAck(vanilla);
  // Next compressed record must be a refresh and must decode.
  Packet after = MakeAck(4000, 104, 204);
  RohcCompressor::Result c = pair.comp.Compress(after);
  EXPECT_TRUE(c.was_refresh);
  ByteReader r(c.bytes);
  auto result =
      pair.decomp.Decompress(*CompressedAckRecord::Deserialize(r));
  ASSERT_EQ(result.status, RohcDecompressor::Status::kOk);
  EXPECT_EQ(SerializePacket(*result.packet), SerializePacket(after));
}

TEST(RohcTest, StaleVanillaDoesNotRewindContext) {
  // A vanilla ACK older than the newest compressed state must not rewind
  // the decompressor (DCF-queued vanillas can arrive late).
  RohcPair pair;
  pair.Bootstrap(MakeAck(1000));
  (void)pair.RoundTrip(MakeAck(5000));
  pair.decomp.NoteVanillaAck(MakeAck(2000));  // late, stale
  auto result = pair.RoundTrip(MakeAck(5100, 101, 201));
  EXPECT_EQ(result.status, RohcDecompressor::Status::kOk);
  EXPECT_EQ(result.packet->tcp().ack, 5100u);
}

TEST(RohcTest, EqualAckOlderTimestampVanillaDoesNotRewind) {
  // Regression: a DCF-delayed vanilla *dupack* (equal ACK number, older
  // timestamps) must not rewind the context's timestamp state either —
  // this desynced the delta chain in early versions.
  RohcPair pair;
  pair.Bootstrap(MakeAck(1000, 100, 200));
  (void)pair.RoundTrip(MakeAck(5000, 150, 250));
  pair.decomp.NoteVanillaAck(MakeAck(5000, 120, 220));  // late dupack
  Packet next = MakeAck(5000, 151, 251);  // compressed dupack, newer ts
  auto result = pair.RoundTrip(next);
  ASSERT_EQ(result.status, RohcDecompressor::Status::kOk);
  EXPECT_EQ(SerializePacket(*result.packet), SerializePacket(next));
}

TEST(RohcTest, CidCollisionFallsBackToVanilla) {
  // Find two distinct flows with the same CID, then check the younger one
  // is refused compression.
  FiveTuple base{Ipv4Address::FromOctets(10, 0, 2, 1),
                 Ipv4Address::FromOctets(10, 0, 0, 1), 6000, 5000, 6};
  uint8_t cid = base.RohcCid();
  uint16_t collider_port = 0;
  for (uint16_t p = 6001; p != 6000; ++p) {
    FiveTuple t = base;
    t.src_port = p;
    if (t.RohcCid() == cid) {
      collider_port = p;
      break;
    }
  }
  ASSERT_NE(collider_port, 0);
  RohcCompressor comp;
  EXPECT_FALSE(comp.Compress(MakeAck(1000, 1, 1, 100, 6000)).bytes.empty());
  EXPECT_TRUE(
      comp.Compress(MakeAck(1000, 1, 1, 100, collider_port)).bytes.empty());
  EXPECT_EQ(comp.cid_collisions(), 1u);
}

// Property sweep: randomized ACK streams (strides, dupacks, ts jitter,
// window changes) always reconstruct byte-identically in order.
class RohcPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RohcPropertyTest, RandomStreamsRoundTrip) {
  Random rng(GetParam());
  RohcPair pair;
  uint32_t ack = 1000;
  uint32_t tsval = 50;
  uint32_t tsecr = 80;
  uint16_t window = 32768;
  pair.Bootstrap(MakeAck(ack, tsval, tsecr, window));
  for (int i = 0; i < 300; ++i) {
    switch (rng.NextBounded(5)) {
      case 0:
        break;  // dupack
      case 1:
        ack += 2920;
        break;
      case 2:
        ack += static_cast<uint32_t>(rng.NextBounded(100000));
        break;
      case 3:
        tsval += static_cast<uint32_t>(rng.NextBounded(400));
        break;
      default:
        window = static_cast<uint16_t>(1 + rng.NextBounded(65535));
        break;
    }
    tsecr += static_cast<uint32_t>(rng.NextBounded(3));
    Packet original = MakeAck(ack, tsval, tsecr, window);
    auto result = pair.RoundTrip(original);
    ASSERT_EQ(result.status, RohcDecompressor::Status::kOk) << "i=" << i;
    ASSERT_EQ(SerializePacket(*result.packet), SerializePacket(original))
        << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RohcPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Compression-ratio property: steady bulk streams compress ~12x or better
// (Table 2 reports 12x).
TEST(RohcTest, BulkStreamCompressionRatio) {
  RohcCompressor comp;
  uint64_t bytes = 0;
  int n = 1000;
  uint32_t tsval = 100;
  for (int i = 0; i < n; ++i) {
    if (i % 9 == 0) {
      ++tsval;  // ~ms-granularity timestamp ticks
    }
    auto r = comp.Compress(MakeAck(1000 + i * 2920, tsval, tsval));
    bytes += r.bytes.size();
  }
  double ratio = 52.0 * n / static_cast<double>(bytes);
  EXPECT_GT(ratio, 12.0);
}

}  // namespace
}  // namespace hacksim
