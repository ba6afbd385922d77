// Tests for TKO_Message (zero-copy rope), checksums, and the PDU codec.
#include "tko/checksum.hpp"
#include "tko/message.hpp"
#include "tko/pdu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>

namespace adaptive::tko {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int x : v) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

std::vector<std::uint8_t> iota_bytes(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  std::iota(out.begin(), out.end(), 0);
  return out;
}

TEST(Message, FromBytesAndLinearize) {
  const auto data = iota_bytes(100);
  auto m = Message::from_bytes(data);
  EXPECT_EQ(m.size(), 100u);
  EXPECT_EQ(m.linearize(), data);
}

TEST(Message, PushPopHeaders) {
  auto m = Message::from_bytes(iota_bytes(10));
  m.push(bytes({0xAA, 0xBB}));
  EXPECT_EQ(m.size(), 12u);
  const auto h = m.pop(2);
  EXPECT_EQ(h, bytes({0xAA, 0xBB}));
  EXPECT_EQ(m.size(), 10u);
  EXPECT_EQ(m.linearize(), iota_bytes(10));
}

TEST(Message, PushDoesNotCopyPayload) {
  os::BufferPool pool;
  auto m = Message::from_bytes(iota_bytes(1000), &pool);
  const auto copies_before = pool.stats().copied_bytes;
  m.push(bytes({1, 2, 3, 4}));
  EXPECT_EQ(pool.stats().copied_bytes, copies_before);  // header prepend is copy-free
}

TEST(Message, PopAcrossSegments) {
  auto m = Message::from_bytes(bytes({1, 2}));
  m.push(bytes({0xFF}));  // segments: [FF][1 2]
  const auto head = m.pop(2);
  EXPECT_EQ(head, bytes({0xFF, 1}));
  EXPECT_EQ(m.linearize(), bytes({2}));
  EXPECT_THROW((void)m.pop(5), std::out_of_range);
}

TEST(Message, PeekDoesNotConsume) {
  auto m = Message::from_bytes(iota_bytes(16));
  EXPECT_EQ(m.peek(4), bytes({0, 1, 2, 3}));
  EXPECT_EQ(m.size(), 16u);
}

TEST(Message, SplitSharesBuffers) {
  os::BufferPool pool;
  auto m = Message::from_bytes(iota_bytes(100), &pool);
  const auto copies_before = pool.stats().copied_bytes;
  auto tail = m.split(40);
  EXPECT_EQ(m.size(), 40u);
  EXPECT_EQ(tail.size(), 60u);
  EXPECT_EQ(pool.stats().copied_bytes, copies_before);  // zero-copy split
  auto all = m.linearize();
  const auto t = tail.linearize();
  all.insert(all.end(), t.begin(), t.end());
  EXPECT_EQ(all, iota_bytes(100));
}

TEST(Message, SplitEdgeCases) {
  auto m = Message::from_bytes(iota_bytes(10));
  auto tail = m.split(0);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(tail.size(), 10u);
  auto tail2 = tail.split(10);
  EXPECT_EQ(tail.size(), 10u);
  EXPECT_EQ(tail2.size(), 0u);
  EXPECT_THROW((void)tail.split(11), std::out_of_range);
}

TEST(Message, ConcatReassembles) {
  auto a = Message::from_bytes(bytes({1, 2, 3}));
  auto b = Message::from_bytes(bytes({4, 5}));
  a.concat(std::move(b));
  EXPECT_EQ(a.size(), 5u);
  EXPECT_EQ(a.linearize(), bytes({1, 2, 3, 4, 5}));
}

TEST(Message, CloneIsShallowDeepCopyIsNot) {
  os::BufferPool pool;
  auto m = Message::from_bytes(iota_bytes(50), &pool);
  pool.reset_stats();
  auto shallow = m.clone();
  EXPECT_EQ(pool.stats().copied_bytes, 0u);
  auto deep = m.deep_copy();
  EXPECT_GE(pool.stats().copied_bytes, 50u);
  EXPECT_EQ(shallow.linearize(), deep.linearize());
}

TEST(Message, SegmentIterationCoversAllBytes) {
  auto m = Message::from_bytes(iota_bytes(10));
  m.push(bytes({0xEE}));
  m.append(bytes({0xDD}));
  std::vector<std::uint8_t> seen;
  m.for_each_segment([&](std::span<const std::uint8_t> s) {
    seen.insert(seen.end(), s.begin(), s.end());
  });
  EXPECT_EQ(seen, m.linearize());
  EXPECT_EQ(m.segment_count(), 3u);
}

// ---------------------------------------------------------------------------
// Copy-ledger discipline: the pool's copy counters must agree exactly with
// real memcpy traffic. Producing bytes into a message (append/push/filled)
// is ingress and records nothing; every read or gather that physically
// duplicates message bytes records exactly the bytes moved.
// ---------------------------------------------------------------------------

TEST(CopyLedger, IngressRecordsNothing) {
  os::BufferPool pool;
  auto m = Message::from_bytes(iota_bytes(100), &pool);
  m.append(iota_bytes(50));
  m.push(bytes({1, 2, 3, 4}));
  auto w = m.push_uninit(8);
  std::fill(w.begin(), w.end(), std::uint8_t{0});
  EXPECT_EQ(pool.stats().copies, 0u);
  EXPECT_EQ(pool.stats().copied_bytes, 0u);
}

TEST(CopyLedger, PopPeekRecordExactBytes) {
  os::BufferPool pool;
  auto m = Message::from_bytes(iota_bytes(100), &pool);
  (void)m.peek(8);
  EXPECT_EQ(pool.stats().copied_bytes, 8u);
  (void)m.pop(12);
  EXPECT_EQ(pool.stats().copied_bytes, 20u);
  EXPECT_EQ(pool.stats().copies, 2u);
}

TEST(CopyLedger, ConsumeTruncateSplitConcatAreCopyFree) {
  os::BufferPool pool;
  auto m = Message::from_bytes(iota_bytes(60), &pool);
  m.push(bytes({9, 9, 9, 9}));
  m.consume(4);                 // offset adjust, not a pop
  auto tail = m.split(20);      // shared buffers
  m.concat(std::move(tail));    // splice back
  m.truncate(30);               // segment trim
  EXPECT_EQ(pool.stats().copied_bytes, 0u);
  EXPECT_EQ(m.linearize(), iota_bytes(30));
  EXPECT_EQ(pool.stats().copied_bytes, 30u);  // the linearize itself
}

TEST(CopyLedger, LinearizeRecordsOnlyWhenBytesExist) {
  os::BufferPool pool;
  Message empty(&pool);
  EXPECT_TRUE(empty.linearize().empty());
  EXPECT_EQ(pool.stats().copied_bytes, 0u);
  // A single-segment message still physically duplicates every byte into
  // the returned vector — the ledger must say so (the old predicate
  // recorded for any non-empty message by accident of a tautology; the
  // count itself was right, the reasoning was not).
  auto m = Message::from_bytes(iota_bytes(50), &pool);
  (void)m.linearize();
  EXPECT_EQ(pool.stats().copied_bytes, 50u);
  EXPECT_EQ(pool.stats().copies, 1u);
}

TEST(CopyLedger, DeepCopyRecordsOnePassExactly) {
  os::BufferPool pool;
  auto m = Message::from_bytes(iota_bytes(40), &pool);
  m.push(bytes({1, 2}));
  m.append(bytes({3, 4}));  // 3 segments, 44 bytes
  pool.reset_stats();
  auto deep = m.deep_copy();
  // One physical gather pass: exactly size() bytes, exactly one ledger
  // entry (the old implementation copied twice and recorded once).
  EXPECT_EQ(pool.stats().copied_bytes, 44u);
  EXPECT_EQ(pool.stats().copies, 1u);
  EXPECT_EQ(deep.segment_count(), 1u);
  EXPECT_EQ(deep.linearize(), m.linearize());
}

TEST(CopyLedger, ContiguousPrefixBorrowsWithoutRecording) {
  os::BufferPool pool;
  auto m = Message::from_bytes(iota_bytes(10), &pool);
  m.push(bytes({7, 8, 9}));
  const auto got = m.contiguous_prefix(3);  // front segment covers it
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], 7);
  EXPECT_EQ(got[2], 9);
  EXPECT_TRUE(m.contiguous_prefix(4).empty());  // crosses a boundary: decline
  EXPECT_EQ(m.size(), 13u);
  EXPECT_EQ(pool.stats().copied_bytes, 0u);
}

TEST(CopyLedger, FlatBorrowsSingleSegmentGathersMultiOnce) {
  os::BufferPool pool;
  auto m = Message::from_bytes(iota_bytes(64), &pool);
  const auto borrowed = m.flat();
  EXPECT_EQ(borrowed.size(), 64u);
  EXPECT_EQ(pool.stats().copied_bytes, 0u);  // single segment: pure borrow
  m.append(iota_bytes(36));
  const auto gathered = m.flat();
  EXPECT_EQ(gathered.size(), 100u);
  EXPECT_EQ(pool.stats().copied_bytes, 100u);  // one recorded gather
  (void)m.flat();
  EXPECT_EQ(pool.stats().copied_bytes, 100u);  // now flat: borrow again
}

TEST(CopyLedger, MutableBytesCopiesOnlyWhenAliased) {
  os::BufferPool pool;
  auto m = Message::from_bytes(iota_bytes(32), &pool);
  (void)m.mutable_bytes();
  EXPECT_EQ(pool.stats().copied_bytes, 0u);  // sole owner: in-place
  auto keeper = m.clone();                   // retransmission-store alias
  auto view = m.mutable_bytes();
  EXPECT_EQ(pool.stats().copied_bytes, 32u);  // unshare recorded
  view[0] = 0xFF;
  EXPECT_EQ(keeper.peek(1)[0], 0u);  // the shared copy stayed pristine
}

TEST(Lifecycle, ConcatAdoptsTailIdAndSplitPropagates) {
  auto m = Message::from_bytes(iota_bytes(20));
  m.set_lifecycle(9);
  auto tail = m.split(12);
  EXPECT_EQ(tail.lifecycle(), 9u);  // split propagates
  // Reassembly starts from an untracked accumulator; splicing in a tracked
  // segment must keep the TSDU attributable (the bug fix: concat used to
  // drop the tail's id and break span stitching in unites::assemble_spans).
  Message assembly;
  assembly.concat(std::move(tail));
  EXPECT_EQ(assembly.lifecycle(), 9u);
  assembly.concat(std::move(m));
  EXPECT_EQ(assembly.lifecycle(), 9u);  // an existing id is never overwritten
  auto other = Message::from_bytes(iota_bytes(4));
  other.set_lifecycle(5);
  assembly.concat(std::move(other));
  EXPECT_EQ(assembly.lifecycle(), 9u);
}

TEST(Lifecycle, SurvivesSplitConcatRoundTrip) {
  auto m = Message::from_bytes(iota_bytes(30));
  m.set_lifecycle(3);
  auto tail = m.split(10);
  m.concat(std::move(tail));
  EXPECT_EQ(m.lifecycle(), 3u);
  EXPECT_EQ(m.linearize(), iota_bytes(30));
  EXPECT_EQ(m.deep_copy().lifecycle(), 3u);
}

TEST(ZeroCopy, SendPathKeepsPayloadSegmentsUntouched) {
  // encode_pdu must produce headers in place and stream the checksum: the
  // payload segments ride through with no recorded copy in either trailer
  // checksum mode.
  for (const auto kind : {ChecksumKind::kInternet16, ChecksumKind::kCrc32}) {
    os::BufferPool pool;
    Pdu p;
    p.type = PduType::kData;
    p.payload = Message::from_bytes(iota_bytes(1200), &pool);
    pool.reset_stats();
    auto wire = encode_pdu(std::move(p), kind, ChecksumPlacement::kTrailer);
    EXPECT_EQ(pool.stats().copied_bytes, 0u);
    // Decode strips the header by offset adjustment, verifies the trailer
    // in place, and hands the payload segments back: still no copies.
    auto r = decode_pdu(std::move(wire));
    ASSERT_EQ(r.status, DecodeStatus::kOk);
    EXPECT_EQ(pool.stats().copied_bytes, 0u);
    EXPECT_EQ(r.pdu.payload.size(), 1200u);
  }
}

TEST(ZeroCopy, StreamingInternetChecksumMatchesFlatAtOddBoundaries) {
  const auto data = iota_bytes(1001);  // odd total
  InternetChecksum inc;
  // Feed with odd-length segments so word sums straddle every boundary.
  inc.update(std::span(data).subspan(0, 1));
  inc.update(std::span(data).subspan(1, 333));
  inc.update(std::span(data).subspan(334, 5));
  inc.update(std::span(data).subspan(339));
  EXPECT_EQ(inc.value(), internet_checksum(data));
}

/// Reference one's-complement sum: the word-at-a-time legacy core, folded.
std::uint16_t reference_ones_sum(std::span<const std::uint8_t> data) {
  std::uint64_t sum = detail::ones_sum_be_bytewise(data);
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(sum);
}

TEST(Checksum, TwoAccumulatorSumMatchesBytewiseReference) {
  // Every length 0..64 at every start offset 0..7 (odd offsets included),
  // over random bytes plus the all-0xFF and all-zero extremes where the
  // one's-complement end-around carries pile up.
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<std::uint8_t>(state);
  };
  for (int fill = 0; fill < 3; ++fill) {
    std::vector<std::uint8_t> buf(64 + 8);
    for (auto& b : buf) b = fill == 0 ? next() : (fill == 1 ? 0xFF : 0x00);
    for (std::size_t len = 0; len <= 64; ++len) {
      for (std::size_t off = 0; off < 8; ++off) {
        const auto span = std::span<const std::uint8_t>(buf).subspan(off, len);
        ASSERT_EQ(detail::ones_sum_be(span), reference_ones_sum(span))
            << "fill=" << fill << " len=" << len << " off=" << off;
      }
    }
  }
  // Long random buffers exercise the 16-byte main loop at length.
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> buf(1 + next() * 37u);
    for (auto& b : buf) b = next();
    ASSERT_EQ(detail::ones_sum_be(buf), reference_ones_sum(buf)) << "size=" << buf.size();
  }
}

TEST(Checksum, StreamingMatchesReferenceOverRandomSegmentation) {
  // Multi-segment messages cut at random (mostly odd) boundaries: the
  // streaming checksum must equal the bytewise reference over the whole.
  std::uint64_t state = 12345;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(state >> 33);
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> data(next() % 3000);
    for (auto& b : data) b = static_cast<std::uint8_t>(next());
    Message m;
    std::size_t pos = 0;
    while (pos < data.size()) {
      const std::size_t len = std::min<std::size_t>(data.size() - pos, 1 + next() % 97);
      m.append(std::span<const std::uint8_t>(data).subspan(pos, len));
      pos += len;
    }
    InternetChecksum inc;
    m.for_each_segment([&](std::span<const std::uint8_t> seg) { inc.update(seg); });
    const std::uint16_t expect = static_cast<std::uint16_t>(~reference_ones_sum(data) & 0xFFFF);
    ASSERT_EQ(inc.value(), expect) << "trial=" << trial << " segments=" << m.segment_count();
    ASSERT_EQ(internet_checksum(data), expect);
  }
}

TEST(Checksum, Rfc1071KnownVector) {
  // Classic example: bytes 00 01 f2 03 f4 f5 f6 f7 -> checksum 0x220d.
  const auto data = bytes({0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7});
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, OddLengthHandled) {
  const auto even = bytes({0x12, 0x34});
  const auto odd = bytes({0x12, 0x34, 0x56});
  EXPECT_NE(internet_checksum(even), internet_checksum(odd));
}

TEST(Checksum, Crc32KnownVector) {
  const std::string s = "123456789";
  std::vector<std::uint8_t> data(s.begin(), s.end());
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Checksum, Crc32IncrementalMatchesOneShot) {
  const auto data = iota_bytes(1000);
  Crc32 inc;
  inc.update(std::span(data).subspan(0, 137));
  inc.update(std::span(data).subspan(137, 400));
  inc.update(std::span(data).subspan(537));
  EXPECT_EQ(inc.value(), crc32(data));
}

TEST(Checksum, DetectsSingleBitFlip) {
  auto data = iota_bytes(500);
  const auto before16 = internet_checksum(data);
  const auto before32 = crc32(data);
  data[250] ^= 0x10;
  EXPECT_NE(internet_checksum(data), before16);
  EXPECT_NE(crc32(data), before32);
}

class PduCodec : public ::testing::TestWithParam<std::pair<ChecksumKind, ChecksumPlacement>> {};

TEST_P(PduCodec, RoundTrip) {
  const auto [kind, placement] = GetParam();
  Pdu p;
  p.type = PduType::kData;
  p.session_id = 0xDEADBEEF;
  p.seq = 42;
  p.ack = 41;
  p.window = 16;
  p.aux = 7;
  p.payload = Message::from_bytes(iota_bytes(300));

  auto wire = encode_pdu(std::move(p), kind, placement);
  auto r = decode_pdu(std::move(wire));
  ASSERT_EQ(r.status, DecodeStatus::kOk);
  EXPECT_EQ(r.pdu.type, PduType::kData);
  EXPECT_EQ(r.pdu.session_id, 0xDEADBEEFu);
  EXPECT_EQ(r.pdu.seq, 42u);
  EXPECT_EQ(r.pdu.ack, 41u);
  EXPECT_EQ(r.pdu.window, 16u);
  if (placement == ChecksumPlacement::kTrailer || kind == ChecksumKind::kNone) {
    EXPECT_EQ(r.pdu.aux, 7u);  // header placement sacrifices aux
  }
  EXPECT_EQ(r.pdu.payload.linearize(), iota_bytes(300));
}

TEST_P(PduCodec, DetectsPayloadCorruption) {
  const auto [kind, placement] = GetParam();
  if (kind == ChecksumKind::kNone) GTEST_SKIP() << "no detection configured";
  Pdu p;
  p.type = PduType::kData;
  p.seq = 1;
  p.payload = Message::from_bytes(iota_bytes(200));
  auto wire = encode_pdu(std::move(p), kind, placement);
  auto corrupt = wire.linearize();
  corrupt[kPduHeaderBytes + 50] ^= 0x01;
  auto r = decode_pdu(Message::from_bytes(corrupt));
  EXPECT_EQ(r.status, DecodeStatus::kChecksumMismatch);
}

INSTANTIATE_TEST_SUITE_P(
    AllDetectionModes, PduCodec,
    ::testing::Values(std::pair{ChecksumKind::kNone, ChecksumPlacement::kTrailer},
                      std::pair{ChecksumKind::kInternet16, ChecksumPlacement::kHeader},
                      std::pair{ChecksumKind::kInternet16, ChecksumPlacement::kTrailer},
                      std::pair{ChecksumKind::kCrc32, ChecksumPlacement::kTrailer}));

TEST(PduCodec, RejectsMalformed) {
  EXPECT_EQ(decode_pdu(Message::from_bytes(bytes({1, 2, 3}))).status, DecodeStatus::kMalformed);
  // Bad version byte.
  std::vector<std::uint8_t> junk(kPduHeaderBytes, 0);
  junk[0] = 99;
  EXPECT_EQ(decode_pdu(Message::from_bytes(junk)).status, DecodeStatus::kMalformed);
}

TEST(PduCodec, RejectsLengthMismatch) {
  Pdu p;
  p.type = PduType::kData;
  p.payload = Message::from_bytes(iota_bytes(50));
  auto wire = encode_pdu(std::move(p), ChecksumKind::kNone, ChecksumPlacement::kTrailer);
  auto trimmed = wire.linearize();
  trimmed.pop_back();
  EXPECT_EQ(decode_pdu(Message::from_bytes(trimmed)).status, DecodeStatus::kMalformed);
}

TEST(PduCodec, EmptyPayloadRoundTrip) {
  Pdu p;
  p.type = PduType::kAck;
  p.ack = 10;
  auto wire = encode_pdu(std::move(p), ChecksumKind::kInternet16, ChecksumPlacement::kTrailer);
  auto r = decode_pdu(std::move(wire));
  ASSERT_EQ(r.status, DecodeStatus::kOk);
  EXPECT_EQ(r.pdu.type, PduType::kAck);
  EXPECT_EQ(r.pdu.ack, 10u);
  EXPECT_EQ(r.pdu.payload.size(), 0u);
}

TEST(PduCodec, TrailerPlacementKeepsPayloadZeroCopy) {
  os::BufferPool pool;
  Pdu p;
  p.type = PduType::kData;
  p.payload = Message::from_bytes(iota_bytes(1000), &pool);
  pool.reset_stats();
  auto wire = encode_pdu(std::move(p), ChecksumKind::kCrc32, ChecksumPlacement::kTrailer);
  // CRC32 streams over segments: no payload copy during encode.
  EXPECT_EQ(pool.stats().copied_bytes, 0u);
  EXPECT_GT(wire.segment_count(), 1u);
}

TEST(PduCodec, HeaderPlacementForcesLinearization) {
  os::BufferPool pool;
  Pdu p;
  p.type = PduType::kData;
  p.payload = Message::from_bytes(iota_bytes(1000), &pool);
  pool.reset_stats();
  auto wire = encode_pdu(std::move(p), ChecksumKind::kInternet16, ChecksumPlacement::kHeader);
  EXPECT_GE(pool.stats().copied_bytes, 1000u);  // the extra pass footnote 2 decries
  EXPECT_EQ(wire.segment_count(), 1u);
}

}  // namespace
}  // namespace adaptive::tko
