#include "tsdb/compression.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>

#include "common/random.h"

namespace explainit::tsdb {
namespace {

TEST(BitStreamTest, RoundTripMixedWidths) {
  BitWriter w;
  w.WriteBits(0b101, 3);
  w.WriteBit(true);
  w.WriteBits(0xDEADBEEFCAFEBABEULL, 64);
  w.WriteBits(0, 5);
  BitReader r(w.bytes(), w.bit_count());
  EXPECT_EQ(r.ReadBits(3).value(), 0b101u);
  EXPECT_TRUE(r.ReadBit().value());
  EXPECT_EQ(r.ReadBits(64).value(), 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(r.ReadBits(5).value(), 0u);
  EXPECT_EQ(r.bits_remaining(), 0u);
}

TEST(BitStreamTest, ReadPastEndFails) {
  BitWriter w;
  w.WriteBits(1, 1);
  BitReader r(w.bytes(), w.bit_count());
  EXPECT_TRUE(r.ReadBit().ok());
  EXPECT_FALSE(r.ReadBit().ok());
}

TEST(CompressedBlockTest, SinglePoint) {
  CompressedBlock block;
  ASSERT_TRUE(block.Append(1000, 3.25).ok());
  auto points = block.Decode();
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), 1u);
  EXPECT_EQ((*points)[0].first, 1000);
  EXPECT_EQ((*points)[0].second, 3.25);
}

TEST(CompressedBlockTest, RegularMinuteGridRoundTrip) {
  CompressedBlock block;
  Rng rng(1);
  std::vector<std::pair<EpochSeconds, double>> expected;
  double v = 100.0;
  for (int i = 0; i < 2880; ++i) {  // two days of minutes
    v += rng.Normal() * 0.5;
    const EpochSeconds t = 1500000000 + i * 60;
    expected.emplace_back(t, v);
    ASSERT_TRUE(block.Append(t, v).ok());
  }
  auto points = block.Decode();
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*points)[i].first, expected[i].first);
    EXPECT_EQ((*points)[i].second, expected[i].second) << i;
  }
}

TEST(CompressedBlockTest, RegularGridCompressesWell) {
  // Constant-delta timestamps + slowly varying values should compress far
  // below 16 bytes/point.
  CompressedBlock block;
  for (int i = 0; i < 1440; ++i) {
    ASSERT_TRUE(block.Append(i * 60, 42.0).ok());
  }
  const double bytes_per_point =
      static_cast<double>(block.byte_size()) / 1440.0;
  EXPECT_LT(bytes_per_point, 0.5);  // constant series ~2 bits/point
}

TEST(CompressedBlockTest, IrregularTimestampsRoundTrip) {
  CompressedBlock block;
  std::vector<EpochSeconds> ts = {0, 60, 121, 185, 185, 1000000, 1000060};
  std::vector<double> vs = {1.0, -2.5, 1e300, -1e-300, 0.0,
                            std::numeric_limits<double>::infinity(), 7.0};
  for (size_t i = 0; i < ts.size(); ++i) {
    ASSERT_TRUE(block.Append(ts[i], vs[i]).ok()) << i;
  }
  auto points = block.Decode();
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), ts.size());
  for (size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ((*points)[i].first, ts[i]);
    EXPECT_EQ((*points)[i].second, vs[i]);
  }
}

TEST(CompressedBlockTest, NanRoundTrip) {
  CompressedBlock block;
  ASSERT_TRUE(block.Append(0, std::nan("")).ok());
  ASSERT_TRUE(block.Append(60, 1.0).ok());
  ASSERT_TRUE(block.Append(120, std::nan("")).ok());
  auto points = block.Decode();
  ASSERT_TRUE(points.ok());
  EXPECT_TRUE(std::isnan((*points)[0].second));
  EXPECT_EQ((*points)[1].second, 1.0);
  EXPECT_TRUE(std::isnan((*points)[2].second));
}

TEST(CompressedBlockTest, RejectsDecreasingTimestamps) {
  CompressedBlock block;
  ASSERT_TRUE(block.Append(100, 1.0).ok());
  EXPECT_FALSE(block.Append(99, 2.0).ok());
}

TEST(CompressedBlockTest, NegativeDeltaOfDelta) {
  // Delta shrinks: 0, +100, +10 -> dod = -90.
  CompressedBlock block;
  ASSERT_TRUE(block.Append(0, 1.0).ok());
  ASSERT_TRUE(block.Append(100, 2.0).ok());
  ASSERT_TRUE(block.Append(110, 3.0).ok());
  auto points = block.Decode();
  ASSERT_TRUE(points.ok());
  EXPECT_EQ((*points)[2].first, 110);
}

// Flips the lowest mantissa bit, producing an XOR with 63 leading zeros —
// more than the 5-bit leading field can hold, so Append must clamp to 31.
double FlipLowBit(double v) {
  return std::bit_cast<double>(std::bit_cast<uint64_t>(v) ^ 1ull);
}

TEST(CompressedBlockTest, SnapshotRoundTripContinuesAppending) {
  CompressedBlock block;
  std::vector<std::pair<EpochSeconds, double>> expected;
  auto append = [&expected](CompressedBlock& blk, EpochSeconds ts, double v) {
    ASSERT_TRUE(blk.Append(ts, v).ok());
    expected.emplace_back(ts, v);
  };

  EpochSeconds t = 1600000000;
  double v = 42.0;
  append(block, t, v);
  append(block, t += 60, v);          // x == 0, dod == 0
  append(block, t += 60, v = 43.5);   // new XOR window
  append(block, t += 60, v = 43.25);  // another window
  append(block, t += 1000000, v);     // dod ≈ 1e6: 64-bit escape bucket
  append(block, t += 60, v = FlipLowBit(v));  // leading = 63, clamped to 31
  append(block, t += 60, v = FlipLowBit(v));  // x == 1 again: window reuse

  // Snapshot mid-stream, restore, and keep appending to the restored block.
  std::vector<uint8_t> buffer;
  block.Serialize(&buffer);
  size_t offset = 0;
  auto restored = CompressedBlock::Deserialize(buffer, &offset);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(offset, buffer.size());
  EXPECT_EQ(restored->num_points(), block.num_points());

  append(*restored, t += 60, v);                  // x == 0 after reload
  append(*restored, t += 60, v = FlipLowBit(v));  // reuse the reloaded window
  append(*restored, t += 5000000, v = -1.0);      // escape bucket again
  append(*restored, t += 60, v = 42.0);
  append(*restored, t, v);  // duplicate timestamp (dod flips sign)

  auto points = restored->Decode();
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*points)[i].first, expected[i].first) << i;
    EXPECT_EQ((*points)[i].second, expected[i].second) << i;
  }
}

TEST(CompressedBlockTest, SnapshotEveryFewPointsStaysLossless) {
  // Random walk with occasional timestamp jumps and low-bit perturbations,
  // snapshotting (serialize + deserialize) every 97 appends.
  Rng rng(9);
  CompressedBlock block;
  std::vector<std::pair<EpochSeconds, double>> expected;
  EpochSeconds t = 0;
  double v = 100.0;
  for (int i = 0; i < 600; ++i) {
    switch (rng.UniformInt(5)) {
      case 0:
        break;  // exact repeat: x == 0
      case 1:
        v = FlipLowBit(v);  // forces the leading > 31 clamp path
        break;
      default:
        v += rng.Normal();
    }
    t += rng.UniformInt(20) == 0 ? 1000000 : 60;  // occasional escape bucket
    ASSERT_TRUE(block.Append(t, v).ok()) << i;
    expected.emplace_back(t, v);
    if (i % 97 == 96) {
      std::vector<uint8_t> buffer;
      block.Serialize(&buffer);
      size_t offset = 0;
      auto restored = CompressedBlock::Deserialize(buffer, &offset);
      ASSERT_TRUE(restored.ok()) << i;
      block = std::move(restored).value();
    }
  }
  auto points = block.Decode();
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*points)[i].first, expected[i].first) << i;
    EXPECT_EQ((*points)[i].second, expected[i].second) << i;
  }
}

TEST(CompressedBlockTest, DeserializeConsumesConcatenatedBlocks) {
  CompressedBlock a, b;
  ASSERT_TRUE(a.Append(0, 1.0).ok());
  ASSERT_TRUE(a.Append(60, 2.0).ok());
  ASSERT_TRUE(b.Append(1000, -3.0).ok());
  std::vector<uint8_t> buffer;
  a.Serialize(&buffer);
  b.Serialize(&buffer);
  size_t offset = 0;
  auto ra = CompressedBlock::Deserialize(buffer, &offset);
  ASSERT_TRUE(ra.ok());
  EXPECT_EQ(ra->num_points(), 2u);
  auto rb = CompressedBlock::Deserialize(buffer, &offset);
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(rb->num_points(), 1u);
  EXPECT_EQ(offset, buffer.size());
  EXPECT_FALSE(CompressedBlock::Deserialize(buffer, &offset).ok());
}

// Hostile snapshot bytes: every size field in a serialized block is
// untrusted, and a bad one must come back as a typed ParseError — never a
// throw, an abort or a read out of bounds.
constexpr size_t kBitCountField = 48;  // header offsets (u64 fields)
constexpr size_t kPayloadField = 56;

std::vector<uint8_t> TwoPointBlock() {
  CompressedBlock block;
  EXPECT_TRUE(block.Append(0, 1.0).ok());
  EXPECT_TRUE(block.Append(60, 2.0).ok());
  std::vector<uint8_t> buffer;
  block.Serialize(&buffer);
  return buffer;
}

void PutU64(std::vector<uint8_t>* buffer, size_t at, uint64_t v) {
  std::memcpy(buffer->data() + at, &v, sizeof(v));
}

void ExpectParseError(const std::vector<uint8_t>& buffer) {
  size_t offset = 0;
  auto r = CompressedBlock::Deserialize(buffer, &offset);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError)
      << r.status().ToString();
}

TEST(CompressedBlockTest, DeserializeRejectsWrappingPayloadSize) {
  std::vector<uint8_t> buffer = TwoPointBlock();
  // header (64 bytes) + payload wraps to 0: passes a naive sum check.
  PutU64(&buffer, kPayloadField, ~uint64_t{0} - 63);
  ExpectParseError(buffer);
  PutU64(&buffer, kPayloadField, ~uint64_t{0});
  ExpectParseError(buffer);
}

TEST(CompressedBlockTest, DeserializeRejectsBitCountBeyondPayload) {
  std::vector<uint8_t> buffer = TwoPointBlock();
  // (bit_count + 7) / 8 wraps to 0 for the largest counts.
  PutU64(&buffer, kBitCountField, ~uint64_t{0});
  ExpectParseError(buffer);
  PutU64(&buffer, kBitCountField, ~uint64_t{0} - 6);
  ExpectParseError(buffer);
}

TEST(CompressedBlockTest, DeserializeRejectsPointCountBeyondPayload) {
  std::vector<uint8_t> buffer = TwoPointBlock();
  PutU64(&buffer, 0, uint64_t{1} << 60);  // num_points: Decode would reserve
  ExpectParseError(buffer);
}

TEST(CompressedBlockTest, DeserializeTruncatedAtEveryLengthIsParseError) {
  const std::vector<uint8_t> buffer = TwoPointBlock();
  for (size_t len = 0; len < buffer.size(); ++len) {
    SCOPED_TRACE(len);
    ExpectParseError(
        std::vector<uint8_t>(buffer.begin(), buffer.begin() + len));
  }
  size_t offset = buffer.size() + 5;  // a cursor already past the end
  EXPECT_FALSE(CompressedBlock::Deserialize(buffer, &offset).ok());
}

// Property sweep over random walks with different volatilities.
class CompressionRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(CompressionRoundTrip, LosslessAcrossVolatility) {
  const double vol = GetParam();
  Rng rng(static_cast<uint64_t>(vol * 1000) + 7);
  CompressedBlock block;
  std::vector<double> expected;
  double v = 50.0;
  EpochSeconds t = 0;
  for (int i = 0; i < 500; ++i) {
    v += rng.Normal() * vol;
    t += 60 + (rng.UniformInt(10) == 0 ? rng.UniformInt(600) : 0);
    expected.push_back(v);
    ASSERT_TRUE(block.Append(t, v).ok());
  }
  auto points = block.Decode();
  ASSERT_TRUE(points.ok());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*points)[i].second, expected[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Volatility, CompressionRoundTrip,
                         ::testing::Values(0.0, 0.001, 0.1, 10.0, 1e6));

}  // namespace
}  // namespace explainit::tsdb
