// Adversarial decode suite for the matrix wire codec: headers are
// untrusted bytes once buffers arrive over a socket, so hostile
// dimensions must be rejected before any size arithmetic (which would
// otherwise wrap uint64 and turn the payload memcpy into a heap
// overflow) — InvalidArgument, never a crash. Runs under ASan in CI.
#include "exec/ipc.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace explainit::exec {
namespace {

constexpr size_t kHeaderBytes = sizeof(uint32_t) + 2 * sizeof(uint64_t);

/// Builds a buffer with the given header and payload size.
std::vector<uint8_t> MakeBuffer(uint64_t rows, uint64_t cols,
                                size_t payload_bytes) {
  la::Matrix probe(1, 1);
  std::vector<uint8_t> buf = EncodeMatrix(probe);
  buf.resize(kHeaderBytes + payload_bytes);
  std::memcpy(buf.data() + sizeof(uint32_t), &rows, sizeof(rows));
  std::memcpy(buf.data() + sizeof(uint32_t) + sizeof(uint64_t), &cols,
              sizeof(cols));
  return buf;
}

TEST(IpcTest, RoundTripsAMatrix) {
  la::Matrix m(3, 5);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 5; ++c) m(r, c) = static_cast<double>(r * 5 + c);
  }
  auto back = DecodeMatrix(EncodeMatrix(m));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->rows(), 3u);
  ASSERT_EQ(back->cols(), 5u);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 5; ++c) EXPECT_EQ((*back)(r, c), m(r, c));
  }
}

TEST(IpcTest, RejectsTruncatedHeader) {
  const std::vector<uint8_t> buf(kHeaderBytes - 1, 0);
  auto m = DecodeMatrix(buf);
  EXPECT_TRUE(m.status().IsInvalidArgument());
}

TEST(IpcTest, RejectsBadMagic) {
  std::vector<uint8_t> buf = EncodeMatrix(la::Matrix(2, 2));
  buf[0] ^= 0xFF;
  auto m = DecodeMatrix(buf);
  EXPECT_TRUE(m.status().IsInvalidArgument());
}

TEST(IpcTest, RejectsRowsColsProductWrappingToZeroPayload) {
  // rows = 2^61, cols = 8: rows*cols*sizeof(double) wraps uint64 to 0,
  // so the unchecked `expected` would equal the bare header size and the
  // la::Matrix(2^61, 8) construction would explode.
  auto m = DecodeMatrix(MakeBuffer(uint64_t{1} << 61, 8, 0));
  ASSERT_FALSE(m.ok());
  EXPECT_TRUE(m.status().IsInvalidArgument());
}

TEST(IpcTest, RejectsElementCountWrappingToSmallPayload) {
  // rows = cols = 2^32: the product wraps to 0 elements; a short buffer
  // would satisfy the unchecked size equation exactly.
  auto m = DecodeMatrix(MakeBuffer(uint64_t{1} << 32, uint64_t{1} << 32, 0));
  ASSERT_FALSE(m.ok());
  EXPECT_TRUE(m.status().IsInvalidArgument());
}

TEST(IpcTest, RejectsByteSizeWrap) {
  // Dimensions under the per-dimension cap whose element count exceeds
  // the element cap (and whose byte size would overflow downstream
  // allocations on 32-bit size_t).
  auto m = DecodeMatrix(MakeBuffer(uint64_t{1} << 24, uint64_t{1} << 24, 0));
  ASSERT_FALSE(m.ok());
  EXPECT_TRUE(m.status().IsInvalidArgument());
}

TEST(IpcTest, RejectsDimensionPastCap) {
  auto m = DecodeMatrix(MakeBuffer(kMaxMatrixDim + 1, 1, 8));
  ASSERT_FALSE(m.ok());
  EXPECT_TRUE(m.status().IsInvalidArgument());
}

TEST(IpcTest, RejectsPayloadSizeMismatch) {
  // Honest dimensions, dishonest payload length (one row short).
  auto m = DecodeMatrix(MakeBuffer(4, 2, 3 * 2 * sizeof(double)));
  ASSERT_FALSE(m.ok());
  EXPECT_TRUE(m.status().IsInvalidArgument());
}

TEST(IpcTest, RejectsTrailingGarbage) {
  std::vector<uint8_t> buf = EncodeMatrix(la::Matrix(2, 2));
  buf.push_back(0x00);
  auto m = DecodeMatrix(buf);
  EXPECT_TRUE(m.status().IsInvalidArgument());
}

TEST(IpcTest, AcceptsZeroByZero) {
  auto m = DecodeMatrix(EncodeMatrix(la::Matrix(0, 0)));
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->rows(), 0u);
  EXPECT_EQ(m->cols(), 0u);
}

TEST(IpcTest, RoundTripAccumulatesTime) {
  la::Matrix m(100, 50);
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) m(r, c) = 0.25 * (r + 3.0 * c);
  }
  double seconds = 0.0;
  auto back = RoundTripMatrix(m, &seconds);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), m);
  EXPECT_GT(seconds, 0.0);
}

}  // namespace
}  // namespace explainit::exec
