#include "common/serialize.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace ldpjs {
namespace {

TEST(SerializeTest, ScalarRoundTrip) {
  BinaryWriter writer;
  writer.PutU8(7);
  writer.PutU32(0xdeadbeef);
  writer.PutU64(0x0123456789abcdefULL);
  writer.PutI64(-42);
  writer.PutDouble(3.14159);

  BinaryReader reader(writer.buffer());
  EXPECT_EQ(*reader.GetU8(), 7);
  EXPECT_EQ(*reader.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(*reader.GetU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(*reader.GetI64(), -42);
  EXPECT_EQ(*reader.GetDouble(), 3.14159);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(SerializeTest, DoubleVectorRoundTrip) {
  BinaryWriter writer;
  std::vector<double> values{1.5, -2.5, 0.0, 1e300, -1e-300};
  writer.PutDoubleVector(values);
  BinaryReader reader(writer.buffer());
  auto result = reader.GetDoubleVector();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, values);
}

TEST(SerializeTest, EmptyVectorRoundTrip) {
  BinaryWriter writer;
  writer.PutDoubleVector(std::vector<double>{});
  BinaryReader reader(writer.buffer());
  auto result = reader.GetDoubleVector();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(SerializeTest, SpecialDoublesSurvive) {
  BinaryWriter writer;
  writer.PutDouble(std::numeric_limits<double>::infinity());
  writer.PutDouble(-0.0);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(*reader.GetDouble(), std::numeric_limits<double>::infinity());
  const double neg_zero = *reader.GetDouble();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
}

TEST(SerializeTest, BytesRoundTrip) {
  BinaryWriter writer;
  std::vector<uint8_t> payload{1, 2, 3, 255};
  writer.PutBytes(payload);
  BinaryReader reader(writer.buffer());
  auto len = reader.GetU64();
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(*len, payload.size());
  EXPECT_EQ(reader.remaining(), payload.size());
}

TEST(SerializeTest, TruncatedReadReportsCorruption) {
  BinaryWriter writer;
  writer.PutU32(99);
  BinaryReader reader(writer.buffer());
  EXPECT_TRUE(reader.GetU32().ok());
  auto fail = reader.GetU64();
  EXPECT_FALSE(fail.ok());
  EXPECT_EQ(fail.status().code(), StatusCode::kCorruption);
}

TEST(SerializeTest, OversizedVectorLengthRejected) {
  // A length prefix claiming more doubles than bytes remain must fail
  // cleanly instead of allocating.
  BinaryWriter writer;
  writer.PutU64(1ULL << 60);
  BinaryReader reader(writer.buffer());
  auto result = reader.GetDoubleVector();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(SerializeTest, LaneVectorBoundsItsL1Norm) {
  std::vector<int64_t> lanes(1000, -1);
  lanes[7] = int64_t{1} << 50;
  BinaryWriter writer;
  writer.PutI64Vector(lanes);
  const uint64_t l1 = (uint64_t{1} << 50) + lanes.size() - 1;
  std::vector<int64_t> out;
  BinaryReader exact(writer.buffer());
  ASSERT_TRUE(exact.GetLaneVector(lanes.size(), l1, out).ok());
  EXPECT_EQ(out, lanes);
  EXPECT_TRUE(exact.AtEnd());
  BinaryReader over(writer.buffer());
  EXPECT_EQ(over.GetLaneVector(lanes.size(), l1 - 1, out).code(),
            StatusCode::kCorruption);
  // |INT64_MIN| is 2^63, and two of them sum past UINT64_MAX: the check
  // must not wrap.
  const int64_t min = std::numeric_limits<int64_t>::min();
  const std::vector<int64_t> one = {min, 0}, two = {min, min};
  BinaryWriter one_min, two_min;
  one_min.PutI64Vector(one);
  two_min.PutI64Vector(two);
  BinaryReader fits(one_min.buffer());
  EXPECT_TRUE(fits.GetLaneVector(2, uint64_t{1} << 63, out).ok());
  BinaryReader wraps(two_min.buffer());
  EXPECT_EQ(wraps.GetLaneVector(2, UINT64_MAX, out).code(),
            StatusCode::kCorruption);
}

TEST(SerializeTest, TakeBufferMovesOutData) {
  BinaryWriter writer;
  writer.PutU8(1);
  auto buffer = writer.TakeBuffer();
  EXPECT_EQ(buffer.size(), 1u);
}

TEST(SerializeTest, RemainingTracksPosition) {
  BinaryWriter writer;
  writer.PutU32(5);
  writer.PutU32(6);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.remaining(), 8u);
  ASSERT_TRUE(reader.GetU32().ok());
  EXPECT_EQ(reader.remaining(), 4u);
  EXPECT_FALSE(reader.AtEnd());
  ASSERT_TRUE(reader.GetU32().ok());
  EXPECT_TRUE(reader.AtEnd());
}

}  // namespace
}  // namespace ldpjs
