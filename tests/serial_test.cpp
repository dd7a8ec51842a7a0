// Unit tests for dnnd::serial — wire format, varints, pack/unpack, and
// failure modes (truncation, overflow).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "serial/archive.hpp"

namespace {

using dnnd::serial::ArchiveError;
using dnnd::serial::InArchive;
using dnnd::serial::OutArchive;

TEST(Varint, RoundTripBoundaries) {
  const std::uint64_t cases[] = {0,
                                 1,
                                 127,
                                 128,
                                 300,
                                 16383,
                                 16384,
                                 (1ULL << 32) - 1,
                                 1ULL << 32,
                                 std::numeric_limits<std::uint64_t>::max()};
  for (const auto v : cases) {
    std::vector<std::byte> buf;
    dnnd::serial::write_varint(buf, v);
    const std::byte* cursor = buf.data();
    EXPECT_EQ(dnnd::serial::read_varint(cursor, buf.data() + buf.size()), v);
    EXPECT_EQ(cursor, buf.data() + buf.size());
  }
}

TEST(Varint, SmallValuesAreOneByte) {
  std::vector<std::byte> buf;
  dnnd::serial::write_varint(buf, 42);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(Varint, TruncatedThrows) {
  std::vector<std::byte> buf;
  dnnd::serial::write_varint(buf, 1ULL << 40);
  buf.pop_back();
  const std::byte* cursor = buf.data();
  EXPECT_THROW(dnnd::serial::read_varint(cursor, buf.data() + buf.size()),
               ArchiveError);
}

TEST(Varint, OverlongEncodingThrows) {
  // 11 continuation bytes cannot be a valid 64-bit varint.
  std::vector<std::byte> buf(11, std::byte{0xff});
  const std::byte* cursor = buf.data();
  EXPECT_THROW(dnnd::serial::read_varint(cursor, buf.data() + buf.size()),
               ArchiveError);
}

TEST(Archive, PrimitivesRoundTrip) {
  OutArchive out;
  out.write(std::int32_t{-7});
  out.write(3.5f);
  out.write(std::uint8_t{255});
  out.write(std::uint64_t{1} << 60);

  InArchive in(out.bytes());
  EXPECT_EQ(in.read<std::int32_t>(), -7);
  EXPECT_FLOAT_EQ(in.read<float>(), 3.5f);
  EXPECT_EQ(in.read<std::uint8_t>(), 255);
  EXPECT_EQ(in.read<std::uint64_t>(), std::uint64_t{1} << 60);
  EXPECT_TRUE(in.empty());
}

TEST(Archive, VectorRoundTrip) {
  OutArchive out;
  const std::vector<float> v = {1.0f, -2.5f, 3.25f};
  out.write_vector(v);
  InArchive in(out.bytes());
  EXPECT_EQ(in.read_vector<float>(), v);
}

TEST(Archive, EmptyVectorRoundTrip) {
  OutArchive out;
  out.write_vector(std::vector<std::uint32_t>{});
  InArchive in(out.bytes());
  EXPECT_TRUE(in.read_vector<std::uint32_t>().empty());
  EXPECT_TRUE(in.empty());
}

TEST(Archive, StringRoundTrip) {
  OutArchive out;
  out.write_string("hello world");
  out.write_string("");
  InArchive in(out.bytes());
  EXPECT_EQ(in.read_string(), "hello world");
  EXPECT_EQ(in.read_string(), "");
}

TEST(Archive, UnderflowThrows) {
  OutArchive out;
  out.write(std::uint16_t{1});
  InArchive in(out.bytes());
  EXPECT_THROW(in.read<std::uint64_t>(), ArchiveError);
}

TEST(Archive, VectorUnderflowThrows) {
  OutArchive out;
  out.write_size(1000);  // promises 1000 elements, delivers none
  InArchive in(out.bytes());
  EXPECT_THROW(in.read_vector<std::uint32_t>(), ArchiveError);

  // 2^61 eight-byte elements: n * sizeof(T) wraps to 0 bytes, so a check
  // that multiplies first would pass and the vector would throw
  // std::length_error instead.
  OutArchive huge;
  huge.write_size(std::uint64_t{1} << 61);
  InArchive vector_in(huge.bytes());
  EXPECT_THROW(vector_in.read_vector<std::uint64_t>(), ArchiveError);
  InArchive into_in(huge.bytes());
  std::vector<std::uint64_t> scratch;
  EXPECT_THROW(into_in.read_into(scratch), ArchiveError);
}

TEST(Archive, SizeAccountsEveryByte) {
  OutArchive out;
  EXPECT_EQ(out.size(), 0u);
  out.write(std::uint32_t{1});
  EXPECT_EQ(out.size(), 4u);
  out.write_vector(std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_EQ(out.size(), 4u + 1u + 3u);  // varint(3) is one byte
}

TEST(Archive, PackUnpackMixedArguments) {
  OutArchive out;
  dnnd::serial::pack(out, std::uint32_t{5}, std::string("abc"),
                     std::vector<float>{1.5f, 2.5f}, std::uint8_t{9});
  InArchive in(out.bytes());
  const auto [a, s, v, b] =
      dnnd::serial::unpack<std::uint32_t, std::string, std::vector<float>,
                           std::uint8_t>(in);
  EXPECT_EQ(a, 5u);
  EXPECT_EQ(s, "abc");
  EXPECT_EQ(v, (std::vector<float>{1.5f, 2.5f}));
  EXPECT_EQ(b, 9);
  EXPECT_TRUE(in.empty());
}

TEST(Archive, PackedSpanMatchesPackedVector) {
  // A span packs to the bytes of the vector it views, so a sender can
  // ship a borrowed row and the receiver decodes a vector.
  const std::vector<float> v = {1.5f, -2.5f, 3.25f, 0.0f};
  OutArchive from_vector;
  OutArchive from_span;
  dnnd::serial::pack(from_vector, std::uint32_t{7}, v);
  dnnd::serial::pack(from_span, std::uint32_t{7}, std::span<const float>(v));
  ASSERT_EQ(from_span.size(), from_vector.size());
  EXPECT_TRUE(std::equal(from_span.bytes().begin(), from_span.bytes().end(),
                         from_vector.bytes().begin()));

  InArchive in(from_span.bytes());
  EXPECT_EQ(in.read<std::uint32_t>(), 7u);
  std::vector<float> scratch = {9.0f};
  in.read_into(scratch);
  EXPECT_EQ(scratch, v);
  EXPECT_TRUE(in.empty());

  OutArchive empty;
  dnnd::serial::pack(empty, std::span<const float>());
  InArchive empty_in(empty.bytes());
  EXPECT_TRUE(empty_in.read_vector<float>().empty());
  EXPECT_TRUE(empty_in.empty());
}

TEST(Archive, SequentialMessagesShareBuffer) {
  // The communicator packs several messages back-to-back into one
  // datagram; reading must consume exactly one message at a time.
  OutArchive out;
  out.write_size(7);  // pretend handler id
  out.write(std::uint32_t{11});
  out.write_size(8);
  out.write(std::uint32_t{22});
  InArchive in(out.bytes());
  EXPECT_EQ(in.read_size(), 7u);
  EXPECT_EQ(in.read<std::uint32_t>(), 11u);
  EXPECT_EQ(in.read_size(), 8u);
  EXPECT_EQ(in.read<std::uint32_t>(), 22u);
  EXPECT_TRUE(in.empty());
}

TEST(Archive, ClearResetsBuffer) {
  OutArchive out;
  out.write(std::uint64_t{1});
  out.clear();
  EXPECT_EQ(out.size(), 0u);
}

TEST(Archive, ReleaseMovesBufferOut) {
  OutArchive out;
  out.write(std::uint32_t{0xdeadbeef});
  const auto buf = out.release();
  EXPECT_EQ(buf.size(), 4u);
}

}  // namespace
