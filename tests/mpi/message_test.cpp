// Deserialization hardening: a truncated, oversized, or ragged buffer
// must raise a named DeserializeError instead of reading out of bounds or
// silently truncating (a transport or framing bug should fail loudly).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "mel/mpi/message.hpp"

namespace mel::mpi {
namespace {

TEST(MessageCodec, RoundTripsPod) {
  struct Pod {
    std::int64_t a;
    double b;
  };
  const Pod in{42, 2.5};
  const auto bytes = to_bytes(in);
  const Pod out = from_bytes<Pod>(bytes);
  EXPECT_EQ(out.a, 42);
  EXPECT_EQ(out.b, 2.5);
}

TEST(MessageCodec, FromBytesRejectsTruncatedBuffer) {
  const std::vector<std::byte> four(4);
  EXPECT_THROW(from_bytes<std::int64_t>(four), DeserializeError);
  try {
    (void)from_bytes<std::int64_t>(four);
    FAIL() << "expected DeserializeError";
  } catch (const DeserializeError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(MessageCodec, FromBytesRejectsOversizedBuffer) {
  const std::vector<std::byte> twelve(12);
  EXPECT_THROW(from_bytes<std::int64_t>(twelve), DeserializeError);
  try {
    (void)from_bytes<std::int64_t>(twelve);
    FAIL() << "expected DeserializeError";
  } catch (const DeserializeError& e) {
    EXPECT_NE(std::string(e.what()).find("oversized"), std::string::npos);
  }
}

TEST(MessageCodec, NthRecordBoundsChecked) {
  const auto bytes = to_bytes(std::int32_t{7});  // exactly one record
  EXPECT_EQ(nth_record<std::int32_t>(bytes, 0), 7);
  EXPECT_THROW(nth_record<std::int32_t>(bytes, 1), DeserializeError);
  EXPECT_THROW(nth_record<std::int64_t>(bytes, 0), DeserializeError);
}

TEST(MessageCodec, RecordCountRejectsRaggedBuffer) {
  std::vector<std::byte> bytes(3 * sizeof(std::int32_t));
  EXPECT_EQ(record_count<std::int32_t>(bytes), 3u);
  bytes.push_back(std::byte{0});  // one trailing byte
  EXPECT_THROW(record_count<std::int32_t>(bytes), DeserializeError);
}

TEST(MessageCodec, SliceViewsKeepTheSizeChecks) {
  // The slices tile one block, and a view decodes its own slice only.
  const std::vector<std::size_t> bytes = {2 * sizeof(std::int32_t),
                                          sizeof(std::int32_t) + 1, 0};
  PackedSlices packed(bytes);
  ASSERT_EQ(packed.count(), 3u);
  EXPECT_EQ(packed.bytes(), 13u);
  EXPECT_EQ(packed.offset(1), 8u);
  EXPECT_EQ(packed.offset(2), 13u);
  const std::int32_t records[2] = {7, 8};
  std::memcpy(packed.writable(0).data(), records, sizeof records);
  const SliceView first = packed.view(0);
  EXPECT_EQ(record_count<std::int32_t>(first), 2u);
  EXPECT_EQ(nth_record<std::int32_t>(first, 1), 8);
  EXPECT_THROW(nth_record<std::int32_t>(first, 2), DeserializeError);
  EXPECT_THROW(record_count<std::int32_t>(packed.view(1)), DeserializeError);
  EXPECT_EQ(packed.view(2).size(), 0u);
  // Offsets are 32-bit: a call past kMaxBytes is refused before any
  // allocation.
  const std::vector<std::size_t> too_many = {PackedSlices::kMaxBytes, 1};
  EXPECT_THROW(PackedSlices{too_many}, std::length_error);
}

}  // namespace
}  // namespace mel::mpi
