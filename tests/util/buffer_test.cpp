// Buffer semantics: aliasing, refcounting, moves, copy-on-write and
// equality. Runs under ASan and TSan in CI, which are the real teeth of
// these checks — a double free or a use-after-release shows up here first.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "mel/util/buffer.hpp"

namespace {

using mel::util::Buffer;

std::vector<std::byte> bytes_of(std::initializer_list<int> vals) {
  std::vector<std::byte> out;
  for (int v : vals) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST(Buffer, EmptyBuffer) {
  Buffer b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.data(), nullptr);
  EXPECT_TRUE(b.unique());
  Buffer c = b;  // copying empty is fine
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(Buffer::copy_of({}).size(), 0u);
}

TEST(Buffer, CopyAliasesSameBlock) {
  const auto src = bytes_of({1, 2, 3, 4});
  Buffer a = Buffer::copy_of(src);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_TRUE(a.unique());

  Buffer b = a;  // refcount bump, no copy
  EXPECT_EQ(a.data(), b.data());
  EXPECT_FALSE(a.unique());
  EXPECT_FALSE(b.unique());

  {
    Buffer c;
    c = b;  // copy-assign over empty
    EXPECT_EQ(c.data(), a.data());
    EXPECT_FALSE(a.unique());
  }
  // c released; two holders remain
  EXPECT_FALSE(a.unique());
  b = Buffer{};  // drop one
  EXPECT_TRUE(a.unique());
  EXPECT_EQ(std::memcmp(a.data(), src.data(), src.size()), 0);
}

TEST(Buffer, MoveTransfersOwnership) {
  Buffer a = Buffer::copy_of(bytes_of({9, 8}));
  const std::byte* p = a.data();
  Buffer b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_TRUE(b.unique());
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move)
  a = std::move(b);
  EXPECT_EQ(a.data(), p);
  a = std::move(a);  // self-move is a no-op, not a leak or crash
  EXPECT_EQ(a.data(), p);
}

TEST(Buffer, MutableDataRefusesSharedBlocks) {
  Buffer a = Buffer::alloc(8);
  EXPECT_NE(a.mutable_data(), nullptr);  // unique: fine
  std::memset(a.mutable_data(), 0x5a, 8);

  Buffer b = a;
  EXPECT_THROW(a.mutable_data(), std::logic_error);
  EXPECT_THROW(b.mutable_data(), std::logic_error);

  // Copy-on-write: clone, then mutate the clone only.
  Buffer c = b.clone();
  EXPECT_TRUE(c.unique());
  ASSERT_NE(c.data(), b.data());
  c.mutable_data()[0] = std::byte{0x7f};
  EXPECT_EQ(b.data()[0], std::byte{0x5a});  // original untouched
  EXPECT_EQ(c.data()[0], std::byte{0x7f});
}

TEST(Buffer, EqualityComparesContents) {
  Buffer a = Buffer::copy_of(bytes_of({1, 2, 3}));
  Buffer b = Buffer::copy_of(bytes_of({1, 2, 3}));
  Buffer c = Buffer::copy_of(bytes_of({1, 2, 4}));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  Buffer alias = a;
  EXPECT_EQ(a, alias);
}

TEST(Buffer, SpanConversionSeesPayload) {
  Buffer a = Buffer::copy_of(bytes_of({5, 6, 7}));
  std::span<const std::byte> s = a;
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[2], std::byte{7});
}

TEST(Buffer, RefcountSurvivesManyAliases) {
  Buffer a = Buffer::copy_of(bytes_of({42}));
  std::vector<Buffer> aliases;
  for (int i = 0; i < 1000; ++i) aliases.push_back(a);
  EXPECT_FALSE(a.unique());
  for (auto& al : aliases) EXPECT_EQ(al.data(), a.data());
  aliases.clear();
  EXPECT_TRUE(a.unique());
  EXPECT_EQ(a.data()[0], std::byte{42});
}

}  // namespace
