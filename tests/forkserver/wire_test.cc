// Wire serialization: round-trips, truncation, hostile lengths.
#include "src/forkserver/wire.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace forklift {
namespace {

TEST(WireTest, ScalarRoundTrip) {
  WireWriter w;
  w.PutU8(0xab);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefull);
  w.PutI32(-42);
  w.PutBool(true);
  w.PutBool(false);

  WireReader r(w.data());
  EXPECT_EQ(r.GetU8().value(), 0xab);
  EXPECT_EQ(r.GetU32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.GetU64().value(), 0x0123456789abcdefull);
  EXPECT_EQ(r.GetI32().value(), -42);
  EXPECT_TRUE(r.GetBool().value());
  EXPECT_FALSE(r.GetBool().value());
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, StringRoundTrip) {
  WireWriter w;
  w.PutString("");
  w.PutString("hello");
  std::string binary("\x00\x01\xff", 3);
  w.PutString(binary);

  WireReader r(w.data());
  EXPECT_EQ(r.GetString().value(), "");
  EXPECT_EQ(r.GetString().value(), "hello");
  EXPECT_EQ(r.GetString().value(), binary);
}

TEST(WireTest, GetViewPointsIntoTheBuffer) {
  WireWriter w;
  w.PutString("");
  w.PutString("env=1");
  const std::string& data = w.data();
  WireReader r(data);
  EXPECT_EQ(r.GetView().value(), "");
  auto view = r.GetView();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(*view, "env=1");
  EXPECT_EQ(view->data(), data.data() + 8);  // two length prefixes, no copy
  EXPECT_TRUE(r.AtEnd());

  WireReader cut(std::string_view(data).substr(0, data.size() - 1));
  ASSERT_TRUE(cut.GetView().ok());
  EXPECT_FALSE(cut.GetView().ok());
  WireReader capped(data);
  ASSERT_TRUE(capped.GetView(0).ok());
  EXPECT_FALSE(capped.GetView(4).ok()) << "a 5-byte string over a 4-byte cap";
}

TEST(WireTest, TruncatedScalarFails) {
  WireWriter w;
  w.PutU32(7);
  std::string data = w.data();
  data.pop_back();
  WireReader r(data);
  EXPECT_FALSE(r.GetU32().ok());
}

TEST(WireTest, TruncatedStringBodyFails) {
  WireWriter w;
  w.PutString("abcdef");
  std::string data = w.data().substr(0, 7);  // 4-byte len + 3 of 6 bytes
  WireReader r(data);
  EXPECT_FALSE(r.GetString().ok());
}

TEST(WireTest, HostileStringLengthRejected) {
  WireWriter w;
  w.PutU32(0x7fffffff);  // claims a 2GiB string
  WireReader r(w.data());
  EXPECT_FALSE(r.GetString().ok());
}

TEST(WireTest, OversizedPutStringRejected) {
  // A string whose size exceeds the u32 length prefix must be rejected, not
  // silently truncated by the cast. PutString documents that it checks the
  // bound BEFORE touching the bytes, so an untouchable view with a fabricated
  // length is safe here — nothing may dereference it.
  char byte = 'x';
  std::string_view huge(&byte, static_cast<size_t>(UINT32_MAX) + 1);
  WireWriter w;
  w.PutU32(7);
  w.PutString(huge);
  EXPECT_FALSE(w.ok());
  EXPECT_FALSE(w.status().ok());
}

TEST(WireTest, PutStringAtExactBoundStillChecked) {
  // One past the cap fails; the writer stays failed even after further Puts.
  char byte = 'x';
  std::string_view huge(&byte, static_cast<size_t>(UINT32_MAX) + 1);
  WireWriter w;
  w.PutString(huge);
  w.PutU32(1);
  EXPECT_FALSE(w.ok());
}

TEST(WireTest, BoolOutOfRangeRejected) {
  WireWriter w;
  w.PutU8(2);
  WireReader r(w.data());
  EXPECT_FALSE(r.GetBool().ok());
}

TEST(WireTest, RemainingTracksPosition) {
  WireWriter w;
  w.PutU32(1);
  w.PutU32(2);
  WireReader r(w.data());
  EXPECT_EQ(r.remaining(), 8u);
  ASSERT_TRUE(r.GetU32().ok());
  EXPECT_EQ(r.remaining(), 4u);
}

// Property: any interleaving of typed values survives a round trip.
class WirePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WirePropertyTest, RandomSequenceRoundTrips) {
  Rng rng(GetParam());
  WireWriter w;
  struct Item {
    int kind;
    uint64_t num;
    std::string str;
  };
  std::vector<Item> items;
  size_t n = 1 + rng.Below(30);
  for (size_t i = 0; i < n; ++i) {
    Item it;
    it.kind = static_cast<int>(rng.Below(5));
    switch (it.kind) {
      case 0:
        it.num = rng.Below(256);
        w.PutU8(static_cast<uint8_t>(it.num));
        break;
      case 1:
        it.num = rng.Next() & 0xffffffffu;
        w.PutU32(static_cast<uint32_t>(it.num));
        break;
      case 2:
        it.num = rng.Next();
        w.PutU64(it.num);
        break;
      case 3:
        it.num = rng.Next() & 1;
        w.PutBool(it.num == 1);
        break;
      case 4: {
        size_t len = rng.Below(100);
        it.str.reserve(len);
        for (size_t j = 0; j < len; ++j) {
          it.str.push_back(static_cast<char>(rng.Below(256)));
        }
        w.PutString(it.str);
        break;
      }
    }
    items.push_back(std::move(it));
  }

  WireReader r(w.data());
  for (const auto& it : items) {
    switch (it.kind) {
      case 0:
        EXPECT_EQ(r.GetU8().value(), it.num);
        break;
      case 1:
        EXPECT_EQ(r.GetU32().value(), it.num);
        break;
      case 2:
        EXPECT_EQ(r.GetU64().value(), it.num);
        break;
      case 3:
        EXPECT_EQ(r.GetBool().value(), it.num == 1);
        break;
      case 4:
        EXPECT_EQ(r.GetString().value(), it.str);
        break;
    }
  }
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(RandomSequences, WirePropertyTest, ::testing::Range<uint64_t>(0, 50));

}  // namespace
}  // namespace forklift
