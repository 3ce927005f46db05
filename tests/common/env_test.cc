#include "src/common/env.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>

namespace forklift {
namespace {

TEST(ArgvBlockTest, NullTerminated) {
  ArgvBlock b({"ls", "-l", "/tmp"});
  ASSERT_EQ(b.size(), 3u);
  char* const* p = b.data();
  EXPECT_STREQ(p[0], "ls");
  EXPECT_STREQ(p[1], "-l");
  EXPECT_STREQ(p[2], "/tmp");
  EXPECT_EQ(p[3], nullptr);
}

TEST(ArgvBlockTest, EmptyBlockStillTerminated) {
  ArgvBlock b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.data()[0], nullptr);
}

TEST(ArgvBlockTest, AddRefreshesPointers) {
  ArgvBlock b;
  b.Add("a");
  b.Add("bb");
  b.AddKeyValue("K", "v=w");
  b.AddKeyValue("EMPTY", "");
  for (int i = 0; i < 100; ++i) {  // outgrows the unreserved buffer many times over
    b.Add(std::string(i, 'z'));
  }
  ASSERT_EQ(b.size(), 104u);
  EXPECT_STREQ(b.data()[0], "a");
  EXPECT_STREQ(b.data()[1], "bb");
  EXPECT_STREQ(b.data()[2], "K=v=w");
  EXPECT_STREQ(b.data()[3], "EMPTY=");
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(b[4 + i], std::string(i, 'z'));
    EXPECT_EQ(std::string_view(b.data()[4 + i]), b[4 + i]);
  }
  EXPECT_EQ(b.data()[104], nullptr);
}

TEST(ArgvBlockTest, CopyOutlivesItsSource) {
  // Short entries fit in a std::string's inline buffer; the long one does not.
  const std::vector<std::string> args = {"ls", std::string(64, 'x'), "", "-l"};
  auto source = std::make_unique<ArgvBlock>(args);
  std::vector<std::uintptr_t> source_ptrs;
  for (size_t i = 0; i < args.size(); ++i) {
    source_ptrs.push_back(reinterpret_cast<std::uintptr_t>(source->data()[i]));
  }
  ArgvBlock copy(*source);
  ArgvBlock assigned;
  assigned = *source;
  source.reset();
  for (const ArgvBlock* block : {&copy, &assigned}) {
    ASSERT_EQ(block->size(), args.size());
    for (size_t i = 0; i < args.size(); ++i) {
      const char* p = block->data()[i];
      ASSERT_NE(reinterpret_cast<std::uintptr_t>(p), source_ptrs[i])
          << "entry " << i << " still points into the destroyed source";
      ASSERT_EQ(p, (*block)[i].data()) << "entry " << i << " must point into the copy";
      EXPECT_EQ(std::string_view(p), args[i]);
      EXPECT_EQ((*block)[i], args[i]);
    }
    EXPECT_EQ(block->data()[args.size()], nullptr);
  }
}

TEST(ArgvBlockTest, MoveKeepsPointersValid) {
  // A std::string buffer would move a short entry to a new address (the
  // small-string optimisation); the block's one buffer moves whole.
  const std::vector<std::string> args = {"a", "bb", std::string(64, 'y')};
  ArgvBlock source(args);
  const std::vector<char*> before(source.data(), source.data() + args.size());
  ArgvBlock moved(std::move(source));
  ArgvBlock assigned;
  assigned = std::move(moved);
  ASSERT_EQ(assigned.size(), args.size());
  for (size_t i = 0; i < args.size(); ++i) {
    EXPECT_EQ(assigned.data()[i], before[i]);
    EXPECT_STREQ(assigned.data()[i], args[i].c_str());
  }
  EXPECT_EQ(assigned.data()[args.size()], nullptr);
}

TEST(EnvMapTest, SetGetUnset) {
  EnvMap env;
  env.Set("KEY", "value");
  EXPECT_TRUE(env.Has("KEY"));
  EXPECT_EQ(env.Get("KEY").value(), "value");
  env.Set("KEY", "other");
  EXPECT_EQ(env.Get("KEY").value(), "other");
  env.Unset("KEY");
  EXPECT_FALSE(env.Has("KEY"));
  EXPECT_FALSE(env.Get("KEY").has_value());
}

TEST(EnvMapTest, FromStringsParsesAndIgnoresMalformed) {
  EnvMap env = EnvMap::FromStrings({"A=1", "B=x=y", "NOEQ", "=empty", "C="});
  EXPECT_EQ(env.size(), 3u);
  EXPECT_EQ(env.Get("A").value(), "1");
  EXPECT_EQ(env.Get("B").value(), "x=y");  // only first '=' splits
  EXPECT_EQ(env.Get("C").value(), "");
}

TEST(EnvMapTest, ToStringsSortedDeterministic) {
  EnvMap env = EnvMap::FromStrings({"Z=9", "A=1", "M=5"});
  EXPECT_EQ(env.ToStrings(), (std::vector<std::string>{"A=1", "M=5", "Z=9"}));
}

TEST(EnvMapTest, RoundTripThroughBlock) {
  EnvMap env = EnvMap::FromStrings({"PATH=/bin", "HOME=/root"});
  ArgvBlock block = env.ToBlock();
  EnvMap back = EnvMap::FromBlock(block.data());
  EXPECT_EQ(back.ToStrings(), env.ToStrings());
}

TEST(EnvMapTest, FromCurrentSeesRealEnvironment) {
  ASSERT_EQ(setenv("FORKLIFT_TEST_VAR", "present", 1), 0);
  EnvMap env = EnvMap::FromCurrent();
  EXPECT_EQ(env.Get("FORKLIFT_TEST_VAR").value(), "present");
  unsetenv("FORKLIFT_TEST_VAR");
}

TEST(EnvMapTest, FromNullBlock) {
  EnvMap env = EnvMap::FromBlock(nullptr);
  EXPECT_EQ(env.size(), 0u);
}

}  // namespace
}  // namespace forklift
