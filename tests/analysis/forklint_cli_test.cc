// End-to-end tests driving the BUILT forklint binary through the library's
// own capture API (the spawn layer dogfoods itself to test the linter that
// audits it). Binary and fixture locations are injected by CMake.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/spawn/command.h"

namespace forklift {
namespace {

#ifndef FORKLINT_BIN
#error "FORKLINT_BIN must be defined by the build"
#endif
#ifndef FORKLINT_FIXTURE_DIR
#error "FORKLINT_FIXTURE_DIR must be defined by the build"
#endif

constexpr const char* kBin = FORKLINT_BIN;
const std::string kFixtures = FORKLINT_FIXTURE_DIR;

TEST(ForklintCli, ExitCodeIsFindingCount) {
  // r3_positive.cc carries exactly two unchecked forks.
  auto r = RunAndCapture(kBin, {"--rules=R3", kFixtures + "/r3_positive.cc"});
  ASSERT_TRUE(r.ok()) << r.error().ToString();
  EXPECT_EQ(r->status.exit_code, 2) << r->stdout_data;
  EXPECT_NE(r->stdout_data.find("[R3]"), std::string::npos);
}

TEST(ForklintCli, CleanFileExitsZero) {
  auto r = RunAndCapture(kBin, {"--rules=R3", kFixtures + "/r3_negative.cc"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.exit_code, 0) << r->stdout_data;
}

TEST(ForklintCli, SarifOutputIsWellFormed) {
  auto r = RunAndCapture(kBin, {"--format=sarif", kFixtures + "/r2_positive.cc"});
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->stdout_data.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(r->stdout_data.find("\"ruleId\":\"R2\""), std::string::npos);
  EXPECT_NE(r->stdout_data.find("\"startLine\":"), std::string::npos);
}

TEST(ForklintCli, BaselineAcceptsKnownFindings) {
  std::string baseline = ::testing::TempDir() + "forklint_test_baseline.txt";
  {
    std::FILE* f = std::fopen(baseline.c_str(), "we");
    ASSERT_NE(f, nullptr);
    std::fputs("# test baseline\n", f);
    std::string entry = "R3 " + kFixtures + "/r3_positive.cc\n";
    std::fputs(entry.c_str(), f);
    std::fclose(f);
  }
  auto r = RunAndCapture(
      kBin, {"--rules=R3", "--baseline=" + baseline, kFixtures + "/r3_positive.cc"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.exit_code, 0) << r->stdout_data;
  EXPECT_NE(r->stdout_data.find("2 baselined finding(s) accepted"), std::string::npos);
}

TEST(ForklintCli, UnknownRuleFails) {
  auto r = RunAndCapture(kBin, {"--rules=R99", kFixtures + "/r3_negative.cc"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.exit_code, 255);
}

TEST(ForklintCli, MissingPathFails) {
  auto r = RunAndCapture(kBin, {"/nonexistent/forklint/input"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.exit_code, 255);
}

TEST(ForklintCli, ListRules) {
  auto r = RunAndCapture(kBin, {"--list-rules"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.exit_code, 0);
  for (const char* id :
       {"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10", "R11", "R12"}) {
    EXPECT_NE(r->stdout_data.find(id), std::string::npos) << id;
  }
}

TEST(ForklintCli, ExitCodeCapsAt120) {
  // 300 unchecked forks used to exit 300 & 0xFF = 44 — a wrapped count that
  // reads as "44 findings" to CI. The cap pins any large count to 120.
  std::string big = ::testing::TempDir() + "forklint_many_findings.cc";
  {
    std::ofstream out(big, std::ios::trunc);
    ASSERT_TRUE(out.good());
    out << "void Many() {\n";
    for (int i = 0; i < 300; ++i) {
      out << "  fork();\n";
    }
    out << "}\n";
  }
  auto r = RunAndCapture(kBin, {"--rules=R3", big});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.exit_code, 120) << r->stdout_data;
  EXPECT_NE(r->stdout_data.find("300 finding(s)"), std::string::npos);
  std::remove(big.c_str());
}

TEST(ForklintCli, ProjectModeRunsInterproceduralRules) {
  auto r = RunAndCapture(kBin, {"--project", "--rules=R9", kFixtures + "/r9_positive.cc"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.exit_code, 2) << r->stdout_data;
  EXPECT_NE(r->stdout_data.find("[R9]"), std::string::npos);
  EXPECT_NE(r->stdout_data.find("note:"), std::string::npos) << "related locations in text";
  // The same file without --project stays silent: R9 is whole-program only.
  auto per_file = RunAndCapture(kBin, {"--rules=R9", kFixtures + "/r9_positive.cc"});
  ASSERT_TRUE(per_file.ok());
  EXPECT_EQ(per_file->status.exit_code, 0) << per_file->stdout_data;
}

TEST(ForklintCli, ProjectSarifCarriesRelatedLocations) {
  auto r = RunAndCapture(
      kBin, {"--project", "--rules=R9", "--format=sarif", kFixtures + "/r9_positive.cc"});
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->stdout_data.find("\"relatedLocations\""), std::string::npos);
  EXPECT_NE(r->stdout_data.find("via call to SpawnWorker()"), std::string::npos);
}

TEST(ForklintCli, UpdateBaselineRegeneratesFile) {
  std::string baseline = ::testing::TempDir() + "forklint_regen_baseline.txt";
  std::remove(baseline.c_str());
  auto regen = RunAndCapture(kBin, {"--rules=R3", "--baseline=" + baseline,
                                    "--update-baseline", kFixtures + "/r3_positive.cc"});
  ASSERT_TRUE(regen.ok());
  EXPECT_EQ(regen->status.exit_code, 0) << regen->stdout_data;

  std::ifstream in(baseline);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("R3 " + kFixtures + "/r3_positive.cc"), std::string::npos)
      << buf.str();

  // The regenerated baseline makes the same invocation exit clean.
  auto gated = RunAndCapture(
      kBin, {"--rules=R3", "--baseline=" + baseline, kFixtures + "/r3_positive.cc"});
  ASSERT_TRUE(gated.ok());
  EXPECT_EQ(gated->status.exit_code, 0) << gated->stdout_data;
  std::remove(baseline.c_str());
}

TEST(ForklintCli, UpdateBaselineRequiresBaselinePath) {
  auto r = RunAndCapture(kBin, {"--update-baseline", kFixtures + "/r3_negative.cc"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.exit_code, 255);
}

}  // namespace
}  // namespace forklift
