// Golden-fixture tests for the interprocedural rules R9–R12 (whole-program
// mode), plus project-mode behaviors the per-file tests cannot cover:
// suppressions against project findings, per-file rules riding along, and
// the SARIF relatedLocations chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/lexer.h"
#include "src/analysis/project.h"
#include "src/analysis/report.h"

namespace forklift {
namespace analysis {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(FORKLINT_FIXTURE_DIR) + "/" + name;
}

std::string ReadFixture(const std::string& name) {
  std::ifstream in(FixturePath(name), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Same marker convention as rules_test.cc: trailing `// forklint-expect: RN`.
std::vector<std::pair<std::string, int>> ParseExpectations(const std::string& source) {
  std::vector<std::pair<std::string, int>> out;
  LexedFile lexed = Lex(source);
  for (const auto& c : lexed.comments) {
    size_t at = c.text.find("forklint-expect:");
    if (at == std::string::npos) {
      continue;
    }
    std::istringstream ids(c.text.substr(at + 16));
    std::string id;
    while (std::getline(ids, id, ',')) {
      size_t b = id.find_first_not_of(" \t");
      size_t e = id.find_last_not_of(" \t");
      if (b == std::string::npos) {
        continue;
      }
      std::string trimmed = id.substr(b, e - b + 1);
      bool well_formed = trimmed.size() >= 2 && trimmed[0] == 'R' &&
                         std::all_of(trimmed.begin() + 1, trimmed.end(),
                                     [](char ch) { return ch >= '0' && ch <= '9'; });
      if (well_formed) {
        out.emplace_back(trimmed, c.line);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

ProjectReport AnalyzeFixtureAsProject(const std::string& name, const std::string& rule_id,
                                      const std::string& display_path) {
  ProjectAnalyzer project;
  EXPECT_TRUE(project.EnableOnly({rule_id}).ok());
  return project.AnalyzeSources({{display_path, ReadFixture(name)}});
}

// Runs one project rule over a fixture-as-whole-program and compares findings
// against the fixture's markers.
void CheckProjectFixture(const std::string& name, const std::string& rule_id) {
  const std::string source = ReadFixture(name);
  ProjectReport report =
      AnalyzeFixtureAsProject(name, rule_id, "tests/analysis/fixtures/" + name);
  ASSERT_EQ(report.files.size(), 1u);
  std::vector<std::pair<std::string, int>> got;
  for (const auto& f : report.files[0].findings) {
    got.emplace_back(f.rule, f.line);
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, ParseExpectations(source)) << "fixture " << name << " rule " << rule_id;
}

TEST(ProjectGolden, R9LockAcrossFork) {
  CheckProjectFixture("r9_positive.cc", "R9");
  CheckProjectFixture("r9_negative.cc", "R9");
}

TEST(ProjectGolden, R10TransitiveUnsafe) {
  CheckProjectFixture("r10_positive.cc", "R10");
  CheckProjectFixture("r10_negative.cc", "R10");
}

TEST(ProjectGolden, R11FdEscapeExec) {
  CheckProjectFixture("r11_positive.cc", "R11");
  CheckProjectFixture("r11_negative.cc", "R11");
}

TEST(ProjectGolden, R12ForkInThreaded) {
  CheckProjectFixture("r12_positive.cc", "R12");
  CheckProjectFixture("r12_negative.cc", "R12");
}

TEST(ProjectGolden, R12SparesSanctionedSpawnWrappers) {
  // The same threaded-program-with-fork source, displayed under src/spawn/,
  // is the sanctioned wrapper and must stay silent.
  ProjectReport report =
      AnalyzeFixtureAsProject("r12_positive.cc", "R12", "src/spawn/wrapper.cc");
  ASSERT_EQ(report.files.size(), 1u);
  EXPECT_TRUE(report.files[0].findings.empty());
}

TEST(ProjectMode, R9ChainSurvivesIntoSarifRelatedLocations) {
  // The acceptance case: a lock held across a two-deep call chain to fork,
  // with the chain reported via SARIF relatedLocations.
  ProjectAnalyzer project;
  ASSERT_TRUE(project.EnableOnly({"R9"}).ok());
  ProjectReport report = project.AnalyzeSources(
      {{"tests/analysis/fixtures/r9_positive.cc", ReadFixture("r9_positive.cc")}});
  ASSERT_EQ(report.files.size(), 1u);

  const Finding* chained = nullptr;
  for (const auto& f : report.files[0].findings) {
    if (f.message.find("LaunchViaHelper") != std::string::npos) {
      chained = &f;
    }
  }
  ASSERT_NE(chained, nullptr);
  // Lock site, the intermediate hop, and the fork site itself.
  ASSERT_EQ(chained->related.size(), 3u);
  EXPECT_NE(chained->related[0].message.find("lock acquired here"), std::string::npos);
  EXPECT_NE(chained->related[1].message.find("via call to SpawnWorker()"), std::string::npos);
  EXPECT_NE(chained->related[2].message.find("fork() happens here"), std::string::npos);

  const std::string sarif = RenderSarif(project.analyzer(), report.files);
  EXPECT_NE(sarif.find("\"relatedLocations\""), std::string::npos);
  EXPECT_NE(sarif.find("via call to SpawnWorker()"), std::string::npos);
}

TEST(ProjectMode, SuppressionsApplyToProjectFindings) {
  ProjectAnalyzer project;
  ASSERT_TRUE(project.EnableOnly({"R12"}).ok());
  const char* source = R"cc(
    void StartWorkers() {
      pthread_t tid;
      pthread_create(&tid, nullptr, Work, nullptr);
    }
    void SpawnJob() {
      pid_t pid = fork();  // forklint:ignore(R12)
      if (pid == 0) {
        _exit(0);
      }
    }
  )cc";
  ProjectReport report = project.AnalyzeSources({{"prog.cc", source}});
  ASSERT_EQ(report.files.size(), 1u);
  EXPECT_TRUE(report.files[0].findings.empty());
  EXPECT_EQ(report.files[0].suppressed, 1u);
}

TEST(ProjectMode, PerFileRulesStillRun) {
  ProjectAnalyzer project;  // all rules
  const char* source = R"cc(
    void Careless() {
      fork();
    }
  )cc";
  ProjectReport report = project.AnalyzeSources({{"careless.cc", source}});
  ASSERT_EQ(report.files.size(), 1u);
  bool saw_r3 = false;
  for (const auto& f : report.files[0].findings) {
    saw_r3 = saw_r3 || f.rule == "R3";
  }
  EXPECT_TRUE(saw_r3) << "per-file rules must ride along in project mode";
}

TEST(ProjectMode, CrossFileChainLinksTranslationUnits) {
  // The thread lives in one file, the fork in another: only the linked
  // program connects them.
  ProjectAnalyzer project;
  ASSERT_TRUE(project.EnableOnly({"R12"}).ok());
  ProjectReport report = project.AnalyzeSources({
      {"threads.cc", "void StartWorkers() { pthread_create(&tid, nullptr, Work, nullptr); }"},
      {"forker.cc", "void SpawnJob() { pid_t p = fork(); if (p == 0) { _exit(0); } }"},
  });
  ASSERT_EQ(report.files.size(), 2u);
  EXPECT_TRUE(report.files[0].findings.empty());
  ASSERT_EQ(report.files[1].findings.size(), 1u);
  EXPECT_EQ(report.files[1].findings[0].rule, "R12");
  ASSERT_EQ(report.files[1].findings[0].related.size(), 1u);
  EXPECT_EQ(report.files[1].findings[0].related[0].path, "threads.cc");
}

}  // namespace
}  // namespace analysis
}  // namespace forklift
