// forklift/analysis: whole-program ("--project") forklint.
//
// ProjectAnalyzer treats every input file as one program: each file is lexed
// once and run through the per-file rules exactly as in per-file mode, then
// its function summaries are extracted, linked into a cross-TU CallGraph,
// propagated to a fixed point, and handed to the interprocedural rules
// (R9–R12) whose findings are routed back to the file units they point at —
// so suppression comments and baselines work identically for both rule
// classes.
#ifndef SRC_ANALYSIS_PROJECT_H_
#define SRC_ANALYSIS_PROJECT_H_

#include <string>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/analysis/summary.h"
#include "src/common/result.h"

namespace forklift {
namespace analysis {

// One file handed to the project analyzer (tests pass sources directly so
// fixtures can be linted under any display path).
struct ProjectInput {
  std::string path;
  std::string source;
};

// The whole program's findings, one FileReport per input in input order.
struct ProjectReport {
  std::vector<FileReport> files;

  size_t total_findings() const {
    size_t n = 0;
    for (const auto& f : files) {
      n += f.findings.size();
    }
    return n;
  }
};

class ProjectAnalyzer {
 public:
  Status EnableOnly(const std::vector<std::string>& rule_ids) {
    return analyzer_.EnableOnly(rule_ids);
  }

  // Analyzes in-memory sources as one program.
  ProjectReport AnalyzeSources(const std::vector<ProjectInput>& inputs) const;

  // Reads every path and analyzes them as one program. Fails on the first
  // unreadable file.
  Result<ProjectReport> AnalyzeFiles(const std::vector<std::string>& paths) const;

  const Analyzer& analyzer() const { return analyzer_; }

 private:
  struct FileUnit {
    FileReport report;
    std::vector<Suppression> sups;
    std::vector<FunctionSummary> summaries;
  };

  FileUnit AnalyzeOne(const std::string& path, std::string_view source) const;
  ProjectReport Finish(std::vector<FileUnit> units) const;

  Analyzer analyzer_;
};

}  // namespace analysis
}  // namespace forklift

#endif  // SRC_ANALYSIS_PROJECT_H_
