#include "src/analysis/project.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "src/analysis/callgraph.h"

namespace forklift {
namespace analysis {

ProjectAnalyzer::FileUnit ProjectAnalyzer::AnalyzeOne(const std::string& path,
                                                      std::string_view source) const {
  LexedFile lexed = Lex(source);
  FileUnit unit;
  unit.sups = ParseSuppressions(lexed);
  FileContext ctx(path, std::move(lexed));
  unit.report = analyzer_.AnalyzeLexed(ctx, unit.sups);
  unit.summaries = ExtractSummaries(ctx);
  return unit;
}

ProjectReport ProjectAnalyzer::AnalyzeSources(const std::vector<ProjectInput>& inputs) const {
  std::vector<FileUnit> units;
  units.reserve(inputs.size());
  for (const auto& in : inputs) {
    units.push_back(AnalyzeOne(in.path, in.source));
  }
  return Finish(std::move(units));
}

Result<ProjectReport> ProjectAnalyzer::AnalyzeFiles(const std::vector<std::string>& paths) const {
  std::vector<FileUnit> units;
  units.reserve(paths.size());
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return ErrnoError("open " + path);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad()) {
      return ErrnoError("read " + path);
    }
    units.push_back(AnalyzeOne(path, buf.str()));
  }
  return Finish(std::move(units));
}

ProjectReport ProjectAnalyzer::Finish(std::vector<FileUnit> units) const {
  // Link: one flat summary vector (paths identify provenance), one graph.
  std::vector<FunctionSummary> all;
  for (const auto& unit : units) {
    all.insert(all.end(), unit.summaries.begin(), unit.summaries.end());
  }
  CallGraph graph;
  graph.Build(&all);
  PropagateSummaries(graph, &all);

  const FunctionSummary* thread_witness = nullptr;
  for (const auto& fn : all) {
    if (fn.thread_line != 0) {
      thread_witness = &fn;
      break;
    }
  }
  ProjectContext pctx;
  pctx.graph = &graph;
  pctx.thread_witness = thread_witness;

  std::unordered_map<std::string, size_t> unit_by_path;
  for (size_t i = 0; i < units.size(); ++i) {
    unit_by_path.emplace(units[i].report.path, i);
  }

  for (const auto& rule : analyzer_.rules()) {
    if (!analyzer_.RuleEnabled(rule->id())) {
      continue;
    }
    const auto* project_rule = dynamic_cast<const ProjectRule*>(rule.get());
    if (project_rule == nullptr) {
      continue;
    }
    std::vector<Finding> raw;
    project_rule->CheckProject(pctx, &raw);
    for (auto& f : raw) {
      f.rule = rule->id();
      auto it = unit_by_path.find(f.path);
      if (it == unit_by_path.end()) {
        continue;  // points at nothing we were given (cannot happen today)
      }
      FileUnit& unit = units[it->second];
      if (IsSuppressed(f, unit.sups)) {
        ++unit.report.suppressed;
      } else {
        unit.report.findings.push_back(std::move(f));
      }
    }
  }

  ProjectReport report;
  report.files.reserve(units.size());
  for (auto& unit : units) {
    std::stable_sort(unit.report.findings.begin(), unit.report.findings.end(),
                     [](const Finding& a, const Finding& b) { return a.line < b.line; });
    report.files.push_back(std::move(unit.report));
  }
  return report;
}

}  // namespace analysis
}  // namespace forklift
