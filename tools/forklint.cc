// forklint — source-level fork-safety analyzer for the hazards of
// "A fork() in the road" (HotOS'19 §4/§5). Lints C++ files or directory
// trees for the R1–R12 hazard classes (see src/analysis/rules/) and reports
// as text, JSON, or SARIF 2.1.0.
//
// Usage:
//   forklint [options] <file-or-dir>...
//
// Options:
//   --rules=R1,R3,...     run only the listed rules (default: all)
//   --format=text|json|sarif
//   --project             whole-program mode: link all inputs into one call
//                         graph and run the interprocedural rules (R9–R12)
//                         on top of the per-file ones
//   --baseline=FILE       accept findings listed in FILE ("RULE path" lines);
//                         only findings NOT in the baseline count as failures
//   --update-baseline     rewrite the --baseline file from the current
//                         findings (post-suppression) and exit 0
//   --list-rules          print the rule catalog and exit
//
// Inline suppression: `// forklint:ignore(R2)` on (or directly above) the
// flagged line; `// forklint:ignore-next(R2)` as a trailing comment shields
// the line below it; bare `forklint:ignore` silences all rules.
//
// Exit code: the number of non-baselined findings, capped at 120 so a large
// finding count can never wrap around or collide with the error codes; I/O
// or usage errors exit 255.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/analysis/project.h"
#include "src/analysis/report.h"
#include "src/common/string_util.h"

namespace fs = std::filesystem;
using forklift::analysis::Analyzer;
using forklift::analysis::FileReport;
using forklift::analysis::ProjectAnalyzer;

namespace {

// Findings beyond this cap all exit alike; 255 is reserved for hard errors.
constexpr size_t kMaxFindingsExit = 120;

bool HasLintableExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".cpp" || ext == ".cxx" || ext == ".h" || ext == ".hpp";
}

bool IsSkippedDir(const fs::path& p) {
  const std::string name = p.filename().string();
  return name == ".git" || forklift::StartsWith(name, "build");
}

// Expands file/dir args into a sorted list of lintable files. Paths are kept
// exactly as derived from the arguments so baseline entries match what the
// invoker wrote (run from the repo root, `src` yields `src/...`).
std::vector<std::string> CollectFiles(const std::vector<std::string>& args, bool* io_error) {
  std::set<std::string> files;
  for (const auto& arg : args) {
    std::error_code ec;
    if (fs::is_directory(arg, ec)) {
      fs::recursive_directory_iterator it(arg, fs::directory_options::skip_permission_denied, ec);
      if (ec) {
        std::fprintf(stderr, "forklint: cannot walk %s: %s\n", arg.c_str(), ec.message().c_str());
        *io_error = true;
        continue;
      }
      for (auto end = fs::recursive_directory_iterator(); it != end; it.increment(ec)) {
        if (ec) {
          break;
        }
        if (it->is_directory() && IsSkippedDir(it->path())) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && HasLintableExtension(it->path())) {
          files.insert(it->path().generic_string());
        }
      }
    } else if (fs::is_regular_file(arg, ec)) {
      files.insert(fs::path(arg).generic_string());
    } else {
      std::fprintf(stderr, "forklint: no such file or directory: %s\n", arg.c_str());
      *io_error = true;
    }
  }
  return {files.begin(), files.end()};
}

// Baseline format: one `RULE path` pair per line, `#` comments. A finding
// matches on (rule, path) — line numbers are deliberately not part of the
// baseline so unrelated edits don't invalidate it.
bool LoadBaseline(const std::string& path, std::set<std::string>* entries) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "forklint: cannot read baseline %s\n", path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    std::string_view t = forklift::Trim(line);
    if (t.empty() || t.front() == '#') {
      continue;
    }
    auto fields = forklift::SplitWhitespace(t);
    if (fields.size() != 2) {
      std::fprintf(stderr, "forklint: malformed baseline line: %s\n", line.c_str());
      return false;
    }
    entries->insert(fields[0] + " " + fields[1]);
  }
  return true;
}

// Rewrites `path` from the current findings: one sorted, de-duplicated
// `RULE path` pair per finding, under a regeneration header.
bool WriteBaseline(const std::string& path, const std::vector<FileReport>& reports) {
  std::set<std::string> entries;
  for (const auto& r : reports) {
    for (const auto& f : r.findings) {
      entries.insert(f.rule + " " + f.path);
    }
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "forklint: cannot write baseline %s\n", path.c_str());
    return false;
  }
  out << "# forklint baseline — accepted findings, one `RULE path` pair per line.\n";
  out << "# Regenerate with: forklint --update-baseline --baseline=" << path
      << " [--project] <paths>\n";
  for (const auto& e : entries) {
    out << e << '\n';
  }
  return static_cast<bool>(out);
}

int Usage() {
  std::fprintf(stderr,
               "usage: forklint [--rules=R1,...] [--format=text|json|sarif] [--project] "
               "[--baseline=FILE] [--update-baseline] [--list-rules] <file-or-dir>...\n");
  return 255;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::vector<std::string> rule_filter;
  std::string format = "text";
  std::string baseline_path;
  bool list_rules = false;
  bool project_mode = false;
  bool update_baseline = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (forklift::StartsWith(arg, "--rules=")) {
      for (const auto& r : forklift::Split(arg.substr(8), ',')) {
        std::string id(forklift::Trim(r));
        if (!id.empty()) {
          rule_filter.push_back(id);
        }
      }
    } else if (forklift::StartsWith(arg, "--format=")) {
      format = arg.substr(9);
      if (format != "text" && format != "json" && format != "sarif") {
        return Usage();
      }
    } else if (forklift::StartsWith(arg, "--baseline=")) {
      baseline_path = arg.substr(11);
    } else if (arg == "--project") {
      project_mode = true;
    } else if (arg == "--update-baseline") {
      update_baseline = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (forklift::StartsWith(arg, "-")) {
      return Usage();
    } else {
      paths.push_back(arg);
    }
  }

  ProjectAnalyzer project;
  const Analyzer& analyzer = project.analyzer();
  if (list_rules) {
    for (const auto& rule : analyzer.rules()) {
      std::printf("%s  %s\n", std::string(rule->id()).c_str(),
                  std::string(rule->summary()).c_str());
    }
    return 0;
  }
  if (paths.empty()) {
    return Usage();
  }
  if (update_baseline && baseline_path.empty()) {
    std::fprintf(stderr, "forklint: --update-baseline requires --baseline=FILE\n");
    return Usage();
  }
  if (auto st = project.EnableOnly(rule_filter); !st.ok()) {
    std::fprintf(stderr, "forklint: %s\n", st.ToString().c_str());
    return 255;
  }

  bool io_error = false;
  const std::vector<std::string> files = CollectFiles(paths, &io_error);
  std::vector<FileReport> reports;
  if (project_mode) {
    auto result = project.AnalyzeFiles(files);
    if (!result.ok()) {
      std::fprintf(stderr, "forklint: %s\n", result.error().ToString().c_str());
      return 255;
    }
    reports = std::move(result->files);
  } else {
    for (const auto& file : files) {
      auto report = analyzer.AnalyzeFile(file);
      if (!report.ok()) {
        std::fprintf(stderr, "forklint: %s\n", report.error().ToString().c_str());
        io_error = true;
        continue;
      }
      reports.push_back(std::move(*report));
    }
  }

  if (update_baseline) {
    if (!WriteBaseline(baseline_path, reports)) {
      return 255;
    }
    size_t entries = 0;
    for (const auto& r : reports) {
      entries += r.findings.size();
    }
    std::printf("forklint: baseline %s regenerated from %zu finding(s)\n",
                baseline_path.c_str(), entries);
    return io_error ? 255 : 0;
  }

  std::set<std::string> baseline;
  if (!baseline_path.empty() && !LoadBaseline(baseline_path, &baseline)) {
    return 255;
  }
  size_t baselined = 0;
  if (!baseline.empty()) {
    for (auto& r : reports) {
      auto& fs_ = r.findings;
      for (auto it = fs_.begin(); it != fs_.end();) {
        if (baseline.count(it->rule + " " + it->path)) {
          it = fs_.erase(it);
          ++baselined;
        } else {
          ++it;
        }
      }
    }
  }

  size_t count = 0;
  for (const auto& r : reports) {
    count += r.findings.size();
  }
  if (format == "json") {
    std::fputs(forklift::analysis::RenderJson(reports).c_str(), stdout);
    std::fputc('\n', stdout);
  } else if (format == "sarif") {
    std::fputs(forklift::analysis::RenderSarif(analyzer, reports).c_str(), stdout);
    std::fputc('\n', stdout);
  } else {
    std::fputs(forklift::analysis::RenderText(reports).c_str(), stdout);
    if (baselined > 0) {
      std::printf("forklint: %zu baselined finding(s) accepted\n", baselined);
    }
  }
  if (io_error) {
    return 255;
  }
  return static_cast<int>(std::min(count, kMaxFindingsExit));
}
