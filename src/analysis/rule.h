// forklift/analysis: the forklint rule framework.
//
// A Rule inspects one file's token stream plus the pre-computed fork-site and
// function-span context and emits findings. Rules are deliberately syntactic:
// forklint trades soundness for review-time feedback, so every rule is a
// heuristic with an escape hatch (`// forklint:ignore(RN)` at the call site).
#ifndef SRC_ANALYSIS_RULE_H_
#define SRC_ANALYSIS_RULE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/lexer.h"

namespace forklift {
namespace analysis {

// A secondary location attached to a finding — interprocedural rules use a
// chain of these to show how the hazard is reached (lock site, call hops,
// fork/exec site). Rendered as SARIF `relatedLocations`.
struct RelatedLocation {
  std::string path;
  int line = 0;
  std::string message;
};

// One hazard at one source location. For per-file rules, `rule` and `path`
// are stamped by the Analyzer after the rule runs; rules only fill line +
// message. Project rules span files, so they fill `path` themselves (the
// rule id is still stamped by the driver).
struct Finding {
  std::string rule;
  std::string path;
  int line = 0;
  std::string message;
  std::vector<RelatedLocation> related{};
};

// A fork()/vfork() call site with whatever surrounding structure the analyzer
// could recover. Token indices refer to FileContext::tokens.
struct ForkSite {
  size_t call_index = 0;  // index of the `fork`/`vfork` identifier token
  bool is_vfork = false;
  bool checked = false;      // return value assigned or compared
  std::string result_var;    // "" when the result is discarded or compared inline
  // Child-branch token range [child_begin, child_end), or 0,0 when no
  // `pid == 0`-style branch was found after the call.
  size_t child_begin = 0;
  size_t child_end = 0;
};

// A function (or lambda/ctor) body span [body_begin, body_end) in tokens,
// where body_begin indexes the opening `{`. Innermost spans come last.
struct FunctionSpan {
  std::string name;  // best-effort; "<lambda>" for lambdas
  size_t body_begin = 0;
  size_t body_end = 0;
};

// Everything a rule may look at for one file.
class FileContext {
 public:
  FileContext(std::string path, LexedFile lexed);

  const std::string& path() const { return path_; }
  const std::vector<Token>& tokens() const { return lexed_.tokens; }
  const std::vector<Comment>& comments() const { return lexed_.comments; }
  const std::vector<ForkSite>& fork_sites() const { return fork_sites_; }
  const std::vector<FunctionSpan>& functions() const { return functions_; }

  // Index of the token matching the `(`/`{`/`[` at `open`, or tokens().size()
  // if unbalanced.
  size_t MatchForward(size_t open) const;

  // True when tokens()[ident] is an identifier directly followed by `(` —
  // i.e. it reads as a call (or function-style cast).
  bool IsCallTo(size_t ident, std::string_view name) const;

  // True when the `(` at `open` opens a *call* argument list rather than an
  // `if`/`while`/... condition or a parenthesized expression.
  bool IsCallArgListOpen(size_t open) const;

  // Innermost function span containing token index `tok`, or nullptr.
  const FunctionSpan* EnclosingFunction(size_t tok) const;

 private:
  void BuildFunctions();
  void BuildForkSites();
  void BranchAfter(size_t cond_close, ForkSite* site);
  void FindChildBranchByVar(size_t from, const std::string& var, ForkSite* site);

  std::string path_;
  LexedFile lexed_;
  std::vector<ForkSite> fork_sites_;
  std::vector<FunctionSpan> functions_;
};

class Rule {
 public:
  virtual ~Rule() = default;

  virtual std::string_view id() const = 0;       // "R1".."R12"
  virtual std::string_view summary() const = 0;  // one line, used in --list-rules and SARIF
  virtual void Check(const FileContext& ctx, std::vector<Finding>* out) const = 0;
};

// Everything an interprocedural rule may look at: the linked call graph over
// all translation units plus program-wide facts. Defined in callgraph.h.
struct ProjectContext;

// A rule that needs the whole program. In per-file mode these rules are
// silent (Check is a no-op); ProjectAnalyzer drives CheckProject once the
// call graph is linked and summaries are propagated.
class ProjectRule : public Rule {
 public:
  void Check(const FileContext&, std::vector<Finding>*) const override {}
  virtual void CheckProject(const ProjectContext& ctx, std::vector<Finding>* out) const = 0;
};

}  // namespace analysis
}  // namespace forklift

#endif  // SRC_ANALYSIS_RULE_H_
