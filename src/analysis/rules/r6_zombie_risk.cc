// R6: every fork obligates someone to reap the child; a pid that is neither
// waited on nor handed off becomes a zombie holding a process-table slot
// (part of the paper's "fork sets implicit obligations the API does not
// surface" argument). The rule passes when the enclosing function waits
// (waitpid & friends, or this repo's ChildWatch/Wait* machinery) or visibly
// transfers ownership of the pid (returns it, stores it, or passes it to a
// call).
#include <array>

#include "src/analysis/rules/rule_util.h"
#include "src/analysis/rules/rules.h"

namespace forklift {
namespace analysis {

namespace {

using rule_util::IsIdent;
using rule_util::IsPunct;

// Reaping vocabulary: libc wait calls plus this repo's blessed wrappers
// (src/common/syscall.h, src/common/reactor.h, src/spawn/process_handle.h).
constexpr std::array<std::string_view, 12> kWaitIdents = {
    "wait",    "waitpid",     "waitid",       "wait3",        "wait4",     "WaitPid",
    "WaitForExit", "WaitDeadline", "ChildWatch", "Communicate", "AwaitExec", "Reap"};

class ZombieRiskRule : public Rule {
 public:
  std::string_view id() const override { return "R6"; }
  std::string_view summary() const override {
    return "a forked pid must be waited on or handed off, or the child becomes a zombie";
  }

  void Check(const FileContext& ctx, std::vector<Finding>* out) const override {
    const auto& toks = ctx.tokens();
    for (const auto& site : ctx.fork_sites()) {
      const FunctionSpan* fn = ctx.EnclosingFunction(site.call_index);
      size_t begin = fn ? fn->body_begin : 0;
      size_t end = fn ? fn->body_end : toks.size();

      bool waits = false;
      for (size_t i = begin; i < end && i < toks.size() && !waits; ++i) {
        if (toks[i].kind != TokKind::kIdent) {
          continue;
        }
        for (std::string_view w : kWaitIdents) {
          if (toks[i].text == w) {
            waits = true;
            break;
          }
        }
      }
      if (waits || (!site.result_var.empty() &&
                    PidHandedOff(ctx, site, end))) {
        continue;
      }
      const Token& t = toks[site.call_index];
      out->push_back({"", "", t.line,
                      t.text + "() child is never reaped here: no wait call in scope and the "
                      "pid is not returned, stored, or passed on (zombie risk)"});
    }
  }

 private:
  // True when the fork's pid variable is visibly transferred after the call:
  // `return pid`, `x = pid`, or `pid` as an argument in a call list.
  static bool PidHandedOff(const FileContext& ctx, const ForkSite& site, size_t end) {
    const auto& toks = ctx.tokens();
    for (size_t i = site.call_index + 1; i < end && i < toks.size(); ++i) {
      if (!IsIdent(toks[i], site.result_var)) {
        continue;
      }
      if (i > 0 && (IsIdent(toks[i - 1], "return") || IsPunct(toks[i - 1], "="))) {
        return true;
      }
      // Argument position: preceded by a call's `(` or a `,` at call depth.
      if (i > 0 && IsPunct(toks[i - 1], ",")) {
        return true;
      }
      if (i > 0 && IsPunct(toks[i - 1], "(") && ctx.IsCallArgListOpen(i - 1)) {
        return true;
      }
    }
    return false;
  }
};

}  // namespace

std::unique_ptr<Rule> MakeZombieRiskRule() { return std::make_unique<ZombieRiskRule>(); }

}  // namespace analysis
}  // namespace forklift
