#include "src/analysis/summary.h"

#include <algorithm>

#include "src/analysis/callgraph.h"
#include "src/analysis/rules/rule_util.h"
#include "src/analysis/rules/unsafe_sets.h"

namespace forklift {
namespace analysis {

namespace {

using rule_util::FlagState;
using rule_util::InspectFlagArg;
using rule_util::InUnsafeFree;
using rule_util::InUnsafeMember;
using rule_util::InUnsafeStd;
using rule_util::IsExecCall;
using rule_util::IsIdent;
using rule_util::IsMemberCall;
using rule_util::IsPunct;
using rule_util::LooksLikeDeclaration;
using rule_util::SplitArgs;

bool IsControlKeyword(const Token& t) {
  if (t.kind != TokKind::kIdent) {
    return false;
  }
  return t.text == "if" || t.text == "while" || t.text == "for" || t.text == "switch" ||
         t.text == "return" || t.text == "catch" || t.text == "sizeof";
}

bool IsGuardName(std::string_view s) {
  return s == "lock_guard" || s == "unique_lock" || s == "scoped_lock" || s == "shared_lock";
}

// Live lock state while scanning a function body. RAII guards die with their
// enclosing block; explicit locks die with their unlock. `.unlock()` with no
// explicit lock outstanding releases the most recent guard (the
// unique_lock-released-early pattern), erring toward fewer false positives.
struct LockTracker {
  struct Entry {
    int depth;
    int line;
    std::string desc;
  };
  std::vector<Entry> raii;
  std::vector<Entry> taken;  // explicit .lock()/pthread_mutex_lock

  bool held() const { return !raii.empty() || !taken.empty(); }
  const Entry* current() const {
    if (!taken.empty() && (raii.empty() || taken.back().line >= raii.back().line)) {
      return &taken.back();
    }
    return raii.empty() ? nullptr : &raii.back();
  }
  void CloseBlock(int closing_depth) {
    while (!raii.empty() && raii.back().depth >= closing_depth) {
      raii.pop_back();
    }
  }
  void Release() {
    if (!taken.empty()) {
      taken.pop_back();
    } else if (!raii.empty()) {
      raii.pop_back();
    }
  }
};

// Argument count at a call: tokens (open, close) split on top-level commas;
// `()` and `(void)` are zero.
int CallArity(const std::vector<Token>& toks, size_t open, size_t close) {
  if (close <= open + 1) {
    return 0;
  }
  if (close == open + 2 && IsIdent(toks[open + 1], "void")) {
    return 0;
  }
  return static_cast<int>(SplitArgs(toks, open, close).size());
}

// Parameter count of the definition whose body opens at `body_begin`:
// walk back over cv/ref/exception-spec noise to the parameter list.
int DefinitionArity(const FileContext& ctx, size_t body_begin) {
  const auto& toks = ctx.tokens();
  size_t j = body_begin;
  while (j > 0) {
    const Token& t = toks[j - 1];
    if (IsIdent(t, "const") || IsIdent(t, "noexcept") || IsIdent(t, "override") ||
        IsIdent(t, "final") || IsIdent(t, "mutable") || IsPunct(t, "&") || IsPunct(t, "&&")) {
      --j;
      continue;
    }
    break;
  }
  if (j == 0 || !IsPunct(toks[j - 1], ")")) {
    return 0;
  }
  int depth = 0;
  for (size_t k = j - 1; k + 1 > 0; --k) {
    if (IsPunct(toks[k], ")")) {
      ++depth;
    } else if (IsPunct(toks[k], "(")) {
      if (--depth == 0) {
        return CallArity(toks, k, j - 1);
      }
    }
    if (k == 0) {
      break;
    }
  }
  return 0;
}

// Calls whose only job is to consume or repair a descriptor — passing an fd
// to them is not an escape.
bool IsFdConsumer(std::string_view name) {
  return name == "close" || name == "fclose" || name == "SetCloexec";
}

// Fills `leak->escapes` if `var` leaves the function after token `from`:
// `return var` or `var` inside some later call's argument list.
void ScanForEscape(const FileContext& ctx, size_t from, size_t span_end, LeakyFdRef* leak) {
  const auto& toks = ctx.tokens();
  const std::string& var = leak->var;
  if (var.empty()) {
    return;
  }
  for (size_t i = from; i < span_end && i < toks.size(); ++i) {
    if (IsIdent(toks[i], "return")) {
      for (size_t j = i + 1; j < span_end && j < toks.size() && !IsPunct(toks[j], ";"); ++j) {
        if (IsIdent(toks[j], var)) {
          leak->escapes = true;
          leak->escape_line = toks[j].line;
          leak->escape_how = "returned";
          return;
        }
      }
      continue;
    }
    if (toks[i].kind != TokKind::kIdent || i + 1 >= toks.size() || !IsPunct(toks[i + 1], "(") ||
        IsControlKeyword(toks[i]) || LooksLikeDeclaration(toks, i) ||
        IsFdConsumer(toks[i].text)) {
      continue;
    }
    size_t close = ctx.MatchForward(i + 1);
    if (close >= toks.size()) {
      continue;
    }
    for (size_t j = i + 2; j < close; ++j) {
      if (IsIdent(toks[j], var)) {
        leak->escapes = true;
        leak->escape_line = toks[j].line;
        leak->escape_how = "passed to " + toks[i].text + "()";
        return;
      }
    }
  }
}

// The result-variable of `var = NAME(...)` (also `Type var = NAME(...)`), or
// "" when the result is discarded/compared inline.
std::string ResultVar(const std::vector<Token>& toks, size_t call_ident) {
  if (call_ident >= 2 && IsPunct(toks[call_ident - 1], "=") &&
      toks[call_ident - 2].kind == TokKind::kIdent) {
    return toks[call_ident - 2].text;
  }
  return "";
}

// Classifies a call as a descriptor creation and, when it cannot have set
// CLOEXEC, records a LeakyFdRef (mirrors R2's per-call logic).
void MaybeRecordFdCreation(const FileContext& ctx, size_t i, size_t close, size_t span_end,
                           FunctionSummary* fn) {
  const auto& toks = ctx.tokens();
  const std::string& name = toks[i].text;
  auto args = SplitArgs(toks, i + 1, close);
  bool leaky = false;
  std::string var;
  auto missing = [&](size_t pos, std::string_view flag) {
    return InspectFlagArg(toks, args, pos, flag) == FlagState::kMissing;
  };
  if (name == "open" || name == "OpenFd") {
    leaky = missing(1, "O_CLOEXEC");
  } else if (name == "openat") {
    leaky = missing(2, "O_CLOEXEC");
  } else if (name == "pipe2") {
    leaky = missing(1, "O_CLOEXEC");
  } else if (name == "socket" || name == "socketpair") {
    leaky = missing(1, "SOCK_CLOEXEC");
  } else if (name == "accept4") {
    leaky = missing(3, "SOCK_CLOEXEC");
  } else if (name == "creat" || name == "pipe" || name == "accept" || name == "dup") {
    leaky = true;  // no atomic CLOEXEC spelling exists for these
  } else if (name == "fopen") {
    const Token* last_string = nullptr;
    for (size_t j = i + 2; j < close; ++j) {
      if (toks[j].kind == TokKind::kString) {
        last_string = &toks[j];
      }
    }
    leaky = last_string == nullptr || last_string->text.find('e') == std::string::npos;
  } else if (name == "MakePipe" || name == "MakeSocketPair") {
    // cloexec defaults to true; only an explicit literal `false` is a leak.
    for (const auto& arg : args) {
      for (size_t j = arg.begin; j < arg.end; ++j) {
        leaky = leaky || IsIdent(toks[j], "false");
      }
    }
  } else {
    return;
  }
  if (!leaky) {
    return;
  }
  LeakyFdRef leak;
  leak.line = toks[i].line;
  leak.call = name;
  if ((name == "pipe" || name == "pipe2" || name == "socketpair") && !args.empty()) {
    for (size_t j = args[0].begin; j < args[0].end; ++j) {
      if (toks[j].kind == TokKind::kIdent) {
        leak.var = toks[j].text;
        break;
      }
    }
  } else {
    leak.var = ResultVar(toks, i);
  }
  if (i >= 1 && IsIdent(toks[i - 1], "return")) {
    leak.escapes = true;
    leak.escape_line = toks[i].line;
    leak.escape_how = "returned";
  } else {
    ScanForEscape(ctx, close + 1, span_end, &leak);
  }
  fn->leaky_fds.push_back(std::move(leak));
}

}  // namespace

std::vector<FunctionSummary> ExtractSummaries(const FileContext& ctx) {
  const auto& toks = ctx.tokens();
  const auto& spans = ctx.functions();

  // Child-branch tokens, exec-bounded, exactly as R1 walks them.
  std::vector<char> in_child(toks.size(), 0);
  for (const auto& site : ctx.fork_sites()) {
    for (size_t i = site.child_begin; i < site.child_end && i < toks.size(); ++i) {
      if (rule_util::IsExecOrHardExit(toks, i)) {
        break;
      }
      in_child[i] = 1;
    }
  }
  // Token index of each fork call for O(1) membership while scanning.
  std::vector<char> is_fork_tok(toks.size(), 0);
  std::vector<char> fork_is_vfork(toks.size(), 0);
  for (const auto& site : ctx.fork_sites()) {
    is_fork_tok[site.call_index] = 1;
    fork_is_vfork[site.call_index] = site.is_vfork;
  }

  std::vector<FunctionSummary> out;
  out.reserve(spans.size());
  for (size_t s = 0; s < spans.size(); ++s) {
    const FunctionSpan& span = spans[s];
    if (span.body_end > toks.size()) {
      continue;  // unbalanced body; nothing trustworthy to summarize
    }
    FunctionSummary fn;
    fn.name = span.name;
    fn.path = ctx.path();
    fn.arity = DefinitionArity(ctx, span.body_begin);
    fn.line = toks[span.body_begin].line;

    // Directly-nested spans (lambdas with parameter lists, local classes) own
    // their tokens; skipping whole balanced ranges keeps brace depth honest.
    std::vector<const FunctionSpan*> nested;
    for (size_t t = s + 1; t < spans.size() && spans[t].body_begin < span.body_end; ++t) {
      if (spans[t].body_end <= span.body_end) {
        nested.push_back(&spans[t]);
      }
    }
    size_t next_nested = 0;

    LockTracker locks;
    int depth = 0;
    for (size_t i = span.body_begin; i < span.body_end; ++i) {
      while (next_nested < nested.size() && nested[next_nested]->body_begin < i) {
        ++next_nested;
      }
      if (next_nested < nested.size() && i == nested[next_nested]->body_begin) {
        i = nested[next_nested]->body_end;  // lands on the nested `}`; loop ++ skips past
        ++next_nested;
        continue;
      }
      const Token& t = toks[i];
      if (IsPunct(t, "{")) {
        ++depth;
        continue;
      }
      if (IsPunct(t, "}")) {
        locks.CloseBlock(depth);
        --depth;
        continue;
      }
      if (t.kind != TokKind::kIdent) {
        continue;
      }
      bool is_member = IsMemberCall(toks, i);
      bool next_is_paren = i + 1 < toks.size() && IsPunct(toks[i + 1], "(");

      // RAII guard declarations: std::lock_guard<std::mutex> g(mu).
      if (IsGuardName(t.text) && !is_member && i + 1 < toks.size() &&
          (IsPunct(toks[i + 1], "<") || toks[i + 1].kind == TokKind::kIdent)) {
        locks.raii.push_back({depth, t.line, "std::" + t.text});
        continue;
      }
      // std::-qualified unsafe names (allocation, stdio streams, guards).
      if (t.text == "std" && i + 2 < toks.size() && IsPunct(toks[i + 1], "::") &&
          InUnsafeStd(toks[i + 2].text)) {
        fn.unsafe_calls.push_back({"std::" + toks[i + 2].text, t.line});
        // fall through: the guard push happens at the name token itself
      }
      if (t.text == "new" || t.text == "delete") {
        fn.unsafe_calls.push_back({t.text, t.line});
        continue;
      }
      // Thread creation.
      if ((t.text == "pthread_create" && next_is_paren && !is_member) ||
          ((t.text == "thread" || t.text == "jthread" || t.text == "async") && i >= 2 &&
           IsPunct(toks[i - 1], "::") && IsIdent(toks[i - 2], "std") &&
           (i + 1 >= toks.size() || !IsPunct(toks[i + 1], "::")))) {
        if (fn.thread_line == 0) {
          fn.thread_line = t.line;
        }
        continue;
      }
      if (!next_is_paren) {
        continue;
      }
      // Fork sites (recognized by FileContext, member/ns-qualified already
      // rejected there).
      if (is_fork_tok[i]) {
        ForkSiteRef fork;
        fork.line = t.line;
        fork.is_vfork = fork_is_vfork[i];
        if (const auto* cur = locks.current(); cur != nullptr && locks.held()) {
          fork.lock_held = true;
          fork.lock_line = cur->line;
          fork.lock_desc = cur->desc;
        }
        fn.forks.push_back(std::move(fork));
        continue;
      }
      if (t.text == "fork" || t.text == "vfork") {
        continue;  // ns-qualified or member fork — not the libc symbol
      }
      // Exec-family calls terminate chains; record, don't link. Hard exits
      // (_exit/_Exit) terminate too and are never edges.
      if (IsExecCall(toks, i) && !is_member) {
        if (fn.exec_line == 0) {
          fn.exec_line = t.line;
          fn.exec_callee = t.text;
        }
        continue;
      }
      if (rule_util::IsExecOrHardExit(toks, i)) {
        continue;
      }
      // Explicit lock calls double as unsafe uses (R1's member set).
      if (is_member && InUnsafeMember(t.text)) {
        fn.unsafe_calls.push_back({"." + t.text + "()", t.line});
        if (t.text == "lock") {
          locks.taken.push_back({depth, t.line, ".lock()"});
        } else if (t.text == "unlock") {
          locks.Release();
        }
        continue;
      }
      if (t.text == "pthread_mutex_unlock") {
        locks.Release();
        continue;
      }
      if (InUnsafeFree(t.text)) {
        fn.unsafe_calls.push_back({t.text + "()", t.line});
        if (t.text == "pthread_mutex_lock") {
          locks.taken.push_back({depth, t.line, "pthread_mutex_lock"});
        }
        continue;
      }
      if (IsControlKeyword(t) || LooksLikeDeclaration(toks, i)) {
        continue;
      }
      size_t close = ctx.MatchForward(i + 1);
      if (close >= toks.size()) {
        continue;
      }
      MaybeRecordFdCreation(ctx, i, close, span.body_end, &fn);
      // `std::move(x)` and friends are noise, not edges; our own namespaces
      // (`forklift::X(...)`) are real links and keep their unqualified name.
      if (i >= 2 && IsPunct(toks[i - 1], "::") && IsIdent(toks[i - 2], "std")) {
        continue;
      }
      CallSiteRef call;
      call.callee = t.text;
      call.arity = CallArity(toks, i + 1, close);
      call.line = t.line;
      call.is_member = is_member;
      call.in_child_branch = in_child[i] != 0;
      if (const auto* cur = locks.current(); cur != nullptr && locks.held()) {
        call.lock_held = true;
        call.lock_line = cur->line;
        call.lock_desc = cur->desc;
      }
      fn.calls.push_back(std::move(call));
    }
    out.push_back(std::move(fn));
  }
  return out;
}

void PropagateSummaries(const CallGraph& graph, std::vector<FunctionSummary>* fns) {
  for (auto& fn : *fns) {
    fn.may_fork = !fn.forks.empty();
    fn.may_exec = fn.exec_line != 0;
    fn.may_unsafe = !fn.unsafe_calls.empty();
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < fns->size(); ++i) {
      FunctionSummary& fn = (*fns)[i];
      for (size_t c = 0; c < fn.calls.size(); ++c) {
        int target = graph.ResolveCall(i, c);
        if (target < 0) {
          continue;
        }
        const FunctionSummary& callee = (*fns)[static_cast<size_t>(target)];
        if (callee.may_fork && !fn.may_fork) {
          fn.may_fork = changed = true;
        }
        if (callee.may_exec && !fn.may_exec) {
          fn.may_exec = changed = true;
        }
        if (callee.may_unsafe && !fn.may_unsafe) {
          fn.may_unsafe = changed = true;
        }
      }
    }
  }
}

}  // namespace analysis
}  // namespace forklift
