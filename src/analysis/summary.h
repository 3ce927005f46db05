// forklift/analysis: per-function summaries — the unit of forklint's
// whole-program analysis.
//
// A FunctionSummary is everything the interprocedural rules (R9–R12) need to
// know about one function without re-reading its body: the calls it makes
// (with the lock state and fork-child context at each call site), its own
// fork/exec/thread-creation sites, its direct async-signal-unsafe uses, and
// any non-CLOEXEC descriptors it creates that escape it. Summaries are
// extracted per file and linked across translation units by the CallGraph;
// PropagateSummaries then runs the transitive may-* facts to a fixed point
// over the graph, cycles included.
//
// Like the per-file rules, everything here is heuristic token matching —
// precision over recall. Lock tracking understands RAII guards
// (lock_guard/unique_lock/scoped_lock scopes die with their enclosing block)
// and explicit .lock()/.unlock()/pthread_mutex_lock pairs; calls made from
// lambda bodies are attributed to the lambda (an unlinkable node), not the
// enclosing function, so indirect dispatch never manufactures a false chain.
#ifndef SRC_ANALYSIS_SUMMARY_H_
#define SRC_ANALYSIS_SUMMARY_H_

#include <string>
#include <vector>

#include "src/analysis/rule.h"

namespace forklift {
namespace analysis {

// One call expression inside a function body.
struct CallSiteRef {
  std::string callee;  // unqualified name as written
  int arity = 0;       // argument count at the call site
  int line = 0;
  bool is_member = false;       // x.f() / x->f()
  bool lock_held = false;       // a guard or explicit lock is live at the call
  int lock_line = 0;            // where that lock was acquired (0 = none)
  std::string lock_desc;        // "std::lock_guard", ".lock()", ...
  bool in_child_branch = false;  // inside a fork child branch, before exec/_exit
};

struct ForkSiteRef {
  int line = 0;
  bool is_vfork = false;
  bool lock_held = false;
  int lock_line = 0;
  std::string lock_desc;
};

// A descriptor created without CLOEXEC, and whether its value leaves the
// creating function (returned, or passed onward as a call argument).
struct LeakyFdRef {
  int line = 0;
  std::string call;  // creating call (open, pipe, MakePipe, ...)
  std::string var;   // variable the fd landed in ("" = unknown)
  bool escapes = false;
  int escape_line = 0;
  std::string escape_how;  // "returned" or "passed to F()"
};

struct UnsafeCallRef {
  std::string name;  // printf, new, std::string, .lock(), ...
  int line = 0;
};

struct FunctionSummary {
  std::string name;  // unqualified; "<lambda>" for lambdas (never a link target)
  std::string path;
  int arity = 0;  // parameter count of the definition (overload resolution key)
  int line = 0;   // line of the body's opening brace

  std::vector<CallSiteRef> calls;
  std::vector<ForkSiteRef> forks;
  std::vector<LeakyFdRef> leaky_fds;
  std::vector<UnsafeCallRef> unsafe_calls;  // direct async-signal-unsafe uses
  int thread_line = 0;  // first pthread_create/std::thread/std::async site (0 = none)
  int exec_line = 0;    // first exec-family call (0 = none)
  std::string exec_callee;

  // Transitive facts, computed by PropagateSummaries over the call graph.
  bool may_fork = false;    // reaches a fork()/vfork() site
  bool may_exec = false;    // reaches an exec-family call
  bool may_unsafe = false;  // reaches an async-signal-unsafe use
};

// Extracts summaries for every function span in one analyzed file.
std::vector<FunctionSummary> ExtractSummaries(const FileContext& ctx);

class CallGraph;  // callgraph.h

// Runs may_fork/may_exec/may_unsafe to a fixed point over the linked graph.
// Terminates on cycles (monotone boolean lattice).
void PropagateSummaries(const CallGraph& graph, std::vector<FunctionSummary>* fns);

}  // namespace analysis
}  // namespace forklift

#endif  // SRC_ANALYSIS_SUMMARY_H_
