// Unit tests for the whole-program layer beneath R9–R12: per-function summary
// extraction (calls, locks, forks, fds, threads, execs), name+arity call-graph
// linkage across files, fixed-point propagation over cycles, and chain
// recovery.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/callgraph.h"
#include "src/analysis/lexer.h"
#include "src/analysis/summary.h"

namespace forklift {
namespace analysis {
namespace {

std::vector<FunctionSummary> Summarize(std::string_view src, std::string path) {
  FileContext ctx(std::move(path), Lex(src));
  return ExtractSummaries(ctx);
}

int IndexOf(const std::vector<FunctionSummary>& fns, std::string_view name) {
  for (size_t i = 0; i < fns.size(); ++i) {
    if (fns[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

const FunctionSummary& Get(const std::vector<FunctionSummary>& fns, std::string_view name) {
  int i = IndexOf(fns, name);
  EXPECT_GE(i, 0) << "no summary for " << name;
  return fns[static_cast<size_t>(i)];
}

TEST(SummaryExtraction, CallsForksAndLockState) {
  auto fns = Summarize(R"cc(
    std::mutex g_mu;
    int DoFork() {
      pid_t pid = fork();
      if (pid == 0) {
        _exit(0);
      }
      return pid;
    }
    void Caller() {
      std::lock_guard<std::mutex> guard(g_mu);
      DoFork();
    }
  )cc",
                       "a.cc");
  const FunctionSummary& do_fork = Get(fns, "DoFork");
  ASSERT_EQ(do_fork.forks.size(), 1u);
  EXPECT_FALSE(do_fork.forks[0].lock_held);
  EXPECT_EQ(do_fork.arity, 0);

  const FunctionSummary& caller = Get(fns, "Caller");
  ASSERT_EQ(caller.calls.size(), 1u);
  EXPECT_EQ(caller.calls[0].callee, "DoFork");
  EXPECT_TRUE(caller.calls[0].lock_held);
  EXPECT_EQ(caller.calls[0].lock_desc, "std::lock_guard");
}

TEST(SummaryExtraction, GuardScopeDiesWithBlockAndExplicitUnlockReleases) {
  auto fns = Summarize(R"cc(
    void Scoped() {
      {
        std::lock_guard<std::mutex> guard(g_mu);
      }
      After();
    }
    void Explicit() {
      g_mu.lock();
      Inside();
      g_mu.unlock();
      Outside();
    }
  )cc",
                       "a.cc");
  const FunctionSummary& scoped = Get(fns, "Scoped");
  ASSERT_EQ(scoped.calls.size(), 1u);
  EXPECT_FALSE(scoped.calls[0].lock_held);

  const FunctionSummary& expl = Get(fns, "Explicit");
  ASSERT_EQ(expl.calls.size(), 2u);
  EXPECT_TRUE(expl.calls[0].lock_held);
  EXPECT_EQ(expl.calls[0].callee, "Inside");
  EXPECT_FALSE(expl.calls[1].lock_held);
  EXPECT_EQ(expl.calls[1].callee, "Outside");
}

TEST(SummaryExtraction, ChildBranchThreadAndExecFacts) {
  auto fns = Summarize(R"cc(
    void Child() {
      pid_t pid = fork();
      if (pid == 0) {
        Inside();
        _exit(0);
      }
      AfterFork();
    }
    void Threads() {
      pthread_t tid;
      pthread_create(&tid, nullptr, Work, nullptr);
    }
    void Execs() {
      execv("/bin/true", nullptr);
    }
  )cc",
                       "a.cc");
  const FunctionSummary& child = Get(fns, "Child");
  ASSERT_EQ(child.calls.size(), 2u);
  EXPECT_TRUE(child.calls[0].in_child_branch);
  EXPECT_FALSE(child.calls[1].in_child_branch);

  EXPECT_NE(Get(fns, "Threads").thread_line, 0);
  const FunctionSummary& execs = Get(fns, "Execs");
  EXPECT_NE(execs.exec_line, 0);
  EXPECT_EQ(execs.exec_callee, "execv");
  EXPECT_TRUE(execs.calls.empty());  // exec terminates the chain, not an edge
}

TEST(SummaryExtraction, LeakyFdEscapeForms) {
  auto fns = Summarize(R"cc(
    int Returned() {
      int fd = open("/tmp/x", O_WRONLY);
      return fd;
    }
    void Passed() {
      int fd = open("/tmp/y", O_RDONLY);
      Consume(fd);
    }
    void Contained() {
      int fd = open("/tmp/z", O_RDONLY);
      close(fd);
    }
    int Safe() {
      return open("/tmp/w", O_WRONLY | O_CLOEXEC);
    }
  )cc",
                       "a.cc");
  const FunctionSummary& ret = Get(fns, "Returned");
  ASSERT_EQ(ret.leaky_fds.size(), 1u);
  EXPECT_TRUE(ret.leaky_fds[0].escapes);
  EXPECT_EQ(ret.leaky_fds[0].escape_how, "returned");

  const FunctionSummary& passed = Get(fns, "Passed");
  ASSERT_EQ(passed.leaky_fds.size(), 1u);
  EXPECT_TRUE(passed.leaky_fds[0].escapes);
  EXPECT_EQ(passed.leaky_fds[0].escape_how, "passed to Consume()");

  const FunctionSummary& contained = Get(fns, "Contained");
  ASSERT_EQ(contained.leaky_fds.size(), 1u);
  EXPECT_FALSE(contained.leaky_fds[0].escapes);  // close() consumes, not escapes

  EXPECT_TRUE(Get(fns, "Safe").leaky_fds.empty());
}

TEST(SummaryExtraction, LambdaBodiesAreNotTheEnclosingFunctions) {
  auto fns = Summarize(R"cc(
    void Runner() {
      auto task = [](int v) { printf("%d", v); };
      task(3);
    }
  )cc",
                       "a.cc");
  const FunctionSummary& runner = Get(fns, "Runner");
  EXPECT_TRUE(runner.unsafe_calls.empty());  // the printf belongs to the lambda
  ASSERT_GE(IndexOf(fns, "<lambda>"), 0);
  EXPECT_FALSE(Get(fns, "<lambda>").unsafe_calls.empty());
}

TEST(CallGraph, OverloadsResolveByArity) {
  auto fns = Summarize(R"cc(
    int Handle(int a) { return a; }
    int Handle(int a, int b) {
      pid_t p = fork();
      if (p == 0) { _exit(0); }
      return a + b;
    }
    void Caller() { Handle(1, 2); }
  )cc",
                       "a.cc");
  CallGraph graph;
  graph.Build(&fns);
  PropagateSummaries(graph, &fns);

  int caller = IndexOf(fns, "Caller");
  ASSERT_GE(caller, 0);
  int target = graph.ResolveCall(static_cast<size_t>(caller), 0);
  ASSERT_GE(target, 0);
  EXPECT_EQ(fns[static_cast<size_t>(target)].arity, 2);
  EXPECT_TRUE(fns[static_cast<size_t>(caller)].may_fork);
}

TEST(CallGraph, SameFileDefinitionWinsOverCrossFile) {
  auto a = Summarize("void Helper() { pid_t p = fork(); if (p == 0) { _exit(0); } }", "a.cc");
  auto b = Summarize(R"cc(
    void Helper() {}
    void User() { Helper(); }
  )cc",
                     "b.cc");
  std::vector<FunctionSummary> all;
  all.insert(all.end(), a.begin(), a.end());
  all.insert(all.end(), b.begin(), b.end());
  CallGraph graph;
  graph.Build(&all);
  PropagateSummaries(graph, &all);

  int user = IndexOf(all, "User");
  ASSERT_GE(user, 0);
  int target = graph.ResolveCall(static_cast<size_t>(user), 0);
  ASSERT_GE(target, 0);
  EXPECT_EQ(all[static_cast<size_t>(target)].path, "b.cc");
  EXPECT_FALSE(all[static_cast<size_t>(user)].may_fork);
}

TEST(CallGraph, AmbiguousCrossFileStaysUnresolved) {
  auto a = Summarize("void Helper() { pid_t p = fork(); if (p == 0) { _exit(0); } }", "a.cc");
  auto b = Summarize("void Helper() {}", "b.cc");
  auto c = Summarize("void User() { Helper(); }", "c.cc");
  std::vector<FunctionSummary> all;
  for (auto* v : {&a, &b, &c}) {
    all.insert(all.end(), v->begin(), v->end());
  }
  CallGraph graph;
  graph.Build(&all);
  PropagateSummaries(graph, &all);

  int user = IndexOf(all, "User");
  ASSERT_GE(user, 0);
  EXPECT_EQ(graph.ResolveCall(static_cast<size_t>(user), 0), -1);
  EXPECT_FALSE(all[static_cast<size_t>(user)].may_fork);
}

TEST(CallGraph, UniqueCrossFileResolves) {
  auto a = Summarize("void Helper() { pid_t p = fork(); if (p == 0) { _exit(0); } }", "a.cc");
  auto c = Summarize("void User() { Helper(); }", "c.cc");
  std::vector<FunctionSummary> all;
  all.insert(all.end(), a.begin(), a.end());
  all.insert(all.end(), c.begin(), c.end());
  CallGraph graph;
  graph.Build(&all);
  PropagateSummaries(graph, &all);

  int user = IndexOf(all, "User");
  ASSERT_GE(user, 0);
  EXPECT_GE(graph.ResolveCall(static_cast<size_t>(user), 0), 0);
  EXPECT_TRUE(all[static_cast<size_t>(user)].may_fork);
}

TEST(CallGraph, PropagationTerminatesOnCyclesWithCorrectFacts) {
  auto fns = Summarize(R"cc(
    void Ping(int n) {
      if (n > 0) { Pong(n - 1); }
    }
    void Pong(int n) {
      Ping(n - 1);
      pid_t p = fork();
      if (p == 0) { _exit(0); }
    }
    void Bystander() { Leaf(); }
    void Leaf() {}
  )cc",
                       "a.cc");
  CallGraph graph;
  graph.Build(&fns);
  PropagateSummaries(graph, &fns);
  EXPECT_TRUE(Get(fns, "Ping").may_fork);
  EXPECT_TRUE(Get(fns, "Pong").may_fork);
  EXPECT_FALSE(Get(fns, "Bystander").may_fork);
}

TEST(CallGraph, ChainToRecoversShortestPath) {
  auto fns = Summarize(R"cc(
    void Deep() { pid_t p = fork(); if (p == 0) { _exit(0); } }
    void Mid() { Deep(); }
    void Top() { Mid(); }
  )cc",
                       "a.cc");
  CallGraph graph;
  graph.Build(&fns);
  int top = IndexOf(fns, "Top");
  ASSERT_GE(top, 0);
  auto chain = graph.ChainTo(static_cast<size_t>(top),
                             [](const FunctionSummary& f) { return !f.forks.empty(); });
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(fns[chain[0].fn].name, "Top");
  EXPECT_EQ(fns[chain[0].fn].calls[chain[0].call].callee, "Mid");
  EXPECT_EQ(fns[chain[1].fn].name, "Mid");
  EXPECT_EQ(fns[chain[1].fn].calls[chain[1].call].callee, "Deep");
}

}  // namespace
}  // namespace analysis
}  // namespace forklift
