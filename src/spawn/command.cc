#include "src/spawn/command.h"

#include <utility>

#include "src/common/pipe.h"
#include "src/common/syscall.h"

namespace forklift {

Result<RunResult> RunAndCapture(const std::string& program, const std::vector<std::string>& args,
                                const RunOptions& opts) {
  Spawner spawner(program);
  spawner.Args(args)
      .SetStdout(Stdio::Pipe())
      .SetStderr(Stdio::Pipe())
      .SetBackend(opts.backend);
  if (!opts.stdin_data.empty()) {
    spawner.SetStdin(Stdio::Pipe());
  } else {
    spawner.SetStdin(Stdio::Null());
  }
  FORKLIFT_ASSIGN_OR_RETURN(ProcessHandle child, spawner.Spawn());

  if (opts.timeout_seconds > 0) {
    // Supervised mode: drain with a deadline. Simpler discipline: communicate
    // in a watchdog loop is overkill here; Communicate blocks until EOF, which
    // a runaway child may never deliver, so enforce the deadline first on exit
    // and then drain what the (now dead) child produced.
    FORKLIFT_ASSIGN_OR_RETURN(auto maybe_status, child.WaitDeadline(opts.timeout_seconds));
    if (!maybe_status.has_value()) {
      (void)child.KillAndWait();
      return LogicalError("RunAndCapture: timeout after " +
                          std::to_string(opts.timeout_seconds) + "s running " + program);
    }
  }

  FORKLIFT_ASSIGN_OR_RETURN(ProcessHandle::Outcome oc, child.Communicate(opts.stdin_data));
  RunResult r;
  r.status = oc.status;
  r.stdout_data = std::move(oc.stdout_data);
  r.stderr_data = std::move(oc.stderr_data);
  return r;
}

Result<PipelineResult> RunPipeline(const std::vector<PipelineStage>& stages,
                                   const std::string& stdin_data, SpawnBackendKind backend) {
  if (stages.empty()) {
    return LogicalError("RunPipeline: no stages");
  }

  // Pipes between consecutive stages. pipes[i] connects stage i's stdout to
  // stage i+1's stdin.
  std::vector<Pipe> pipes;
  pipes.reserve(stages.size() - 1);
  for (size_t i = 0; i + 1 < stages.size(); ++i) {
    FORKLIFT_ASSIGN_OR_RETURN(Pipe p, MakePipe());
    pipes.push_back(std::move(p));
  }

  std::vector<ProcessHandle> children;
  children.reserve(stages.size());
  for (size_t i = 0; i < stages.size(); ++i) {
    Spawner s(stages[i].program);
    s.Args(stages[i].args).SetBackend(backend);
    if (i == 0) {
      s.SetStdin(stdin_data.empty() ? Stdio::Null() : Stdio::Pipe());
    } else {
      s.SetStdin(Stdio::Fd(pipes[i - 1].read_end.get()));
    }
    if (i + 1 < stages.size()) {
      s.SetStdout(Stdio::Fd(pipes[i].write_end.get()));
    } else {
      s.SetStdout(Stdio::Pipe());
    }
    auto child = s.Spawn();
    if (!child.ok()) {
      // Unwind: kill anything already launched so we don't strand a half
      // pipeline blocked on pipes we are about to destroy.
      for (auto& c : children) {
        (void)c.KillAndWait();
      }
      return Err(child.error());
    }
    children.push_back(std::move(child).value());
  }
  // The parent must drop its copies of the inter-stage pipe ends or the
  // readers never see EOF.
  pipes.clear();

  // Feed the head and drain the tail concurrently (poll loop): sequential
  // feed-then-drain deadlocks once stdin_data exceeds the kernel pipe buffers,
  // because every inter-stage pipe can fill while we are still writing.
  PipelineResult result;
  if (stages.size() == 1) {
    FORKLIFT_ASSIGN_OR_RETURN(ProcessHandle::Outcome oc, children.back().Communicate(stdin_data));
    result.stdout_data = std::move(oc.stdout_data);
  } else {
    // Move the head's stdin pipe onto the tail child and let Communicate's
    // poll loop pump both ends; the tail has no stdin pipe of its own (it
    // reads from the inter-stage pipe), so the slot is free.
    children.back().stdin_fd() = std::move(children.front().stdin_fd());
    FORKLIFT_ASSIGN_OR_RETURN(ProcessHandle::Outcome oc, children.back().Communicate(stdin_data));
    result.stdout_data = std::move(oc.stdout_data);
  }
  for (auto& c : children) {
    FORKLIFT_ASSIGN_OR_RETURN(ExitStatus st, c.Wait());
    result.statuses.push_back(st);
  }
  return result;
}

}  // namespace forklift
