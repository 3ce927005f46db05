// forklift/spawn: one-call conveniences over Spawner — run-and-capture and
// shell-style pipelines. This layer is what downstream code actually calls for
// the "shells and build tools" use case the paper motivates.
#ifndef SRC_SPAWN_COMMAND_H_
#define SRC_SPAWN_COMMAND_H_

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/spawn/spawner.h"

namespace forklift {

struct RunResult {
  ExitStatus status;
  std::string stdout_data;
  std::string stderr_data;
};

struct RunOptions {
  std::string stdin_data;
  SpawnBackendKind backend = SpawnBackendKind::kForkExec;
  // Seconds; <= 0 means wait forever. On timeout the child is SIGKILLed and an
  // error returned.
  double timeout_seconds = 0;
};

// Runs `program` with `args`, feeding stdin_data and capturing both output
// streams. A non-zero exit is NOT an error at this level (callers inspect
// `status`); only failures to create or supervise the process are.
Result<RunResult> RunAndCapture(const std::string& program, const std::vector<std::string>& args,
                                const RunOptions& opts = {});

// One stage of a pipeline.
struct PipelineStage {
  std::string program;
  std::vector<std::string> args;
};

struct PipelineResult {
  std::vector<ExitStatus> statuses;  // one per stage, in order
  std::string stdout_data;           // output of the last stage
};

// Spawns all stages connected stdin→stdout by pipes (as a shell would for
// "a | b | c"), feeds `stdin_data` to the first, captures the last stage's
// stdout, and reaps every stage. All stages are spawned before any completes —
// true concurrent pipeline semantics, not sequential buffering.
Result<PipelineResult> RunPipeline(const std::vector<PipelineStage>& stages,
                                   const std::string& stdin_data = "",
                                   SpawnBackendKind backend = SpawnBackendKind::kForkExec);

}  // namespace forklift

#endif  // SRC_SPAWN_COMMAND_H_
