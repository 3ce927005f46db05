// spawnbench: what the benchmark reads about processes from outside them —
// CPU, context switches and RSS of itself and its zygotes, plus the checks
// that keep back-to-back runs honest (no zombies, no stray zygotes, no fd
// growth).
#ifndef SPAWNBENCH_PROCFS_H_
#define SPAWNBENCH_PROCFS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace spawnbench {

// One process as /proc shows it. cpu_s is the on-CPU time of its main thread
// from /proc/<pid>/schedstat (nanoseconds; zygotes are single-threaded), or
// utime+stime from /proc/<pid>/stat (clock ticks) where schedstat is absent.
// ctxsw is voluntary+nonvoluntary switches and rss_kib is VmRSS, both from
// /proc/<pid>/status.
struct ProcSample {
  double cpu_s = 0;
  uint64_t ctxsw = 0;
  uint64_t rss_kib = 0;
};
ProcSample ReadProc(pid_t pid);

// This process's user+sys CPU and context switches, from getrusage.
struct SelfUsage {
  double cpu_s = 0;
  uint64_t ctxsw = 0;
};
SelfUsage ReadSelfUsage();

// Host-wide CPU time from the first line of /proc/stat, in clock ticks:
// `steal` is time the hypervisor ran something else while a vCPU wanted to
// run; `total` is every state summed.
struct HostCpu {
  uint64_t steal = 0;
  uint64_t total = 0;
};
HostCpu ReadHostCpu();

// Entries in /proc/self/fd.
size_t CountOpenFds();

// Pids of live or zombie processes whose parent is `parent`.
std::vector<pid_t> ChildrenOf(pid_t parent);

// Pids (other than `except`) whose comm is one of `names`.
std::vector<pid_t> ProcessesNamed(const std::vector<std::string>& names, pid_t except);

// comm of this process (what its zygotes are called too: they are forks).
std::string SelfComm();

}  // namespace spawnbench

#endif  // SPAWNBENCH_PROCFS_H_
