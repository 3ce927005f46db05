// forklift/faultinject: deterministic, seeded syscall fault injection.
//
// The paper's failure modes (§4–§5) live in the rarely-taken branches: EINTR
// mid-handshake, EMFILE while relocating a transferred descriptor, a short
// write splitting a wire frame. This layer sits behind the forklift:: syscall
// wrappers and lets a test (or FORKLIFT_FAULTS in the environment) force those
// branches deterministically: every wrapper consults Check(site, op) before
// the real syscall and either proceeds, fails with an injected errno, or is
// clamped to a 1-byte "short" transfer.
//
// Determinism: the plan is pure state + a counter. The nth/every/limit
// schedule depends only on the seed and the sequence of site hits, never on
// wall-clock or randomness drawn at injection time.
//
// Cross-process: hit and injection counters live in a MAP_SHARED anonymous
// region, so a fork-server zygote (forked after InstallPlan) shares one
// counter space with the test driver. A sweep therefore sees — and can
// target — sites that only execute inside the server process. Slot claiming
// is lock-free (CAS per slot); counting is a single fetch_add.
//
// The disabled fast path is one relaxed atomic load; production builds keep
// the hooks compiled in and pay nothing measurable.
#ifndef SRC_FAULTINJECT_FAULTINJECT_H_
#define SRC_FAULTINJECT_FAULTINJECT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace forklift {
namespace fault {

// What kind of operation a site performs. Injection modes are gated on this:
// injecting EAGAIN into epoll_wait or EINTR into fcntl would manufacture
// failures the real kernel cannot produce, and the sweep's "EINTR must be
// survived" invariant depends on only injecting faults the wrapper contract
// covers.
enum class Op : uint32_t {
  kRead = 0,      // read(2)-like byte transfer into the caller
  kWrite,         // write(2)-like byte transfer out of the caller
  kOpen,          // open(2)
  kWait,          // waitpid(2)/waitid(2)
  kDup,           // dup2(2) (EINTR-retried by the wrapper)
  kDupFd,         // fcntl(F_DUPFD*) (not EINTR-retried)
  kFcntl,         // other fcntl/timerfd control operations
  kEpollWait,     // epoll_wait(2)
  kEpollCtl,      // epoll_ctl(2)
  kPidfdOpen,     // pidfd_open(2)
  kCreateFd,      // pipe2/socketpair/epoll_create1/timerfd_create
  kSendmsg,       // sendmsg(2)
  kRecvmsg,       // recvmsg(2)
  kCreateProcess, // fork/vfork/clone (ENOMEM only: EAGAIN runs must succeed)
};

enum class Mode : uint32_t {
  kNone = 0,
  kEintr,   // EINTR: every wrapper with a retry loop must survive this
  kEagain,  // EAGAIN: byte-transfer wrappers must wait-and-retry, not fail
  kEnomem,  // ENOMEM: must surface as a clean Status, no leak, no hang
  kEmfile,  // EMFILE: ditto (descriptor exhaustion)
  kEio,     // EIO: hard I/O error on a byte transfer
  kShort,   // transfer clamped to 1 byte: loops must resume, framing must hold
};

// The decision returned to a fault point.
struct Injection {
  Mode mode = Mode::kNone;
  int err = 0;  // errno to fail with; 0 for kNone / kShort

  bool active() const { return mode != Mode::kNone; }
  bool is_errno() const { return err != 0; }
  bool is_short() const { return mode == Mode::kShort; }
};

// A parsed FORKLIFT_FAULTS specification, e.g.
//   FORKLIFT_FAULTS=seed=42,site=wire.*,mode=eintr,every=3
//   FORKLIFT_FAULTS=site=syscall.read_full,mode=short,nth=2
//   FORKLIFT_FAULTS=trace=1
struct PlanSpec {
  uint64_t seed = 1;
  std::string site = "*";    // glob over site names ('*' matches any run)
  Mode mode = Mode::kNone;
  uint64_t every = 0;        // inject on a seeded residue class of hits
  uint64_t nth = 0;          // inject exactly on the nth matching hit
  uint64_t limit = 1;        // max injections across all processes; 0 = unlimited
  bool trace = false;        // record site hits, inject nothing
};

// Parses "key=value,key=value". Returns false and fills `error` on a bad key,
// value, or mode name. On success `out` holds the spec with defaults applied
// (a mode with neither nth nor every set becomes nth=1).
bool ParsePlanSpec(std::string_view text, PlanSpec* out, std::string* error);

// Installs `spec` and resets all counters. Not safe against concurrent
// Check() calls — install before the activity under test starts (the sweep
// driver installs between runs; forked children inherit the active plan).
void InstallPlan(const PlanSpec& spec);

// Disables injection. The registry survives so Snapshot() still reports the
// finished run.
void ClearPlan();

// True when a plan (including a trace-only plan) is active in this process.
bool Enabled();

// The hook the syscall wrappers call. Returns the injection decision for this
// hit of `site` (a stable dotted name, e.g. "syscall.read_full"). Counts the
// hit in the shared registry even when nothing is injected.
Injection Check(const char* site, Op op);

// Reads FORKLIFT_FAULTS and installs it if present and well-formed; malformed
// specs are reported on stderr and ignored (a typo must not silently disable
// a fault campaign AND the main workload). Called lazily by the first Check()
// in a process; explicit calls are idempotent per install.
void InstallPlanFromEnv();

// Everything known about one site.
struct SiteReport {
  std::string site;
  Op op = Op::kRead;
  uint64_t hits = 0;
  uint64_t injected = 0;
};

// Snapshot of the shared registry (sorted by site name). Includes hits from
// every process sharing the mapping (e.g. a fork-server zygote).
std::vector<SiteReport> Snapshot();

// Total injections fired across all processes since InstallPlan.
uint64_t InjectionsFired();

// Mode/op vocabulary used by the sweep driver and the spec parser.
const char* ModeName(Mode mode);
bool ModeFromName(std::string_view name, Mode* out);
const char* OpName(Op op);
int ErrnoForMode(Mode mode);
bool ModeApplies(Mode mode, Op op);
std::vector<Mode> ApplicableModes(Op op);

// True for modes the wrappers promise to absorb (retry until success): a run
// that only injected these must still succeed end to end.
bool ModeIsRecoverable(Mode mode);

// Simple '*'-glob match, exposed for tests.
bool SiteGlobMatch(std::string_view pattern, std::string_view site);

}  // namespace fault
}  // namespace forklift

#endif  // SRC_FAULTINJECT_FAULTINJECT_H_
