#include "procfs.h"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

namespace spawnbench {

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Numeric entries of a /proc directory.
std::vector<pid_t> ListPids(const char* dir) {
  std::vector<pid_t> out;
  DIR* d = ::opendir(dir);
  if (d == nullptr) return out;
  while (dirent* e = ::readdir(d)) {
    char* end = nullptr;
    long v = std::strtol(e->d_name, &end, 10);
    if (end != e->d_name && *end == '\0' && v > 0) out.push_back(static_cast<pid_t>(v));
  }
  ::closedir(d);
  return out;
}

// The /proc/<pid>/stat fields after "(comm)", split on spaces: index 0 is
// field 3 (state), so field N sits at index N - 3.
std::vector<std::string> StatFields(pid_t pid, std::string* comm) {
  std::string stat = ReadFile("/proc/" + std::to_string(pid) + "/stat");
  size_t open = stat.find('(');
  size_t close = stat.rfind(')');
  if (open == std::string::npos || close == std::string::npos || close < open) return {};
  if (comm != nullptr) *comm = stat.substr(open + 1, close - open - 1);
  std::istringstream rest(stat.substr(close + 1));
  std::vector<std::string> fields;
  for (std::string f; rest >> f;) fields.push_back(f);
  return fields;
}

uint64_t StatusField(const std::string& status, const char* key) {
  size_t at = status.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(status.c_str() + at + std::char_traits<char>::length(key), nullptr, 10);
}

}  // namespace

ProcSample ReadProc(pid_t pid) {
  ProcSample s;
  std::vector<std::string> f = StatFields(pid, nullptr);
  if (f.size() < 13) return s;
  static const double kTick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  std::string sched = ReadFile("/proc/" + std::to_string(pid) + "/schedstat");
  if (!sched.empty()) {
    s.cpu_s = std::strtod(sched.c_str(), nullptr) / 1e9;
  } else {
    s.cpu_s = (std::strtod(f[11].c_str(), nullptr) + std::strtod(f[12].c_str(), nullptr)) / kTick;
  }
  std::string status = ReadFile("/proc/" + std::to_string(pid) + "/status");
  s.ctxsw = StatusField(status, "\nvoluntary_ctxt_switches:") +
            StatusField(status, "\nnonvoluntary_ctxt_switches:");
  s.rss_kib = StatusField(status, "\nVmRSS:");
  return s;
}

SelfUsage ReadSelfUsage() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  SelfUsage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  u.ctxsw = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

HostCpu ReadHostCpu() {
  std::istringstream in(ReadFile("/proc/stat"));
  std::string label;
  in >> label;
  HostCpu h;
  // user nice system idle iowait irq softirq steal; guest time is already
  // inside user and nice.
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    h.total += v;
    if (i == 7) h.steal = v;
  }
  return h;
}

size_t CountOpenFds() {
  // ListPids' own directory fd is open while it lists, so it counts itself;
  // that is the same on every call and cancels in any before/after delta.
  return ListPids("/proc/self/fd").size();
}

std::vector<pid_t> ChildrenOf(pid_t parent) {
  std::vector<pid_t> out;
  for (pid_t pid : ListPids("/proc")) {
    std::vector<std::string> f = StatFields(pid, nullptr);
    if (f.size() > 1 && std::atoi(f[1].c_str()) == parent) out.push_back(pid);
  }
  return out;
}

std::vector<pid_t> ProcessesNamed(const std::vector<std::string>& names, pid_t except) {
  std::vector<pid_t> out;
  for (pid_t pid : ListPids("/proc")) {
    if (pid == except) continue;
    std::string comm;
    if (StatFields(pid, &comm).empty()) continue;
    for (const std::string& n : names) {
      if (comm == n) {
        out.push_back(pid);
        break;
      }
    }
  }
  return out;
}

std::string SelfComm() {
  std::string comm;
  StatFields(::getpid(), &comm);
  return comm;
}

}  // namespace spawnbench
