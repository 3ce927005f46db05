// minishell — a usable mini shell built entirely on the forklift public API.
//
// The paper's motivating use case for fork is "it's how shells work". This
// example is a working shell with pipelines, redirections, environment
// assignment, backends and builtins — and user code never calls fork: every
// process comes from a Spawner, on whichever backend you pick at runtime.
//
// Usage:
//   ./build/examples/minishell            # interactive
//   echo 'ls -l | head -3' | ./build/examples/minishell
//
// Supported syntax (no globbing or expansion):
//   cmd a b | cmd2 c | cmd3        pipelines
//   cmd > file   cmd >> file       stdout redirection
//   cmd < file                     stdin redirection
//   VAR=value cmd                  per-command environment
//   'single' "double" back\slash   quoting (literal; no $ expansion)
//   cd DIR, exit [N], backend [NAME], help    builtins
//
// `backend` picks the SpawnService route every subsequent command launches
// through: forkexec | vfork | spawn | clone_vm run in-process; forkserver and
// sharded route the spawn to a zygote — the pipeline's fds ride along over
// SCM_RIGHTS, and the shell holds the same ProcessHandle either way.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "src/common/pipe.h"
#include "src/common/string_util.h"
#include "src/forkserver/service_adapters.h"
#include "src/forkserver/sharded.h"
#include "src/spawn/process_handle.h"
#include "src/spawn/service.h"
#include "src/spawn/spawner.h"

using namespace forklift;

namespace {

struct ParsedCommand {
  std::vector<std::string> argv;
  std::vector<std::pair<std::string, std::string>> env;
  std::string stdin_path;
  std::string stdout_path;
  bool stdout_append = false;
};

struct ParsedLine {
  std::vector<ParsedCommand> stages;
};

// Shell-style tokenizer: whitespace splits; '...' and "..." group literally
// (no expansion); backslash escapes the next character outside single quotes.
// `|`, `<`, `>`, `>>` are their own tokens when unquoted.
bool Tokenize(const std::string& line, std::vector<std::string>* out, std::string* error) {
  out->clear();
  std::string cur;
  bool have_token = false;
  size_t i = 0;
  auto flush = [&] {
    if (have_token) {
      out->push_back(cur);
      cur.clear();
      have_token = false;
    }
  };
  while (i < line.size()) {
    char c = line[i];
    if (c == ' ' || c == '\t') {
      flush();
      ++i;
      continue;
    }
    if (c == '\'' || c == '"') {
      char quote = c;
      ++i;
      have_token = true;
      while (i < line.size() && line[i] != quote) {
        if (quote == '"' && line[i] == '\\' && i + 1 < line.size()) {
          ++i;  // backslash escapes inside double quotes
        }
        cur.push_back(line[i++]);
      }
      if (i >= line.size()) {
        *error = std::string("unterminated ") + quote + "-quote";
        return false;
      }
      ++i;  // closing quote
      continue;
    }
    if (c == '\\') {
      if (i + 1 >= line.size()) {
        *error = "trailing backslash";
        return false;
      }
      cur.push_back(line[i + 1]);
      have_token = true;
      i += 2;
      continue;
    }
    if (c == '|' || c == '<' || c == '>') {
      flush();
      if (c == '>' && i + 1 < line.size() && line[i + 1] == '>') {
        out->push_back(">>");
        i += 2;
      } else {
        out->push_back(std::string(1, c));
        ++i;
      }
      continue;
    }
    cur.push_back(c);
    have_token = true;
    ++i;
  }
  flush();
  return true;
}

bool ParseLine(const std::string& line, ParsedLine* out, std::string* error) {
  out->stages.clear();
  ParsedCommand cur;
  auto flush_stage = [&]() -> bool {
    if (cur.argv.empty()) {
      *error = "empty pipeline stage";
      return false;
    }
    out->stages.push_back(std::move(cur));
    cur = ParsedCommand{};
    return true;
  };

  std::vector<std::string> tokens;
  if (!Tokenize(line, &tokens, error)) {
    return false;
  }
  for (size_t i = 0; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    if (tok == "|") {
      if (!flush_stage()) {
        return false;
      }
      continue;
    }
    if (tok == "<" || tok == ">" || tok == ">>") {
      if (i + 1 >= tokens.size()) {
        *error = "missing filename after '" + tok + "'";
        return false;
      }
      const std::string& path = tokens[++i];
      if (tok == "<") {
        cur.stdin_path = path;
      } else {
        cur.stdout_path = path;
        cur.stdout_append = tok == ">>";
      }
      continue;
    }
    // VAR=value prefixes (only before the program name).
    size_t eq = tok.find('=');
    if (cur.argv.empty() && eq != std::string::npos && eq > 0 &&
        tok.find('/') == std::string::npos) {
      cur.env.emplace_back(tok.substr(0, eq), tok.substr(eq + 1));
      continue;
    }
    cur.argv.push_back(tok);
  }
  if (cur.argv.empty() && out->stages.empty()) {
    return true;  // blank line
  }
  return flush_stage();
}

class MiniShell {
 public:
  MiniShell() {
    // Every mechanism the shell can name, registered once; the `backend`
    // builtin just changes which route commands are pinned to.
    service_.AddLocalRoute(SpawnBackendKind::kForkExec);
    service_.AddLocalRoute(SpawnBackendKind::kVfork);
    service_.AddLocalRoute(SpawnBackendKind::kPosixSpawn);
    service_.AddLocalRoute(SpawnBackendKind::kCloneVm);
    service_.AddRoute(ForkServerTransport::StartInProcess());  // forks lazily
    service_.AddRoute(ShardedTransport::StartLazy(ShardedForkServer::Options{}));
  }

  int Run() {
    std::string line;
    while (Prompt(), std::getline(std::cin, line)) {
      Execute(line);
      if (exiting_) {
        break;
      }
    }
    return exit_code_;
  }

 private:
  void Prompt() {
    if (isatty(STDIN_FILENO)) {
      std::printf("forklift[%s]$ ", route_.c_str());
      std::fflush(stdout);
    }
  }

  void Execute(const std::string& line) {
    ParsedLine parsed;
    std::string error;
    if (!ParseLine(line, &parsed, &error)) {
      std::fprintf(stderr, "minishell: %s\n", error.c_str());
      return;
    }
    if (parsed.stages.empty()) {
      return;
    }
    if (parsed.stages.size() == 1 && TryBuiltin(parsed.stages[0])) {
      return;
    }
    RunExternal(parsed);
  }

  bool TryBuiltin(const ParsedCommand& cmd) {
    const std::string& name = cmd.argv[0];
    if (name == "exit") {
      exit_code_ = cmd.argv.size() > 1 ? std::atoi(cmd.argv[1].c_str()) : 0;
      exiting_ = true;
      return true;
    }
    if (name == "cd") {
      const char* dir = cmd.argv.size() > 1 ? cmd.argv[1].c_str() : getenv("HOME");
      if (dir == nullptr || ::chdir(dir) < 0) {
        std::perror("cd");
      }
      return true;
    }
    if (name == "backend") {
      if (cmd.argv.size() > 1) {
        const std::string& want = cmd.argv[1];
        if (want == "fork" || want == "forkexec") {
          route_ = "local:forkexec";
        } else if (want == "vfork") {
          route_ = "local:vfork";
        } else if (want == "spawn" || want == "posix_spawn") {
          route_ = "local:posix_spawn";
        } else if (want == "clone_vm") {
          route_ = "local:clone_vm";
        } else if (want == "forkserver" || want == "sharded") {
          route_ = want;
        } else {
          std::fprintf(stderr, "backend: forkexec | vfork | spawn | clone_vm | "
                               "forkserver | sharded\n");
        }
      }
      std::printf("backend: %s\n", route_.c_str());
      return true;
    }
    if (name == "help") {
      std::printf("builtins: cd DIR, exit [N], backend "
                  "[forkexec|vfork|spawn|clone_vm|forkserver|sharded], help\n"
                  "syntax:   cmd a | cmd2 b, < file, > file, >> file, VAR=v cmd\n");
      return true;
    }
    return false;
  }

  void RunExternal(const ParsedLine& line) {
    std::vector<Pipe> pipes;
    for (size_t i = 0; i + 1 < line.stages.size(); ++i) {
      auto p = MakePipe();
      if (!p.ok()) {
        std::fprintf(stderr, "minishell: %s\n", p.error().ToString().c_str());
        return;
      }
      pipes.push_back(std::move(p).value());
    }

    std::vector<ProcessHandle> children;
    for (size_t i = 0; i < line.stages.size(); ++i) {
      const ParsedCommand& cmd = line.stages[i];
      Spawner s(cmd.argv[0]);
      for (size_t a = 1; a < cmd.argv.size(); ++a) {
        s.Arg(cmd.argv[a]);
      }
      for (const auto& [k, v] : cmd.env) {
        s.SetEnv(k, v);
      }

      if (!cmd.stdin_path.empty()) {
        s.SetStdin(Stdio::Path(cmd.stdin_path));
      } else if (i > 0) {
        s.SetStdin(Stdio::Fd(pipes[i - 1].read_end.get()));
      }
      if (!cmd.stdout_path.empty()) {
        s.SetStdout(cmd.stdout_append ? Stdio::AppendPath(cmd.stdout_path)
                                      : Stdio::Path(cmd.stdout_path));
      } else if (i + 1 < line.stages.size()) {
        s.SetStdout(Stdio::Fd(pipes[i].write_end.get()));
      }

      auto child = service_.Spawn(s, route_);
      if (!child.ok()) {
        std::fprintf(stderr, "minishell: %s: %s\n", cmd.argv[0].c_str(),
                     child.error().ToString().c_str());
        for (auto& c : children) {
          (void)c.KillAndWait();
        }
        return;
      }
      children.push_back(std::move(child).value());
    }
    pipes.clear();  // drop parent copies so EOF propagates

    for (auto& c : children) {
      auto st = c.Wait();
      if (st.ok() && !st->Success() && isatty(STDIN_FILENO)) {
        std::fprintf(stderr, "minishell: [%d] %s\n", static_cast<int>(c.pid()),
                     st->ToString().c_str());
      }
    }
  }

  SpawnService service_;
  std::string route_ = "local:posix_spawn";
  bool exiting_ = false;
  int exit_code_ = 0;
};

}  // namespace

int main() { return MiniShell().Run(); }
