// fork/exec plumbing for the multi-process shard harnesses.
//
// The deterministic half of sharding (partitioning, merging, the chunk
// codec) lives in bgpcmp/core/shard.h and is unit-tested; this header is
// only the OS glue: run_shards spawns N workers, waits for all of them,
// reads back their output files, and removes those files whatever happened.
// Workers write to plain files (not pipes), read only once the worker has
// exited 0; the parent's merge step still checks completeness via the chunk
// codec or the unit names.
#pragma once

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

namespace bgpcmp::tools {

/// Path of the currently running binary, for re-execing workers. /proc is
/// always present on the Linux targets this repo builds for.
inline std::string self_exe() { return "/proc/self/exe"; }

namespace detail {

/// Spawn one worker process running `argv` (argv[0] is the executable).
/// Returns the pid, or -1 if fork failed.
inline pid_t spawn_worker(const std::vector<std::string>& argv) {
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const auto& arg : argv) cargv.push_back(const_cast<char*>(arg.c_str()));
  cargv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(cargv[0], cargv.data());
    std::perror("execv");
    _exit(127);
  }
  return pid;
}

/// Wait for `pid`; empty on a clean exit, else why it failed.
inline std::string wait_cause(pid_t pid) {
  if (pid < 0) return "fork failed";
  int status = 0;
  pid_t got = 0;
  do {
    got = ::waitpid(pid, &status, 0);
  } while (got < 0 && errno == EINTR);
  if (got != pid) return "waitpid failed";
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    const char* abbrev = ::sigabbrev_np(sig);
    return "killed by signal " + std::to_string(sig) + " (SIG" +
           (abbrev != nullptr ? abbrev : "?") + ")";
  }
  if (WEXITSTATUS(status) != 0) return "exit code " + std::to_string(WEXITSTATUS(status));
  return {};
}

inline bool read_file(const std::string& path, std::string* out) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = std::move(buf).str();
  return true;
}

/// A scratch path for one worker's output, under TMPDIR (or /tmp).
inline std::string worker_out_path(const std::string& tag, int index) {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  return dir + "/bgpcmp_shard_" + tag + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(index) + ".txt";
}

}  // namespace detail

/// Builds worker `w`'s full argv (argv[0] is the executable) given the file
/// it must write its output to.
using WorkerArgv =
    std::function<std::vector<std::string>(int worker, const std::string& out_path)>;

struct ShardRun {
  std::vector<std::string> outputs;  ///< one per worker, in worker order; empty on failure
  std::vector<int> failed;           ///< workers that failed, ascending
};

/// Spawn `shards` workers, wait for all of them, and return their output
/// files' text in worker order. A worker fails if it cannot be forked, exits
/// nonzero, dies on a signal, or leaves no output file; each failure is
/// reported on stderr as "shard worker W of N failed: <cause>" and the run
/// returns no outputs. Every worker file is removed either way.
inline ShardRun run_shards(int shards, const std::string& tag, const WorkerArgv& argv_for) {
  std::vector<std::string> paths;
  std::vector<pid_t> pids;
  for (int w = 0; w < shards; ++w) {
    paths.push_back(detail::worker_out_path(tag, w));
    pids.push_back(detail::spawn_worker(argv_for(w, paths.back())));
  }
  ShardRun run;
  std::vector<std::string> outputs(static_cast<std::size_t>(shards));
  for (int w = 0; w < shards; ++w) {
    const auto i = static_cast<std::size_t>(w);
    std::string cause = detail::wait_cause(pids[i]);
    if (cause.empty() && !detail::read_file(paths[i], &outputs[i])) {
      cause = "no output file " + paths[i];
    }
    if (!cause.empty()) {
      std::fprintf(stderr, "shard worker %d of %d failed: %s\n", w, shards,
                   cause.c_str());
      run.failed.push_back(w);
    }
    std::remove(paths[i].c_str());
  }
  if (run.failed.empty()) run.outputs = std::move(outputs);
  return run;
}

}  // namespace bgpcmp::tools
