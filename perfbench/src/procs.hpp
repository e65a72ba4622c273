#pragma once
// Child processes and resource usage for the process workloads: spawn a
// tool in a given directory, watch its stdout and exit without spinning
// (pidfd + poll), and always reap what was started.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Child {
  pid_t pid = -1;
  int stdout_pipe = -1;  // read end when stdout is piped, else -1
  int pidfd = -1;        // readable once the child exits; -1 if unsupported
  std::uint64_t spawn_ns = 0;
  std::uint64_t exit_ns = 0;
  int exit_code = -1;  // exit status, or 128 + signal
  bool exited = false;
};

/// Starts argv[0] with working directory `dir`. stdout goes to a pipe when
/// `stdout_path` is empty, else to that file; stderr goes to `stderr_path`.
/// Throws std::runtime_error when the process cannot be started.
Child spawn_in(const std::string& dir, const std::vector<std::string>& argv,
               const std::string& stdout_path,
               const std::string& stderr_path);

/// Reaps `c` if it has exited (non-blocking); records exit time and code.
bool try_reap(Child& c);

/// SIGKILLs `c` if still running and reaps it; closes its descriptors.
void kill_and_reap(Child& c);

/// Closes a reaped child's descriptors.
void close_fds(Child& c);

/// User + system CPU seconds of this process and of its reaped children.
double cpu_seconds_self();
double cpu_seconds_children();

/// CPU time of the calling thread, in nanoseconds.
std::uint64_t thread_cpu_ns();

/// Peak resident set in kB: this process (VmHWM), and the largest reaped
/// child (RUSAGE_CHILDREN ru_maxrss).
long peak_rss_kb_self();
long peak_rss_kb_children();

/// Host-wide CPU ticks from /proc/stat: all, and stolen by the hypervisor.
/// The stolen share of a measured loop says how contended the host was.
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
HostTicks host_ticks();

/// Whole contents of a file ("" when unreadable).
std::string slurp(const std::string& path);

}  // namespace perfbench
