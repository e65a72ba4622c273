#include "procs.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <ctime>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "trace.hpp"

extern char** environ;

namespace perfbench {

Child spawn_in(const std::string& dir, const std::vector<std::string>& argv,
               const std::string& stdout_path,
               const std::string& stderr_path) {
  int pipe_fds[2] = {-1, -1};
  if (stdout_path.empty() && ::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe: " + std::string(std::strerror(errno)));
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addchdir_np(&fa, dir.c_str());
  if (stdout_path.empty()) {
    posix_spawn_file_actions_adddup2(&fa, pipe_fds[1], STDOUT_FILENO);
  } else {
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, stdout_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
  }
  posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args;
  std::vector<std::string> copy = argv;
  for (auto& s : copy) args.push_back(s.data());
  args.push_back(nullptr);
  Child c;
  c.spawn_ns = now_ns();
  const int rc = ::posix_spawn(&c.pid, copy[0].c_str(), &fa, nullptr,
                               args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (stdout_path.empty()) ::close(pipe_fds[1]);
  if (rc != 0) {
    if (stdout_path.empty()) ::close(pipe_fds[0]);
    throw std::runtime_error("spawn " + copy[0] + ": " + std::strerror(rc));
  }
  c.stdout_pipe = stdout_path.empty() ? pipe_fds[0] : -1;
  c.pidfd = static_cast<int>(::syscall(SYS_pidfd_open, c.pid, 0));
  return c;
}

bool try_reap(Child& c) {
  if (c.exited) return true;
  int status = 0;
  const pid_t r = ::waitpid(c.pid, &status, WNOHANG);
  if (r != c.pid) return false;
  c.exit_ns = now_ns();
  c.exited = true;
  c.exit_code = WIFEXITED(status)     ? WEXITSTATUS(status)
                : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                      : -1;
  return true;
}

void close_fds(Child& c) {
  if (c.stdout_pipe >= 0) ::close(c.stdout_pipe);
  if (c.pidfd >= 0) ::close(c.pidfd);
  c.stdout_pipe = -1;
  c.pidfd = -1;
}

void kill_and_reap(Child& c) {
  if (c.pid > 0 && !c.exited) {
    ::kill(c.pid, SIGKILL);
    int status = 0;
    ::waitpid(c.pid, &status, 0);
    c.exited = true;
    c.exit_ns = now_ns();
    c.exit_code = 128 + SIGKILL;
  }
  close_fds(c);
}

namespace {

double cpu_of(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

}  // namespace

double cpu_seconds_self() { return cpu_of(RUSAGE_SELF); }
double cpu_seconds_children() { return cpu_of(RUSAGE_CHILDREN); }

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

long peak_rss_kb_self() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

long peak_rss_kb_children() {
  rusage ru{};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  return ru.ru_maxrss;
}

HostTicks host_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  HostTicks t;
  f >> cpu;
  for (int field = 0; field < 8 && f; ++field) {
    std::uint64_t v = 0;
    f >> v;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace perfbench
