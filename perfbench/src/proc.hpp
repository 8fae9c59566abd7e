// Process-level probes (/proc) and the copathd child process.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One /proc reading of a process: CPU over all threads, context switches
/// summed over all threads, and peak resident set.
struct ProcSample {
  double cpu_s = 0.0;
  std::uint64_t ctx_switches = 0;
  double hwm_mb = 0.0;
};

/// Reads /proc/<pid>. Throws util::CheckError when the process is gone.
[[nodiscard]] ProcSample read_proc(pid_t pid);

/// CPU time the hypervisor has taken from this host's virtual CPUs since
/// boot (the steal column of /proc/stat, summed over CPUs), in seconds;
/// 0 on bare metal or when /proc/stat has no such column.
[[nodiscard]] double host_steal_s();

/// Waits until the host is quiet or `max_wait_s` has passed; returns the
/// seconds waited, negative when the host never became quiet. Quiet means
/// that two threads handing a turn back and forth for 0.5 s (a wake-up per
/// hand-off, like a request through copathd's loop and workers) saw at most
/// 0.02 s of steal. Only the host's steal counter decides; the figures
/// measured afterwards never do.
double wait_for_quiet_host(double max_wait_s);

/// A copathd child: spawned with `--port 0` plus `args`, its port read
/// from the `listening on host:port` line. The destructor drains it
/// (SIGTERM) and waits, escalating to SIGKILL after a grace period.
class Daemon {
 public:
  Daemon(const std::string& exe, const std::vector<std::string>& args);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Drains and reaps the child; true iff it exited 0 after draining.
  bool stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;  // read end of the child's stdout
  std::uint16_t port_ = 0;
};

}  // namespace perfbench
