#include "proc.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "util/check.hpp"

namespace perfbench {

namespace {

/// Value of a `Key:   value ...` line of a /proc status file, or 0.
std::uint64_t status_field(const std::string& path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const std::size_t klen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0 && line.size() > klen &&
        line[klen] == ':') {
      return std::stoull(line.substr(klen + 1));
    }
  }
  return 0;
}

}  // namespace

ProcSample read_proc(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid);
  ProcSample s;
  {
    std::ifstream in(dir + "/stat");
    std::string stat;
    COPATH_CHECK_MSG(std::getline(in, stat), "perfbench: no " << dir);
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 (1-based) of the whole line.
    std::istringstream rest(stat.substr(stat.rfind(')') + 2));
    std::string field;
    std::uint64_t utime = 0, stime = 0;
    for (int f = 3; f <= 15 && rest >> field; ++f) {
      if (f == 14) utime = std::stoull(field);
      if (f == 15) stime = std::stoull(field);
    }
    s.cpu_s = double(utime + stime) / double(sysconf(_SC_CLK_TCK));
  }
  s.hwm_mb = double(status_field(dir + "/status", "VmHWM")) / 1024.0;
  if (DIR* d = opendir((dir + "/task").c_str())) {
    while (const dirent* e = readdir(d)) {
      if (e->d_name[0] == '.') continue;
      const std::string st = dir + "/task/" + e->d_name + "/status";
      s.ctx_switches += status_field(st, "voluntary_ctxt_switches") +
                        status_field(st, "nonvoluntary_ctxt_switches");
    }
    closedir(d);
  }
  return s;
}

double host_steal_s() {
  std::ifstream in("/proc/stat");
  // First line: "cpu  user nice system idle iowait irq softirq steal ...".
  std::string label;
  std::uint64_t ticks[8] = {};
  in >> label;
  for (std::uint64_t& t : ticks) {
    if (!(in >> t)) return 0.0;
  }
  return double(ticks[7]) / double(sysconf(_SC_CLK_TCK));
}

namespace {

/// Steal seen while two threads hand a turn back and forth for `seconds`.
/// Every hand-off wakes a halted virtual CPU, and a wake-up the hypervisor
/// delays is counted as steal.
double wake_probe_steal_s(double seconds) {
  std::mutex mu;
  std::condition_variable cv;
  bool ping = false, stop = false;
  std::thread peer([&] {
    std::unique_lock lock(mu);
    for (;;) {
      cv.wait(lock, [&] { return ping || stop; });
      if (stop) return;
      ping = false;
      cv.notify_all();
    }
  });
  const double steal0 = host_steal_s();
  const auto end = std::chrono::steady_clock::now() +
                   std::chrono::duration<double>(seconds);
  {
    std::unique_lock lock(mu);
    while (std::chrono::steady_clock::now() < end) {
      ping = true;
      cv.notify_all();
      cv.wait(lock, [&] { return !ping; });
    }
    stop = true;
  }
  cv.notify_all();
  peer.join();
  return host_steal_s() - steal0;
}

}  // namespace

double wait_for_quiet_host(double max_wait_s) {
  constexpr double kProbeS = 0.5, kQuietStealS = 0.02;
  const auto t0 = std::chrono::steady_clock::now();
  const auto waited = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  do {
    if (wake_probe_steal_s(kProbeS) <= kQuietStealS) return waited();
  } while (waited() < max_wait_s);
  return -waited();
}

Daemon::Daemon(const std::string& exe, const std::vector<std::string>& args) {
  int fds[2];
  COPATH_CHECK_MSG(pipe2(fds, O_CLOEXEC) == 0, "perfbench: pipe failed");
  std::vector<std::string> argv_s{exe, "--port", "0"};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_ = fork();
  COPATH_CHECK_MSG(pid_ >= 0, "perfbench: fork failed");
  if (pid_ == 0) {
    // The daemon must not outlive a benchmark that dies uncleanly.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(fds[1], 1);
    execv(exe.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  out_fd_ = fds[0];
  // First stdout line: "copathd listening on HOST:PORT".
  std::string line;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (line.find('\n') == std::string::npos) {
    pollfd p{out_fd_, POLLIN, 0};
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        give_up - std::chrono::steady_clock::now());
    char buf[256];
    if (left.count() <= 0 || poll(&p, 1, int(left.count())) <= 0) break;
    const ssize_t got = read(out_fd_, buf, sizeof(buf));
    if (got <= 0) break;
    line.append(buf, std::size_t(got));
  }
  const std::size_t colon = line.rfind(':', line.find('\n'));
  if (line.find("listening on") == std::string::npos ||
      colon == std::string::npos) {
    stop();
    COPATH_CHECK_MSG(false, "perfbench: copathd did not start: " << line);
  }
  port_ = static_cast<std::uint16_t>(std::stoul(line.substr(colon + 1)));
}

Daemon::~Daemon() { stop(); }

bool Daemon::stop() {
  if (pid_ <= 0) return false;
  kill(pid_, SIGTERM);
  int status = 0;
  bool reaped = false;
  for (int i = 0; i < 1000 && !reaped; ++i) {  // 10 s grace to drain
    reaped = waitpid(pid_, &status, WNOHANG) == pid_;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!reaped) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  close(out_fd_);
  out_fd_ = -1;
  return reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace perfbench
