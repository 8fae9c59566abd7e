// The load generator: one thread, one connection to copathd, driving a
// seeded frame stream in a closed phase (fixed window, measures
// throughput) and an open phase (fixed offered rate, measures latency
// from each frame's due time). Every answer is checked as it arrives.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common.hpp"
#include "gen.hpp"
#include "net/socket.hpp"

namespace perfbench {

struct PhaseStats {
  double seconds = 0.0;
  std::uint64_t frames = 0;
  /// Solve items answered Ok inside the phase window (a batch frame counts
  /// once per item).
  std::uint64_t items_ok = 0;
  /// Open phase: latency from due time to the decoded answer, per kind.
  std::vector<double> lat_sig_us, lat_text_us, lat_batch_us;
  /// Open phase: single-frame latencies grouped by kWindowS window of due
  /// time.
  std::vector<std::vector<double>> window_lat_us;
  /// Closed phase: items answered Ok in each kSliceS slice, and the
  /// daemon's CPU seconds and the host's steal seconds (host_steal_s) at
  /// each slice boundary that was reached.
  std::vector<double> slice_items, slice_cpu_s, slice_steal_s;
  /// Open phase: the host's steal seconds at each window boundary.
  std::vector<double> window_steal_s;
  /// Open phase: how late each frame was handed to the socket.
  std::vector<double> late_us;
  /// Open phase: frames the schedule called for, and frames still
  /// unanswered when sending stopped.
  std::uint64_t planned_frames = 0;
  std::uint64_t backlog_end = 0;
  /// BatchSolve items sent in the phase.
  std::uint64_t batch_items = 0;
  /// Closed phase: daemon queue depth sampled through the Stats verb.
  std::vector<double> queue_depth;

  static constexpr double kSliceS = 0.1;
  static constexpr double kWindowS = 0.125;

  [[nodiscard]] std::vector<double> lat_single_us() const {
    std::vector<double> all = lat_sig_us;
    all.insert(all.end(), lat_text_us.begin(), lat_text_us.end());
    return all;
  }
};

class Load {
 public:
  using FrameFn = std::function<Frame(std::uint64_t)>;
  using Counters = std::map<std::string, std::uint64_t>;

  /// `spans` non-null records send/wait/decode spans per request.
  Load(std::uint16_t port, FrameFn frames, std::uint64_t seed, Tally& tally,
       SpanLog* spans);

  /// Keeps `window` frames in flight for `seconds`; samples the daemon's
  /// queue depth every `stats_every_s` seconds when > 0, and its CPU
  /// (/proc of `daemon`) at every slice boundary. A phase that
  /// runs out of its `max_frames` budget first ends when the last answer
  /// arrives, and `seconds` reports that shorter window.
  PhaseStats closed(double seconds, std::size_t window, double stats_every_s,
                    std::uint64_t max_frames, pid_t daemon);
  /// Sends frame k at t0 + k / rate for `seconds`, whatever the answers
  /// do, unless more than `max_backlog` frames are owed: then sending stops
  /// early and `backlog_end` reports the excess.
  PhaseStats open(double seconds, double rate, std::uint64_t max_backlog);
  /// Sends `count` frames from `frames_fn` with up to `window` in flight
  /// (set-up traffic; not part of the measured stream).
  void burst(const FrameFn& frames_fn, std::uint64_t count,
             std::size_t window);
  /// The daemon's v2 Stats counters (nothing else may be in flight);
  /// empty when the daemon did not answer.
  Counters stats();
  /// Runs the full validator over the sampled answers; returns how many.
  std::uint64_t validate_samples();

  /// Starts (non-null) or stops recording request spans.
  void set_spans(SpanLog* spans) { spans_ = spans; }

 private:
  struct Pending {
    Frame frame;
    std::int64_t due_ns = 0;
    std::uint64_t span = 0;       // request span id (0 = untraced)
    std::uint64_t wait_span = 0;  // its "wait" child
    bool is_stats = false;
    bool open_loop = false;  // sent on the open phase's schedule
  };
  struct Sample {
    Body body;
    std::vector<std::vector<std::uint32_t>> paths;
  };

  void send(Frame f, std::int64_t due_ns);
  void send_stats();
  void flush();
  /// Waits for input until `deadline_ns` and handles every complete
  /// answer. Throws util::CheckError when the connection breaks.
  void pump(std::int64_t deadline_ns);
  void handle(std::string_view payload, std::int64_t recv_ns);
  /// Stops sending and waits for every answer still owed, giving up after
  /// kAnswerTimeoutNs without one; unanswered frames count as failed
  /// timeouts and their late answers are ignored.
  void drain();

  copath::net::Fd fd_;
  FrameFn frames_;
  std::uint64_t seed_;
  Tally& tally_;
  SpanLog* spans_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_frame_ = 0;
  std::string out_;
  std::string in_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::unordered_set<std::uint64_t> abandoned_;
  std::vector<Sample> samples_;
  Counters last_stats_;
  bool stats_ready_ = false;
  // The phase being measured (null between phases).
  PhaseStats* phase_ = nullptr;
  std::int64_t phase_start_ns_ = 0;
  std::int64_t phase_end_ns_ = 0;
  std::int64_t last_recv_ns_ = 0;
};

}  // namespace perfbench
