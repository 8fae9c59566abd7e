#include "load.hpp"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <algorithm>
#include <cstring>
#include <limits>

#include "proc.hpp"
#include "util/check.hpp"

namespace perfbench {

namespace proto = copath::net::protocol;

namespace {

constexpr std::int64_t kAnswerTimeoutNs = 10'000'000'000;  // 10 s
/// One answer in kSampleEvery gets the full validator after the phase.
constexpr std::uint64_t kSampleEvery = 64;

}  // namespace

Load::Load(std::uint16_t port, FrameFn frames, std::uint64_t seed,
           Tally& tally, SpanLog* spans)
    : fd_(copath::net::connect_tcp("127.0.0.1", port)),
      frames_(std::move(frames)),
      seed_(seed),
      tally_(tally),
      spans_(spans) {
  const std::string hello = proto::make_hello();
  copath::net::write_all(fd_.get(), hello.data(), hello.size());
  char reply[proto::kHelloReplyBytes];
  COPATH_CHECK_MSG(copath::net::read_exact(fd_.get(), reply, sizeof(reply)),
                   "perfbench: copathd closed during handshake");
  proto::Status st = proto::Status::Ok;
  std::uint16_t version = 0;
  COPATH_CHECK_MSG(proto::parse_hello_reply({reply, sizeof(reply)}, &st,
                                            &version) &&
                       st == proto::Status::Ok,
                   "perfbench: copathd refused the handshake");
  copath::net::set_nonblocking(fd_.get());
}

void Load::send(Frame f, std::int64_t due_ns) {
  const std::uint64_t seq = next_seq_++;
  const std::int64_t start = now_ns();
  Pending p;
  if (spans_ != nullptr) p.span = spans_->open("request", 0, start);
  if (f.batch) {
    std::vector<proto::BatchItem> items;
    items.reserve(f.bodies.size());
    for (const Body& b : f.bodies) items.push_back({b.is_sig, b.bytes});
    proto::append_batch_request(out_, seq, {}, items);
  } else {
    const Body& b = f.bodies.front();
    proto::append_solve_request(
        out_, b.is_sig ? proto::Verb::SolveSignature : proto::Verb::SolveText,
        seq, {}, b.bytes);
  }
  flush();
  const std::int64_t sent = now_ns();
  if (spans_ != nullptr) {
    spans_->add("send", p.span, start, sent);
    p.wait_span = spans_->open("wait", p.span, sent);
  }
  if (phase_ != nullptr && f.batch) phase_->batch_items += f.bodies.size();
  if (phase_ != nullptr && due_ns != 0) {
    phase_->late_us.push_back(double(start - due_ns) / 1e3);
  }
  ++tally_.attempted;
  p.due_ns = due_ns == 0 ? start : due_ns;
  p.open_loop = due_ns != 0;
  p.frame = std::move(f);
  pending_.emplace(seq, std::move(p));
}

void Load::send_stats() {
  const std::uint64_t seq = next_seq_++;
  proto::append_admin_request(out_, proto::Verb::Stats, seq);
  flush();
  Pending p;
  p.is_stats = true;
  pending_.emplace(seq, std::move(p));
}

void Load::flush() {
  while (!out_.empty()) {
    const ssize_t n = ::write(fd_.get(), out_.data(), out_.size());
    if (n > 0) {
      out_.erase(0, std::size_t(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      COPATH_CHECK_MSG(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK),
                       "perfbench: write to copathd failed");
      return;  // socket full: pump() finishes the write
    }
  }
}

void Load::pump(std::int64_t deadline_ns) {
  const std::int64_t wait = std::max<std::int64_t>(0, deadline_ns - now_ns());
  pollfd p{fd_.get(), short(POLLIN | (out_.empty() ? 0 : POLLOUT)), 0};
  const timespec ts{time_t(wait / 1'000'000'000), long(wait % 1'000'000'000)};
  const int rc = ppoll(&p, 1, &ts, nullptr);
  COPATH_CHECK_MSG(rc >= 0 || errno == EINTR, "perfbench: poll failed");
  if (rc <= 0) return;
  if ((p.revents & POLLOUT) != 0) flush();
  if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) return;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd_.get(), buf, sizeof(buf));
    if (n > 0) {
      in_.append(buf, std::size_t(n));
      if (std::size_t(n) < sizeof(buf)) break;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      COPATH_CHECK_MSG(false, "perfbench: copathd closed the connection");
    }
  }
  const std::int64_t recv_ns = now_ns();
  last_recv_ns_ = recv_ns;
  std::string payload;
  for (;;) {
    const proto::Extract ex = proto::extract_frame(in_, &payload);
    COPATH_CHECK_MSG(ex != proto::Extract::Corrupt,
                     "perfbench: corrupt response framing");
    if (ex == proto::Extract::NeedMore) break;
    handle(payload, recv_ns);
  }
}

void Load::handle(std::string_view payload, std::int64_t recv_ns) {
  proto::Response res;
  const bool parsed = proto::parse_response(payload, &res);
  // A late answer to a frame drain() already counted as timed out.
  if (parsed && abandoned_.erase(res.seq) != 0) return;
  const auto it = pending_.find(res.seq);
  COPATH_CHECK_MSG(parsed && it != pending_.end(),
                   "perfbench: undecodable or unmatched response");
  Pending p = std::move(it->second);
  pending_.erase(it);
  if (p.is_stats) {
    Counters c;
    for (const auto& [k, v] : res.stats) c[k] = v;
    if (phase_ != nullptr) {
      phase_->queue_depth.push_back(double(c["queue_depth"]));
    }
    last_stats_ = std::move(c);
    stats_ready_ = true;
    return;
  }
  // A failure is a wrong answer only when its status said Ok.
  std::string why;
  bool wrong = false;
  std::uint64_t ok_items = 0;
  const Frame& f = p.frame;
  if (f.batch) {
    if (res.status != proto::Status::Ok) {
      why = std::string("batch status ") + proto::to_string(res.status);
    } else if (res.batch.size() != f.bodies.size()) {
      why = "batch slot count mismatch";
      wrong = true;
    }
    for (std::size_t k = 0; why.empty() && k < f.bodies.size(); ++k) {
      why = check_wire(res.batch[k].status, res.batch[k].result, f.bodies[k]);
      wrong = !why.empty() && res.batch[k].status == proto::Status::Ok;
      if (why.empty()) ++ok_items;
    }
  } else {
    why = check_wire(res.status, res.result, f.bodies.front());
    wrong = !why.empty() && res.status == proto::Status::Ok;
    if (why.empty()) ok_items = 1;
  }
  const std::int64_t done = now_ns();
  if (!why.empty()) {
    tally_.fail(why, wrong);
  } else if ((mix(seed_, res.seq) % kSampleEvery) == 0) {
    const std::size_t k = mix(seed_ + 1, res.seq) % f.bodies.size();
    samples_.push_back(Sample{
        f.bodies[k],
        f.batch ? res.batch[k].result.paths : res.result.paths});
  }
  if (spans_ != nullptr) {
    spans_->close(p.wait_span, recv_ns);
    spans_->add("decode", p.span, recv_ns, done);
    spans_->close(p.span, done);
  }
  if (phase_ == nullptr) return;
  if (recv_ns <= phase_end_ns_ && !p.open_loop) {
    phase_->items_ok += ok_items;
    const auto k = std::size_t(double(recv_ns - phase_start_ns_) /
                               (PhaseStats::kSliceS * 1e9));
    if (phase_->slice_items.size() <= k) phase_->slice_items.resize(k + 1);
    phase_->slice_items[k] += double(ok_items);
  }
  // Open-phase frames are timed whenever their answer arrives.
  if (!p.open_loop || ok_items == 0) return;
  const double lat_us = double(recv_ns - p.due_ns) / 1e3;
  if (f.batch) {
    phase_->lat_batch_us.push_back(lat_us);
    return;
  }
  (f.bodies.front().is_sig ? phase_->lat_sig_us : phase_->lat_text_us)
      .push_back(lat_us);
  const auto w = std::size_t(double(p.due_ns - phase_start_ns_) /
                             (PhaseStats::kWindowS * 1e9));
  if (phase_->window_lat_us.size() <= w) phase_->window_lat_us.resize(w + 1);
  phase_->window_lat_us[w].push_back(lat_us);
}

void Load::drain() {
  // Wait while answers keep coming: a long backlog may take a while, but
  // kAnswerTimeoutNs without a single answer means the daemon stopped.
  std::size_t owed = pending_.size();
  std::int64_t give_up = now_ns() + kAnswerTimeoutNs;
  while (!pending_.empty() && now_ns() < give_up) {
    pump(give_up);
    if (pending_.size() < owed) {
      owed = pending_.size();
      give_up = now_ns() + kAnswerTimeoutNs;
    }
  }
  // Whatever is still owed failed; the run goes on and reports it.
  for (const auto& [seq, p] : pending_) {
    if (!p.is_stats) tally_.fail("timeout: no answer in 10 s", false);
    abandoned_.insert(seq);
  }
  pending_.clear();
}

PhaseStats Load::closed(double seconds, std::size_t window,
                        double stats_every_s, std::uint64_t max_frames,
                        pid_t daemon) {
  PhaseStats ps;
  phase_ = &ps;
  const std::int64_t t0 = now_ns();
  phase_start_ns_ = t0;
  phase_end_ns_ = t0 + std::int64_t(seconds * 1e9);
  const auto step = std::int64_t(stats_every_s * 1e9);
  const auto slice = std::int64_t(PhaseStats::kSliceS * 1e9);
  std::int64_t next_stats = step > 0 ? t0 + step : phase_end_ns_;
  std::int64_t next_slice = t0 + slice;
  ps.slice_cpu_s.push_back(read_proc(daemon).cpu_s);
  ps.slice_steal_s.push_back(host_steal_s());
  bool capped = false;
  while (now_ns() < phase_end_ns_ && !(capped && pending_.empty())) {
    while (pending_.size() < window && !capped) {
      capped = ps.frames == max_frames;
      if (!capped) {
        send(frames_(next_frame_++), 0);
        ++ps.frames;
      }
    }
    if (step > 0 && now_ns() >= next_stats) {
      send_stats();
      next_stats += step;
    }
    if (now_ns() >= next_slice) {
      ps.slice_cpu_s.push_back(read_proc(daemon).cpu_s);
      ps.slice_steal_s.push_back(host_steal_s());
      next_slice += slice;
    }
    pump(std::min({next_stats, next_slice, phase_end_ns_}));
  }
  ps.seconds = seconds;
  if (capped) {
    phase_end_ns_ = std::numeric_limits<std::int64_t>::max();
    drain();
    ps.seconds = double(last_recv_ns_ - t0) / 1e9;
  }
  drain();
  phase_ = nullptr;
  return ps;
}

PhaseStats Load::open(double seconds, double rate,
                      std::uint64_t max_backlog) {
  PhaseStats ps;
  phase_ = &ps;
  const std::int64_t t0 = now_ns();
  phase_start_ns_ = t0;
  phase_end_ns_ = t0 + std::int64_t(seconds * 1e9);
  const double gap_ns = 1e9 / rate;
  const auto window = std::int64_t(PhaseStats::kWindowS * 1e9);
  std::int64_t next_window = t0 + window;
  ps.window_steal_s.push_back(host_steal_s());
  std::uint64_t k = 0;
  for (;;) {
    const auto due = [&](std::uint64_t j) {
      return t0 + std::int64_t(double(j) * gap_ns);
    };
    const std::int64_t now = now_ns();
    if (now >= next_window) {
      ps.window_steal_s.push_back(host_steal_s());
      next_window += window;
    }
    // Past max_backlog the phase is invalid anyway: stop adding to it.
    if (now >= phase_end_ns_ || pending_.size() > max_backlog) break;
    while (due(k) <= now && due(k) < phase_end_ns_) {
      send(frames_(next_frame_++), due(k));
      ++k;
    }
    pump(std::min({due(k), next_window, phase_end_ns_}));
  }
  ps.frames = k;
  ps.planned_frames = std::uint64_t(rate * seconds);
  ps.backlog_end = pending_.size();
  drain();
  ps.seconds = seconds;
  phase_ = nullptr;
  return ps;
}

void Load::burst(const FrameFn& frames_fn, std::uint64_t count,
                 std::size_t window) {
  for (std::uint64_t i = 0; i < count;) {
    while (i < count && pending_.size() < window) send(frames_fn(i++), 0);
    pump(now_ns() + kAnswerTimeoutNs);
  }
  drain();
}

Load::Counters Load::stats() {
  stats_ready_ = false;
  send_stats();
  drain();
  return stats_ready_ ? last_stats_ : Counters{};
}

std::uint64_t Load::validate_samples() {
  for (const Sample& s : samples_) {
    const std::string why = validate_full(s.body, s.paths);
    if (!why.empty()) {
      // The answer passed the cheap checks when it arrived; the full
      // validator overrules them.
      tally_.fail(why, true);
    }
  }
  const std::uint64_t n = samples_.size();
  samples_.clear();
  return n;
}

}  // namespace perfbench
