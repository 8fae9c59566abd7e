// perfbench — the repository benchmark (see ../README.md).
//
//   perfbench --workload hot_wire|cold_wire --seed N
//             --seconds S --trace 0|1 --copathd PATH --workdir DIR
//             [--spans-dir DIR] [--commit ID]
//
// Prints a stamp line, diagnostic lines (all starting with '#'), and as
// the last line one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: value}}; run.py attaches the units from
// BENCHMARK.json. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. Exit status: 0 on success, 1 when any answer was wrong,
// 2 on usage or set-up errors, 3 when the open-loop phase was invalid
// (generator late past its limit, or a backlog at the end).
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "gen.hpp"
#include "layers.hpp"
#include "load.hpp"
#include "proc.hpp"
#include "util/check.hpp"

namespace perfbench {
namespace {

// ------------------------------------------------------------- settings
//
// copathd runs with two workers, so its event loop, its workers and this
// single load-generator thread fit on a 4-core host. The closed phase
// keeps kWindow frames in flight and measures throughput; latency comes
// only from the open phase, at a fixed offered rate of about 40% of the
// closed-phase throughput measured on the reference host (4-vCPU Xeon).
// On that shared virtual host the capacity sometimes fell to about 55%:
// at half capacity the open phase then overloaded, while at a quarter the
// daemon's threads idled between frames and waking them took
// milliseconds (p90 2-12 ms instead of ~0.4 ms).
constexpr const char* kDaemonWorkers = "2";
constexpr std::size_t kWindow = 32;
constexpr double kHotRate = 10000.0;  // frames/s, open phase
constexpr double kColdRate = 1800.0;  // frames/s, open phase
/// Share of a pass given to the closed phase (the rest is open).
constexpr double kHotClosedShare = 0.4;
constexpr double kColdClosedShare = 0.35;
/// Closed-phase cold_wire frame rate on the reference host, and the
/// margin over it: sizes the restart composites set-up generates and
/// writes into L2 (each frame that touches one needs its own). A program
/// that outruns the margin ends its closed phase early and is measured
/// over the shorter window.
constexpr double kColdClosedFps = 4400.0;
constexpr double kColdMargin = 1.5;
/// Appends timed past the scaled-down L2 cap (probe_l2_over_cap). The
/// wire runs leave copathd's L2 log below its 256 MiB cap, so the traced
/// run measures the over-cap path in process.
constexpr std::uint64_t kOverCapAppends = 400;
/// Set-ups before the measured ones; setup_s is the median of the quieter
/// half (by steal) of every set-up in the run (these, and one per pass).
constexpr int kWireSetups = 5;
/// Passes of a run, each on a daemon of its own. A traced run alternates
/// untraced and traced passes.
constexpr int kPassDaemons = 8;
/// Longest total wait per run for a quiet host (wait_for_quiet_host),
/// before the set-ups and before each pass. On the reference host the
/// hypervisor sometimes delays wake-ups for tens of seconds at a time;
/// figures taken then read 2-500x slow in every interval of a pass.
constexpr double kQuietWaitS = 30.0;
/// Open-loop validity: the generator may hand a frame to the socket at
/// most this late at p99, and may leave at most this share of the phase's
/// frames unanswered when sending stops (more means the backlog grew: the
/// daemon kept up with less than 90% of the offered rate).
constexpr double kLateLimitUs = 20'000.0;
constexpr double kBacklogLimitShare = 0.1;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string copathd;
  std::string workdir;
  std::string spans_dir;
  std::string commit = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
};

struct Report {
  Tally tally;
  std::vector<Metric> metrics;
  bool open_loop_valid = true;
  std::string invalid_why;

  void add(const std::string& name, double value) {
    metrics.push_back({name, value});
  }
};

void diag(const std::string& name, double value, const std::string& unit) {
  std::printf("# diag %-34s %14.4f %s\n", name.c_str(), value, unit.c_str());
}

double seconds_since(std::int64_t t0) { return double(now_ns() - t0) / 1e9; }

std::size_t nproc() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

std::string cold_l2_dir(const Args& a) { return a.workdir + "/cold_l2"; }

/// Length of one measured pass.
double pass_seconds(const Args& a) { return a.seconds / kPassDaemons; }

/// copathd's flags besides --port 0.
std::vector<std::string> daemon_flags(const Args& a) {
  if (a.workload == "hot_wire") return {"--workers", kDaemonWorkers};
  return {"--workers", kDaemonWorkers, "--cache-dir", cold_l2_dir(a)};
}

void print_stamp(const Args& a) {
  std::string flags;
  for (const std::string& f : daemon_flags(a)) {
    flags += (flags.empty() ? "" : " ") + f;
  }
  const std::time_t now = std::time(nullptr);
  char date[32];
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  std::printf(
      "# stamp {\"commit\": \"%s\", \"nproc\": %zu, \"cpu\": \"%s\", "
      "\"compiler\": \"gcc %s\", \"build_type\": \"%s\", \"cxx_flags\": "
      "\"%s\", \"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"copathd_flags\": \"%s\", \"date\": \"%s\"}\n",
      json_escape(a.commit).c_str(), nproc(), json_escape(cpu_model()).c_str(),
      __VERSION__, PERFBENCH_BUILD_TYPE,
      json_escape(PERFBENCH_CXX_FLAGS).c_str(),
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, json_escape(flags).c_str(), date);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Per-layer values by name. Every workload sets every name; a layer it
/// bypasses reads 0 (hot_wire has no L2 and no batch frames).
/// BENCHMARK.json's per_layer list is the one list of names and units;
/// run.py checks the output against it.
class Layers {
 public:
  void set(const std::string& name, double v) { values_[name] = v; }
  void probe(const ProbeResult& p) {
    set("exec.native.solve_ms", p.native_ms);
    set("exec.native.solve_ms_w1", p.native_w1_ms);
    set("exec.native.speedup_vs_w1", ratio(p.native_w1_ms, p.native_ms));
    set("exec.sequential.solve_ms", p.sequential_ms);
    set("exec.native_over_sequential", ratio(p.native_ms, p.sequential_ms));
    for (const auto& [stage, v] : p.stage_steps) {
      set("exec.native.stage_steps." + stage, v);
    }
    for (const auto& [stage, v] : p.stage_work) {
      set("exec.native.stage_work." + stage, v);
    }
    set("exec.native.repair_rounds", p.repair_rounds);
  }
  void replay(const ReplayResult& r) {
    const auto self = [&r](const char* span) {
      const auto it = r.self_us.find(span);
      return it == r.self_us.end() ? 0.0 : it->second;
    };
    set("net.parse_request_us", self("parse_request"));
    set("net.encode_response_us", self("encode_response"));
    set("net.response_bytes", r.response_bytes);
    set("net.parse_response_us", self("parse_response"));
    set("cograph.canonical_sig_us", self("canonical_sig"));
    set("cograph.canonical_text_us", self("canonical_text"));
    set("cograph.resolve_us", self("resolve"));
    set("service.l1.lookup_us", self("l1_lookup"));
    set("service.l1.replay_us", self("l1_replay"));
    set("service.l2.lookup_us", self("l2_lookup"));
    set("service.l2.append_us", self("l2_append"));
    set("core.solve_us", self("solve"));
    set("core.routed_native_share", r.routed_native_share);
  }
  /// (traced - untraced) / untraced for one end-to-end figure.
  void overhead(const std::string& metric, double traced, double untraced) {
    set("trace.overhead." + metric, ratio(traced - untraced, untraced));
  }
  void over_cap(const OverCapResult& o) {
    set("service.l2.over_cap_append_us", o.append_us_p50);
    set("service.l2.over_cap_append_max_ms", o.append_ms_max);
    set("service.l2.over_cap_compactions", o.compactions);
  }
  void emit(Report& rep) const {
    for (const auto& [name, v] : values_) rep.add(name, v);
  }

 private:
  std::map<std::string, double> values_;
};

// ------------------------------------------------------- wire workloads

struct WireWorkload {
  double rate = 0.0;
  double closed_share = 0.4;
  Load::FrameFn frames;
  /// Frames per second of closed phase the stream can supply (0 = no
  /// limit). A closed phase that exhausts its share ends early.
  double closed_fps_cap = 0.0;
  /// Warm-up frames of set-up number k (never measured frames).
  std::function<Frame(int k, std::uint64_t i)> warm;
  std::uint64_t warm_count = 0;
  /// The traced run's in-process replay and engine-probe inputs.
  ReplaySpec replay;
  ProbeSet probe;
  /// Non-empty: the L2 directory an earlier daemon wrote; every set-up
  /// gives its daemon a fresh copy of it.
  std::string l2_template;
  /// Bodies for probe_l2_over_cap (empty: the workload has no L2).
  std::function<Body(std::uint64_t)> over_cap_bodies;
  std::uint64_t over_cap_body_count = 0;
};

/// One measured pass: a closed phase, then an open phase, with the
/// daemon's Stats counters before and after and /proc around the closed
/// phase.
struct Pass {
  PhaseStats closed, open;
  ProcSample before_closed, after_closed;
  Load::Counters stats_before, stats_after;
  double wall_closed_s = 0.0;
  std::uint64_t failed_before = 0, failed_after = 0;
  std::uint64_t attempted_before = 0, attempted_after = 0;
  double steal_s = 0.0;  // host steal over the whole pass
};

Pass run_pass(Load& load, pid_t daemon, const WireWorkload& w,
              double seconds, bool sample_queue, const Tally& tally) {
  Pass p;
  const double steal0 = host_steal_s();
  p.failed_before = tally.failed;
  p.attempted_before = tally.attempted;
  p.stats_before = load.stats();
  p.before_closed = read_proc(daemon);
  const std::int64_t t0 = now_ns();
  p.closed = load.closed(seconds * w.closed_share, kWindow,
                         sample_queue ? 0.02 : 0.0,
                         w.closed_fps_cap > 0
                             ? std::uint64_t(w.closed_fps_cap * seconds *
                                             w.closed_share)
                             : ~std::uint64_t{0},
                         daemon);
  p.wall_closed_s = seconds_since(t0);
  p.after_closed = read_proc(daemon);
  const double open_s = seconds * (1.0 - w.closed_share);
  p.open = load.open(open_s, w.rate,
                     std::uint64_t(w.rate * open_s * kBacklogLimitShare));
  p.stats_after = load.stats();
  p.failed_after = tally.failed;
  p.attempted_after = tally.attempted;
  p.steal_s = host_steal_s() - steal0;
  return p;
}

double delta(const Pass& p, const std::string& key) {
  const auto a = p.stats_after.find(key), b = p.stats_before.find(key);
  COPATH_CHECK_MSG(a != p.stats_after.end() && b != p.stats_before.end(),
                   "perfbench: Stats lacks " << key);
  return double(a->second) - double(b->second);
}

struct E2E {
  double throughput = 0, p50 = 0, p90 = 0, cpu_ms_per_kreq = 0;
  double failed_frac = 0, rss_mb = 0;
  /// Why the open-loop phase is invalid; empty when it is valid.
  std::string invalid;
};

/// Indices of the entries of `stolen` (steal seconds per interval) that
/// are at most its quantile `q`: the intervals in which the hypervisor took
/// the least CPU from the host.
std::vector<std::size_t> least_stolen(const std::vector<double>& stolen,
                                      double q) {
  const double limit = percentile(stolen, q);
  std::vector<std::size_t> keep;
  for (std::size_t k = 0; k < stolen.size(); ++k) {
    if (stolen[k] <= limit) keep.push_back(k);
  }
  return keep;
}

/// Indices of the quiet intervals between consecutive readings of
/// host_steal_s(): those in which the hypervisor took no more CPU from the
/// host than in the least-stolen quarter of all intervals.
std::vector<std::size_t> quiet(const std::vector<double>& steal_at) {
  std::vector<double> stolen;
  for (std::size_t k = 0; k + 1 < steal_at.size(); ++k) {
    stolen.push_back(steal_at[k + 1] - steal_at[k]);
  }
  return least_stolen(stolen, 0.25);
}

/// Each figure's median over the quieter half of the passes, by the
/// steal over each pass. Invalid when one of those passes is.
E2E quiet_median(const std::vector<E2E>& es,
                 const std::vector<double>& steal) {
  const std::vector<std::size_t> keep = least_stolen(steal, 0.5);
  const auto med = [&](double E2E::*f) {
    std::vector<double> v;
    for (const std::size_t k : keep) v.push_back(es[k].*f);
    return median(std::move(v));
  };
  E2E out{med(&E2E::throughput),  med(&E2E::p50),
          med(&E2E::p90),         med(&E2E::cpu_ms_per_kreq),
          med(&E2E::failed_frac), med(&E2E::rss_mb), {}};
  for (const std::size_t k : keep) {
    if (out.invalid.empty()) out.invalid = es[k].invalid;
  }
  return out;
}

/// Marks the report invalid when `e` is.
void check_valid(const E2E& e, Report& rep) {
  if (e.invalid.empty()) return;
  rep.open_loop_valid = false;
  rep.invalid_why = e.invalid;
}

/// The end-to-end figures of one pass, plus the open-loop validity check
/// and the diagnostics (p99 and p999 are printed, never gated).
E2E end_to_end(const Pass& p, const std::string& tag) {
  // Closed-phase throughput and CPU are medians over 0.1 s slices;
  // open-phase percentiles pool the latencies of frames due in 0.125 s
  // windows. Both use only the quiet slices and windows (see quiet()): on
  // a virtual host the hypervisor delays wake-ups in bursts, and every
  // frame then waits for a stolen CPU. Which intervals count depends only
  // on the host's steal counter, never on the figures measured in them.
  E2E e;
  std::vector<double> rps, cpu_ms_per_kreq;
  const PhaseStats& c = p.closed;
  for (const std::size_t k : quiet(c.slice_steal_s)) {
    const double items = k < c.slice_items.size() ? c.slice_items[k] : 0.0;
    rps.push_back(items / PhaseStats::kSliceS);
    cpu_ms_per_kreq.push_back((c.slice_cpu_s[k + 1] - c.slice_cpu_s[k]) *
                              1e3 / std::max(1e-3, items / 1e3));
  }
  e.throughput = rps.empty() ? double(c.items_ok) / c.seconds : median(rps);
  e.cpu_ms_per_kreq = median(cpu_ms_per_kreq);
  const auto windows = std::size_t(p.open.seconds / PhaseStats::kWindowS);
  bool thin_window = false;
  for (std::size_t w = 0; w < windows && w < p.open.window_lat_us.size();
       ++w) {
    thin_window |= p.open.window_lat_us[w].size() < 100;
  }
  std::vector<double> quiet_lat;
  std::size_t quiet_windows = 0;
  for (const std::size_t w : quiet(p.open.window_steal_s)) {
    if (w >= windows || w >= p.open.window_lat_us.size()) continue;
    const std::vector<double>& lat = p.open.window_lat_us[w];
    quiet_lat.insert(quiet_lat.end(), lat.begin(), lat.end());
    ++quiet_windows;
  }
  e.p50 = percentile(quiet_lat, 0.50);
  e.p90 = percentile(quiet_lat, 0.90);
  diag(tag + "closed.quiet_slices", double(rps.size()), "count");
  diag(tag + "open.quiet_windows", double(quiet_windows), "count");
  const std::vector<double> lat = p.open.lat_single_us();
  e.failed_frac = ratio(double(p.failed_after - p.failed_before),
                        double(p.attempted_after - p.attempted_before));
  const double late_p99 = percentile(p.open.late_us, 0.99);
  const auto backlog_cap = static_cast<std::uint64_t>(
      double(p.open.planned_frames) * kBacklogLimitShare);
  diag(tag + "open.samples", double(lat.size()), "count");
  diag(tag + "open.latency_p99_us", percentile(lat, 0.99), "us");
  diag(tag + "open.latency_p999_us", percentile(lat, 0.999), "us");
  diag(tag + "open.gen_late_us_p99", late_p99, "us");
  diag(tag + "open.backlog_end", double(p.open.backlog_end), "count");
  diag(tag + "closed.frames", double(p.closed.frames), "count");

  if (quiet_lat.empty() || thin_window) {
    e.invalid = "an open-loop window held fewer than 100 samples";
  }
  if (late_p99 > kLateLimitUs) {
    e.invalid = "generator ran late: p99 " + std::to_string(late_p99) + " us";
  }
  if (p.open.backlog_end > backlog_cap) {
    e.invalid = "backlog of " + std::to_string(p.open.backlog_end) +
                " frames when sending stopped";
  }
  return e;
}

/// The service.* and proc.* figures, from one pass's Stats deltas and
/// /proc readings.
void service_layers(const Pass& p, Layers& L) {
  const double hits = delta(p, "cache_hits"), misses = delta(p, "cache_misses");
  L.set("service.l1.hit_ratio", ratio(hits, hits + misses));
  const double l2h = delta(p, "l2_hits"), l2m = delta(p, "l2_misses");
  L.set("service.l2.hit_ratio", ratio(l2h, l2h + l2m));
  L.set("service.l2.promotions", delta(p, "l2_promotions"));
  L.set("service.l2.appends", delta(p, "l2_appends"));
  // Engine solves that took the express lane or the packed batch sweep,
  // over all engine solves (L1 misses not served by L2 or a twin).
  const double solved =
      misses - delta(p, "l2_promotions") - delta(p, "coalesced");
  L.set("service.express_share",
        std::min(1.0, ratio(delta(p, "express_solves") +
                                delta(p, "packed_solves"),
                            solved)));
  const double batch_items =
      double(p.closed.batch_items + p.open.batch_items);
  L.set("service.batch.dedup_ratio",
        ratio(delta(p, "batch_dedup_hits"), batch_items));
  L.set("service.batch.packed_solves", delta(p, "packed_solves"));
  L.set("service.batch.frame_latency_p50_us",
        percentile(p.open.lat_batch_us, 0.5));
  const double closed_items = std::max(1.0, double(p.closed.items_ok));
  L.set("proc.ctx_switches_per_req",
        double(p.after_closed.ctx_switches - p.before_closed.ctx_switches) /
            closed_items);
  L.set("proc.cpu_util", (p.after_closed.cpu_s - p.before_closed.cpu_s) /
                             p.wall_closed_s / double(nproc()));
}

/// Drains the measured daemon: one that does not exit cleanly on SIGTERM
/// is a failed operation, reported with the run's figures.
void stop_measured(Daemon& daemon, Tally& tally) {
  ++tally.attempted;
  if (!daemon.stop()) tally.fail("copathd did not drain on SIGTERM", false);
}

/// Waits for a quiet host, for at most what is left of the run's
/// `budget_s`, and reports how long it took (diagnostics).
void await_quiet(const std::string& tag, double& budget_s) {
  const double waited = wait_for_quiet_host(budget_s);
  budget_s = std::max(0.0, budget_s - std::abs(waited));
  diag("host.quiet_wait_s." + tag, std::abs(waited), "s");
  if (waited < 0) {
    std::printf("# NOTE host not quiet before %s; measuring anyway\n",
                tag.c_str());
  }
}

void run_wire(const Args& a, WireWorkload& w, Report& rep) {
  std::vector<double> setups, setup_steal;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Load> load;
  // One set-up: stop the previous daemon, give the next one a fresh copy
  // of the workload's L2 (untimed), then spawn it, connect and warm up
  // (timed). Every pass is measured on a daemon of its own from frame 0
  // of the stream: the passes are replicas of one another, and the
  // figures are their medians: on the reference host two daemons set up
  // one after the other differed in throughput by up to 30%.
  const auto set_up = [&] {
    const int k = int(setups.size());
    load.reset();
    if (daemon) stop_measured(*daemon, rep.tally);
    if (!w.l2_template.empty()) {
      const std::string dir = cold_l2_dir(a);
      std::filesystem::remove_all(dir);
      std::filesystem::copy(w.l2_template, dir,
                            std::filesystem::copy_options::recursive);
    }
    const std::int64_t t0 = now_ns();
    const double steal0 = host_steal_s();
    daemon = std::make_unique<Daemon>(a.copathd, daemon_flags(a));
    load = std::make_unique<Load>(daemon->port(), w.frames, a.seed,
                                  rep.tally, nullptr);
    load->burst([&](std::uint64_t i) { return w.warm(k, i); }, w.warm_count,
                1);
    setups.push_back(seconds_since(t0));
    setup_steal.push_back(host_steal_s() - steal0);
  };
  double quiet_budget_s = kQuietWaitS;
  await_quiet("setup", quiet_budget_s);
  for (int k = 0; k < kWireSetups; ++k) set_up();
  const double seconds = pass_seconds(a);
  // Pass k: wait for a quiet host, set up, measure; `spans` non-null
  // traces the pass.
  const auto pass = [&](int k, SpanLog* spans) {
    const std::string name = "pass" + std::to_string(k);
    const std::string tag = name + ".";
    await_quiet(name, quiet_budget_s);
    set_up();
    load->set_spans(spans);
    Pass p = run_pass(*load, daemon->pid(), w, seconds, spans != nullptr,
                      rep.tally);
    E2E e = end_to_end(p, tag);
    e.rss_mb = read_proc(daemon->pid()).hwm_mb;
    if (!e.invalid.empty()) {
      std::printf("# NOTE %s open-loop phase invalid: %s\n", name.c_str(),
                  e.invalid.c_str());
    }
    diag(tag + "steal_s", p.steal_s, "s");
    diag(tag + "throughput_rps", e.throughput, "items/s");
    diag(tag + "latency_p50_us", e.p50, "us");
    diag(tag + "latency_p90_us", e.p90, "us");
    if (const auto l2 = p.stats_after.find("l2_log_bytes");
        l2 != p.stats_after.end()) {
      diag(tag + "l2_log_mb_end", double(l2->second) / 1048576.0, "MB");
    }
    diag(tag + "validated_samples", double(load->validate_samples()),
         "count");
    return std::make_pair(std::move(p), e);
  };

  if (!a.trace) {
    std::vector<E2E> es;
    std::vector<double> steal;
    for (int k = 0; k < kPassDaemons; ++k) {
      const auto [p, e] = pass(k, nullptr);
      es.push_back(e);
      steal.push_back(p.steal_s);
    }
    load.reset();
    stop_measured(*daemon, rep.tally);
    const E2E e = quiet_median(es, steal);
    check_valid(e, rep);
    rep.add("throughput_rps", e.throughput);
    rep.add("latency_p50_us", e.p50);
    rep.add("latency_p90_us", e.p90);
    rep.add("ok_frac", 1.0 - ratio(double(rep.tally.failed),
                                   double(rep.tally.attempted)));
    std::vector<double> quiet_setups;
    for (const std::size_t k : least_stolen(setup_steal, 0.5)) {
      quiet_setups.push_back(setups[k]);
    }
    rep.add("setup_s", median(quiet_setups));
    rep.add("peak_rss_mb", e.rss_mb);
    rep.add("cpu_ms_per_kreq", e.cpu_ms_per_kreq);
    return;
  }

  // Traced run: untraced and traced passes in turn. The medians of the
  // traced passes against those of the untraced ones are the tracing
  // overhead.
  Layers L;
  std::vector<Pass> untraced, traced;
  std::vector<E2E> eu_all, et_all;
  std::vector<double> steal_u, steal_t;
  SpanLog live;
  for (int k = 0; k < kPassDaemons; ++k) {
    const bool tracing = k % 2 == 1;
    auto [p, e] = pass(k, tracing ? &live : nullptr);
    (tracing ? et_all : eu_all).push_back(e);
    (tracing ? steal_t : steal_u).push_back(p.steal_s);
    (tracing ? traced : untraced).push_back(std::move(p));
  }
  load.reset();
  stop_measured(*daemon, rep.tally);
  const E2E eu = quiet_median(eu_all, steal_u);
  const E2E et = quiet_median(et_all, steal_t);
  check_valid(eu, rep);
  check_valid(et, rep);
  const Pass& u = untraced.back();
  const Pass& t = traced.back();

  service_layers(u, L);
  L.set("service.queue_depth_mean",
        t.closed.queue_depth.empty()
            ? 0.0
            : std::accumulate(t.closed.queue_depth.begin(),
                              t.closed.queue_depth.end(), 0.0) /
                  double(t.closed.queue_depth.size()));
  const std::vector<double> lat = t.open.lat_single_us();
  L.set("client.latency_p50_us.sig", percentile(t.open.lat_sig_us, 0.5));
  L.set("client.latency_p50_us.text", percentile(t.open.lat_text_us, 0.5));
  L.set("client.latency_p99_us", percentile(lat, 0.99));
  L.set("client.latency_p999_us", percentile(lat, 0.999));
  L.set("client.gen_late_us_p99", percentile(t.open.late_us, 0.99));
  L.set("client.backlog_end", double(t.open.backlog_end));
  L.overhead("throughput_rps", et.throughput, eu.throughput);
  L.overhead("latency_p50_us", et.p50, eu.p50);
  L.overhead("latency_p90_us", et.p90, eu.p90);
  L.overhead("failed_frac", et.failed_frac, eu.failed_frac);
  L.overhead("cpu_ms_per_kreq", et.cpu_ms_per_kreq, eu.cpu_ms_per_kreq);
  // Live client span self times (diagnostics: the send/wait/decode split).
  const std::vector<double> self = live.self_ns();
  std::map<std::string, std::vector<double>> by_name;
  for (std::size_t i = 0; i < live.spans().size(); ++i) {
    by_name[live.spans()[i].name].push_back(self[i] / 1e3);
  }
  for (auto& [name, v] : by_name) {
    diag(std::string("client.span.") + name + "_self_us_p50", median(v), "us");
  }
  live.write(a.spans_dir + "/" + a.workload + "-live-spans.tsv");

  SpanLog replay_log;
  const ReplayResult rr = replay(w.replay, replay_log, rep.tally);
  replay_log.write(a.spans_dir + "/" + a.workload + "-replay-spans.tsv");
  L.replay(rr);
  const auto sig = rr.request_us.find("sig");
  L.set("net.unattributed_us",
        percentile(t.open.lat_sig_us, 0.5) -
            (sig == rr.request_us.end() ? 0.0 : sig->second));
  L.probe(probe_engines(w.probe, 3, rep.tally));
  L.over_cap(w.over_cap_bodies
                 ? probe_l2_over_cap(a.workdir + "/over_cap_l2",
                                     w.over_cap_bodies, w.over_cap_body_count,
                                     kOverCapAppends, rep.tally)
                 : OverCapResult{});
  L.emit(rep);
}

// ------------------------------------------------------------ workloads

Frame single(bool is_sig, const Item& it) {
  Frame f;
  f.bodies.push_back(Body{is_sig, is_sig ? it.sig : it.text, it.n, it.paths});
  return f;
}

void hot_wire(const Args& a, Report& rep) {
  const std::int64_t g0 = now_ns();
  const HotStream s = make_hot(a.seed);
  diag("gen_s", seconds_since(g0), "s");
  WireWorkload w;
  w.rate = kHotRate;
  w.closed_share = kHotClosedShare;
  w.frames = [&s](std::uint64_t i) { return s.frame(i); };
  // Every instance once in each form: L1 holds all 16 afterwards.
  w.warm = [&s](int, std::uint64_t i) {
    return single(i % 2 == 0, s.items[i / 2]);
  };
  w.warm_count = 2 * s.items.size();
  w.replay.warm = [&w](std::uint64_t i) { return w.warm(0, i); };
  w.replay.warm_count = w.warm_count;
  w.replay.frames = w.frames;
  w.replay.count = 20000;
  for (std::size_t k = 0; k < 4; ++k) {
    w.probe.trees.push_back(copath::cograph::Cotree::parse(s.items[k].text));
    w.probe.paths.push_back(s.items[k].paths);
  }
  run_wire(a, w, rep);
}

void cold_wire(const Args& a, Report& rep) {
  // Restart composites for every frame one pass can send: closed phases
  // are capped at kColdMargin times the reference rate, open phases send
  // at kColdRate (plus a few frames of rounding per phase).
  const auto est_frames = static_cast<std::uint64_t>(
      pass_seconds(a) * (kColdMargin * kColdClosedFps * kColdClosedShare +
                         kColdRate * (1 - kColdClosedShare)) +
      64);
  const std::uint64_t replay_frames = 1500;
  const std::int64_t g0 = now_ns();
  const ColdStream s = make_cold(
      a.seed, ColdStream::restarts_needed(std::max(est_frames, replay_frames)));
  COPATH_CHECK_MSG(est_frames <= s.frame_capacity(),
                   "perfbench: cold stream too small for this run length");
  diag("gen_s", seconds_since(g0), "s");

  // An earlier daemon writes the restart composites into L2, then drains.
  const std::string tmpl = a.workdir + "/cold_l2_template";
  std::filesystem::remove_all(tmpl);
  std::filesystem::create_directories(tmpl);
  {
    const std::int64_t f0 = now_ns();
    Daemon writer(a.copathd, {"--workers", kDaemonWorkers, "--cache-dir", tmpl});
    {
      constexpr std::uint64_t kPerBatch = 64;
      Load fill(writer.port(), nullptr, a.seed, rep.tally, nullptr);
      fill.burst(
          [&s](std::uint64_t b) {
            Frame f;
            f.batch = true;
            const std::uint64_t end =
                std::min((b + 1) * kPerBatch, s.restart_count);
            for (std::uint64_t r = b * kPerBatch; r < end; ++r) {
              f.bodies.push_back(s.restart(r));
            }
            return f;
          },
          (s.restart_count + kPerBatch - 1) / kPerBatch, 4);
      diag("l2_fill_log_mb",
           double(fill.stats()["l2_log_bytes"]) / 1048576.0, "MB");
    }
    COPATH_CHECK_MSG(writer.stop(), "perfbench: L2 writer did not drain");
    diag("l2_fill_s", seconds_since(f0), "s");
    diag("l2_fill_items", double(s.restart_count), "count");
  }
  WireWorkload w;
  w.rate = kColdRate;
  w.closed_share = kColdClosedShare;
  w.frames = [&s](std::uint64_t i) { return s.frame(i); };
  // A faster program ends the closed phase early rather than outgrow the
  // restart composites: throughput is then measured over a shorter window.
  w.closed_fps_cap = kColdMargin * kColdClosedFps;
  w.warm_count = 32;
  w.warm = [&s, &w](int k, std::uint64_t i) {
    Frame f;
    f.bodies.push_back(s.warm(std::uint64_t(k) * w.warm_count + i));
    return f;
  };
  w.replay.warm = [&w](std::uint64_t i) { return w.warm(0, i); };
  w.replay.warm_count = w.warm_count;
  w.replay.frames = w.frames;
  w.replay.count = replay_frames;
  w.replay.l2_dir = a.workdir + "/replay_l2";
  w.replay.l2_prefill = [&s](std::uint64_t r) { return s.restart(r); };
  w.replay.l2_prefill_count = ColdStream::restarts_needed(replay_frames);
  // The engines at the paper's scale: whether Native gains from more
  // workers is a question about n = 2^16 cotrees, not the wire's small ones.
  w.probe = make_paper_trees(a.seed);
  w.over_cap_bodies = [&s](std::uint64_t r) { return s.restart(r); };
  w.over_cap_body_count = s.restart_count;
  w.l2_template = tmpl;
  run_wire(a, w, rep);
  std::filesystem::remove_all(cold_l2_dir(a));
  std::filesystem::remove_all(tmpl);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", k.c_str());
      return 2;
    }
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--copathd") a.copathd = v;
    else if (k == "--workdir") a.workdir = v;
    else if (k == "--spans-dir") a.spans_dir = v;
    else if (k == "--commit") a.commit = v;
    else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  const std::map<std::string, void (*)(const Args&, Report&)> workloads{
      {"hot_wire", hot_wire}, {"cold_wire", cold_wire}};
  const auto it = workloads.find(a.workload);
  if (it == workloads.end() || a.seconds <= 0 || a.workdir.empty() ||
      a.copathd.empty()) {
    std::fprintf(stderr, "perfbench: bad arguments\n");
    return 2;
  }
  if (a.spans_dir.empty()) a.spans_dir = a.workdir;
  std::filesystem::create_directories(a.workdir);
  std::filesystem::create_directories(a.spans_dir);
  print_stamp(a);
  Report rep;
  try {
    it->second(a, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  for (const std::string& why : rep.tally.reasons) {
    std::printf("# failure %s\n", why.c_str());
  }
  if (!rep.open_loop_valid) {
    std::printf("# INVALID open-loop phase: %s\n", rep.invalid_why.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              rep.tally.wrong == 0 ? "true" : "false",
              static_cast<unsigned long long>(rep.tally.attempted),
              static_cast<unsigned long long>(rep.tally.failed));
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ", m.name.c_str(),
                m.value);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  if (rep.tally.wrong != 0) return 1;
  return rep.open_loop_valid ? 0 : 3;
}
