// Per-layer measurement outside the daemon: a single-threaded,
// in-process replay of a workload's frame stream through each layer's
// public call in daemon order, and an engine probe that times the
// executors on the workload's own instances.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cograph/cotree.hpp"
#include "common.hpp"
#include "gen.hpp"

namespace perfbench {

struct ReplaySpec {
  /// Frames replayed untimed-first (the daemon's warm-up), then `count`
  /// frames of the stream proper.
  std::function<Frame(std::uint64_t)> warm;
  std::uint64_t warm_count = 0;
  std::function<Frame(std::uint64_t)> frames;
  std::uint64_t count = 0;
  /// Non-empty: an L2 directory, and the bodies to write into it first
  /// (what the earlier daemon left there in the live run).
  std::string l2_dir;
  std::function<Body(std::uint64_t)> l2_prefill;
  std::uint64_t l2_prefill_count = 0;
};

struct ReplayResult {
  /// Median self time per span name, in microseconds.
  std::map<std::string, double> self_us;
  /// Median summed self time of one request, per kind ("sig", "text").
  std::map<std::string, double> request_us;
  double response_bytes = 0.0;
  double routed_native_share = 0.0;
};

/// parse_request -> canonical() -> make_cache_key + ResultCache::lookup ->
/// PersistCache::lookup -> resolve() -> Solver::solve -> insert/append ->
/// remapped_from_canonical -> encode_solve_response_frame ->
/// parse_response, one span per call under one request span. Every answer
/// is checked like a live one.
[[nodiscard]] ReplayResult replay(const ReplaySpec& spec, SpanLog& log,
                                  Tally& tally);

struct OverCapResult {
  /// Appends from the first one that found the log at its cap on.
  double append_us_p50 = 0.0;
  double append_ms_max = 0.0;
  /// Compactions those appends ran.
  double compactions = 0.0;
};

/// PersistCache past its log cap, which copathd's wire runs never reach.
/// A cache scaled down from copathd's by kOverCapScale (same log bytes per
/// index slot) is filled with `bodies` until an append finds the log at
/// its cap; that append and the `count` after it are timed one by one
/// (the solve before each is not). Every solve is checked.
inline constexpr std::size_t kOverCapScale = 64;
[[nodiscard]] OverCapResult probe_l2_over_cap(
    const std::string& dir, const std::function<Body(std::uint64_t)>& bodies,
    std::uint64_t body_count, std::uint64_t count, Tally& tally);

struct ProbeResult {
  double native_ms = 0.0;     // Backend::Native, workers = nproc
  double native_w1_ms = 0.0;  // Backend::Native, workers = 1
  double sequential_ms = 0.0;
  /// PipelineTrace of one Native (workers = nproc) solve: per-stage
  /// simulated steps and work, keyed "step2".."step8".
  std::map<std::string, double> stage_steps, stage_work;
  double repair_rounds = 0.0;
};

/// Median engine wall time over `reps` solves of each tree; every cover
/// is checked against the set's path counts.
[[nodiscard]] ProbeResult probe_engines(const ProbeSet& set, int reps,
                                        Tally& tally);

}  // namespace perfbench
