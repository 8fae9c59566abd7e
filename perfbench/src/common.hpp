// Shared pieces of the harness: the clock, percentiles, answer checks,
// failure accounting and the in-memory span log.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/path_cover.hpp"
#include "gen.hpp"
#include "net/protocol.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (p in [0, 1]) of unsorted samples; 0 if empty.
[[nodiscard]] inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      std::clamp(std::ceil(p * double(v.size())), 1.0, double(v.size())) -
      1.0);
  std::nth_element(v.begin(), v.begin() + std::ptrdiff_t(k), v.end());
  return v[k];
}
/// The middle value, or the mean of the two middle ones; 0 if empty.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto h = static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), v.begin() + h, v.end());
  if (v.size() % 2 == 1) return v[std::size_t(h)];
  return (v[std::size_t(h)] + *std::max_element(v.begin(), v.begin() + h)) /
         2.0;
}

/// Attempts and failures across every phase of a run. A failure is a
/// non-Ok status, a timeout or a wrong answer; the first few reasons are
/// kept for the report.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;  // failures that are wrong answers
  std::vector<std::string> reasons;

  void fail(const std::string& why, bool wrong_answer);
};

/// The cheap check every answer gets: the path count equals Solver::count
/// for the instance, and every vertex 0..n-1 appears exactly once. Returns
/// an empty string when the answer passes.
[[nodiscard]] std::string check_cover(
    const std::vector<std::vector<std::uint32_t>>& paths, std::uint32_t n,
    std::int64_t expected_paths);

/// check_cover plus the wire-level checks (status Ok, result ok, the
/// verdict's optimal size) for one solve body.
[[nodiscard]] std::string check_wire(copath::net::protocol::Status status,
                                     const copath::net::protocol::WireResult& r,
                                     const Body& body);

/// The full independent validator (core::validate_path_cover: bijection,
/// adjacency by the cotree LCA oracle, minimality) on a wire answer. The
/// cotree is rebuilt from the bytes that were sent.
[[nodiscard]] std::string validate_full(
    const Body& body, const std::vector<std::vector<std::uint32_t>>& paths);

/// Spans recorded around calls into the program. A span's parent is the
/// request span it belongs to; a request span has parent 0 and its own id
/// as `request`.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  std::uint64_t open(const char* name, std::uint64_t parent,
                     std::int64_t start_ns) {
    spans_.push_back(
        Span{spans_.size() + 1, parent, name, start_ns, start_ns});
    return spans_.size();
  }
  void close(std::uint64_t id, std::int64_t end_ns) {
    spans_[id - 1].end_ns = end_ns;
  }
  std::uint64_t add(const char* name, std::uint64_t parent,
                    std::int64_t start_ns, std::int64_t end_ns) {
    const std::uint64_t id = open(name, parent, start_ns);
    close(id, end_ns);
    return id;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span (duration minus the union of its children's
  /// intervals), indexed like spans(), in nanoseconds.
  [[nodiscard]] std::vector<double> self_ns() const;

  /// Writes `id parent name start_ns end_ns` lines.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;  // spans_[id - 1] has id `id`
};

}  // namespace perfbench
