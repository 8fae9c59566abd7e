// Seeded workload inputs. Everything here is a pure function of the
// workload seed: the same seed gives byte-identical frames, and only these
// bytes reach the program under test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cograph/cotree.hpp"

namespace perfbench {

/// One generated cotree in both wire forms, with the facts the answer
/// checks need. `paths` is Solver::count's minimum path cover size.
struct Item {
  std::string text;
  std::string sig;  // canonical signature bytes
  std::uint32_t n = 0;
  std::int64_t paths = 0;
  bool join_root = false;
};

/// One solve body as it goes on the wire.
struct Body {
  bool is_sig = false;
  std::string bytes;
  std::uint32_t n = 0;
  std::int64_t paths = 0;
};

/// A request frame: one body, or a BatchSolve of several.
struct Frame {
  bool batch = false;
  std::vector<Body> bodies;  // size 1 unless batch
};

/// Counter-based splitmix: a seeded stream addressable by index, so the
/// live run and the in-process replay draw the same frame i.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t i);

/// hot_wire: 16 n=1024 cotrees; frame i is instance mix(seed,i) % 16, a
/// SolveText when i % 4 == 3 and a SolveSignature otherwise.
struct HotStream {
  std::vector<Item> items;
  std::uint64_t seed = 0;

  [[nodiscard]] Frame frame(std::uint64_t i) const;
};
[[nodiscard]] HotStream make_hot(std::uint64_t seed);

/// cold_wire. Unique instances are composed from a base cotree and a small
/// "tag" cotree under a root of the kind neither has, so pair (base, tag)
/// names one isomorphism class and a run never repeats one: the wrapper
/// costs a string concatenation, not a fresh 300 us generation per frame.
/// Frame i % 8 == 7 is a BatchSolve; the other seven alternate between a
/// never-seen composite (text and signature in turn) and a composite that
/// setup wrote into L2 through an earlier daemon (each touched once).
struct ColdStream {
  std::vector<Item> fresh_bases;    // n log-uniform in 2^8..2^12
  std::vector<Item> restart_bases;  // same law, disjoint seeds
  std::vector<Item> small_bases;    // n log-uniform in 2^6..2^8
  std::vector<Item> join_tags;      // join-rooted tags (under a union)
  std::vector<Item> union_tags;     // union-rooted tags (under a join)
  std::uint64_t seed = 0;
  /// Restart composites 0..restart_count-1 exist in L2 after setup.
  std::uint64_t restart_count = 0;

  static constexpr std::size_t kBatchItems = 16;
  static constexpr std::size_t kBatchUnique = 11;

  /// Never-seen composite number p (kind alternates text/signature).
  [[nodiscard]] Body fresh(std::uint64_t p) const;
  /// Restart composite number r (what setup wrote into L2).
  [[nodiscard]] Body restart(std::uint64_t r) const;
  /// Never-seen small composite number q (batch items).
  [[nodiscard]] Body small(std::uint64_t q) const;
  /// Warm-up composite w: never-seen, drawn from a range frames never use.
  [[nodiscard]] Body warm(std::uint64_t w) const;
  [[nodiscard]] Frame frame(std::uint64_t i) const;
  /// Frames 0..frames-1 touch restart composites below this bound.
  [[nodiscard]] static std::uint64_t restarts_needed(std::uint64_t frames);
  /// Largest frame count whose fresh composites are all distinct.
  [[nodiscard]] std::uint64_t frame_capacity() const;
};
[[nodiscard]] ColdStream make_cold(std::uint64_t seed,
                                   std::uint64_t restart_count);

/// Cotrees for the engine probe, with Solver::count's path counts.
struct ProbeSet {
  std::vector<copath::cograph::Cotree> trees;
  std::vector<std::int64_t> paths;
};
/// Two skew-0 and two skew-0.9 cotrees at n = 2^16.
[[nodiscard]] ProbeSet make_paper_trees(std::uint64_t seed);

}  // namespace perfbench
