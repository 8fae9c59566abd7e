// util::ThreadBudgeter — claims-based division of a fixed thread pool
// among concurrently running requests.
//
// The old batch rule budget = floor(pool / requests) stranded threads
// whenever the request count did not divide the pool (pool = 8, requests
// = 3 → budgets 2/2/2 with 2 threads idle) and never rebalanced: the last
// straggler of a 100-request batch kept its budget of 1 while every other
// core sat idle. The budgeter fixes both with two atomics:
//
//  * available_ — threads not currently claimed. A starting request takes
//    ceil(available / peers) where peers is how many requests could still
//    be running beside it, so the remainder lands on the earliest
//    starters instead of nobody (8/3 → 3, then ceil(5/2) = 3, then 2).
//  * Claims are returned on completion, so a request that starts late —
//    the straggler tail — sees the freed threads and claims them.
//
// Every claim is at least 1 (a request can always run on its own caller
// thread), and claims never push the *sum of grants* above the pool except
// by that guaranteed minimum, so nested pools cannot oversubscribe the
// host beyond one thread per in-flight request. Determinism of results is
// unaffected: thread budgets change wall time, never values (the engines
// are worker-count invariant; the solver suites prove it).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace copath::util {

class ThreadBudgeter {
 public:
  /// A grant of `threads` out of the pool; return it with release().
  struct Lease {
    std::size_t threads = 1;
  };

  explicit ThreadBudgeter(std::size_t pool)
      : pool_(pool == 0 ? 1 : pool),
        available_(static_cast<std::int64_t>(pool == 0 ? 1 : pool)) {}

  ThreadBudgeter(const ThreadBudgeter&) = delete;
  ThreadBudgeter& operator=(const ThreadBudgeter&) = delete;

  [[nodiscard]] std::size_t pool() const { return pool_; }

  /// Claims threads for one starting request. `peers` is the number of
  /// requests that have NOT yet claimed a budget, including this one
  /// (batch callers count down an "unclaimed" atomic; serving callers
  /// count workers racing for a claim right now). Counting *unfinished*
  /// or *busy* requests instead would double-discount: completed or
  /// already-leased peers have their threads accounted in `available_`
  /// (returned or subtracted), so dividing by them re-strands the
  /// remainder this class exists to distribute.
  [[nodiscard]] Lease acquire(std::size_t peers) {
    const auto p = static_cast<std::int64_t>(peers == 0 ? 1 : peers);
    std::int64_t avail = available_.load(std::memory_order_relaxed);
    std::int64_t take;
    do {
      take = avail <= 0 ? 1 : (avail + p - 1) / p;  // ceil; floor of 1
    } while (!available_.compare_exchange_weak(avail, avail - take,
                                               std::memory_order_relaxed));
    acquires_.fetch_add(1, std::memory_order_relaxed);
    return Lease{static_cast<std::size_t>(take)};
  }

  /// Total leases ever handed out — the observability hook the Service
  /// tests use to prove express solves claim no lease.
  [[nodiscard]] std::uint64_t acquires() const {
    return acquires_.load(std::memory_order_relaxed);
  }

  /// Returns a lease's threads to the pool (rebalancing: later acquires
  /// see them).
  void release(Lease lease) {
    available_.fetch_add(static_cast<std::int64_t>(lease.threads),
                         std::memory_order_relaxed);
  }

 private:
  std::size_t pool_;
  /// May dip below zero transiently: the floor-of-1 grant models "every
  /// request may at least use its own caller thread".
  std::atomic<std::int64_t> available_;
  std::atomic<std::uint64_t> acquires_{0};
};

}  // namespace copath::util
