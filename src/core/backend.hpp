// Backend registry: the dispatch substrate behind copath::Solver.
//
// Every path cover engine in the library — the sequential sweep, the PRAM
// pipeline under various machine configurations, the host reference
// pipeline, and the baselines — is wrapped as a `BackendFn` and registered
// under a `Backend` id in the process-wide `BackendRegistry`. The Solver
// facade (copath_solver.hpp) resolves requests through the registry, so new
// engines (sharded, async, GPU, ...) plug in by registering themselves and
// become reachable from every example, bench, and batch workload without
// touching call sites.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cograph/cotree.hpp"
#include "core/count.hpp"
#include "core/path_cover.hpp"
#include "core/pipeline.hpp"
#include "exec/native.hpp"
#include "pram/machine.hpp"
#include "util/cancel.hpp"

namespace copath::core {

/// The built-in path cover engines. The registry is open: ids beyond the
/// enum can be added (or replaced) at runtime through BackendRegistry::add.
enum class Backend : std::uint8_t {
  /// Lemma 2.3 — the O(n) sequential sweep (host, no PRAM machine).
  Sequential,
  /// Theorem 5.3 on an EREW machine with the paper's P = n/log2(n) budget
  /// (a fixed preset of Pram; the cache bench's engine workload).
  Parallel,
  /// Theorem 5.3 on a fully configurable machine: policy, processor budget,
  /// rank engine, and trace collection are honored.
  Pram,
  /// Held–Karp bitmask DP over the materialized graph (exact oracle;
  /// rejects n > 20, and is already slow well before that).
  BruteForce,
  /// Min-degree greedy heuristic on the materialized graph. The only
  /// backend with no minimality guarantee.
  Greedy,
  /// The level-synchronous strawman the paper dismisses (Θ(height) time).
  NaiveParallel,
  /// The host execution of the full bracket pipeline (differential oracle).
  Reference,
  /// Theorem 5.3's pipeline on exec::Native — the same stage code as Pram
  /// but on direct memory with thread-pool pfor: no conflict checking, no
  /// write buffering, no per-step barriers. The production engine; covers
  /// are identical to Backend::Pram (the differential suite enforces it).
  Native,
  /// Cost-model dispatch between Sequential and Native (core/adaptive.*):
  /// each solve is routed by predicted wall time from (n, instance shape,
  /// threads available to this request — i.e. batch pressure). The native
  /// route draws scratch from the calling thread's shared arena, so
  /// steady-state serving reuses buffers across solves. Covers are
  /// bitwise-equal to Backend::Sequential on the sequential routing
  /// domain (which includes every n below the model's floor) and to
  /// Backend::Native on the native one. The Service / batch default.
  Adaptive,
};

[[nodiscard]] const char* to_string(Backend b);
[[nodiscard]] std::optional<Backend> backend_from_string(std::string_view s);

struct CostModel;  // core/adaptive.hpp

/// Machine/engine tuning knobs a backend receives. Backends ignore the
/// fields that do not apply to them (Sequential ignores everything).
struct BackendConfig {
  /// Physical worker threads for the PRAM machine (1 = inline). For
  /// Backend::Native, 0 selects hardware concurrency.
  std::size_t workers = 1;
  /// Virtual processor budget; 0 selects the paper's n / log2(n).
  std::size_t processors = 0;
  /// Access discipline the machine enforces.
  pram::Policy policy = pram::Policy::EREW;
  /// Pipeline knobs (rank engine, repair round cap) for PRAM backends.
  PipelineOptions pipeline{};
  /// Collect a PipelineTrace where the engine supports one.
  bool collect_trace = false;
  /// Evaluate the Lemma 2.4 verdicts where the engine can take them from
  /// the binarized tree its own sweep built (the sequential routes). Set
  /// from SolveOptions::compute_verdicts; engines that cannot leave
  /// BackendOutput::verdicts empty and the Solver computes them.
  bool compute_verdicts = false;
  /// Routing model for Backend::Adaptive; nullptr = the process-wide
  /// calibrated default (CostModel::calibrated()). Tests inject a model to
  /// force a route. Must outlive the solve.
  const CostModel* cost_model = nullptr;
  /// Cooperative cancellation token (util/cancel.hpp); nullptr = never
  /// cancelled. Borrowed — must outlive the solve. Engines that honor it
  /// (Sequential routes check it once up front; Native checkpoints every
  /// parallel phase) unwind with util::CancelledError when it trips.
  util::CancelToken* cancel = nullptr;
};

/// What a backend hands back: always a cover; machine stats and a stage
/// trace when the engine ran on a PRAM machine / through the pipeline.
struct BackendOutput {
  PathCover cover;
  pram::Stats stats{};
  PipelineTrace trace{};
  /// True iff `stats` reflects a real machine run.
  bool used_pram = false;
  /// True iff `trace` was populated.
  bool traced = false;
  /// The engine that actually ran, when the backend dispatches (set by
  /// Backend::Adaptive); empty for backends that are their own engine.
  std::optional<Backend> routed;
  /// Cover size and Hamiltonicity verdicts, when BackendConfig asked for
  /// them and the engine evaluated them on its own binarized tree.
  std::optional<CountVerdicts> verdicts;
};

using BackendFn =
    std::function<BackendOutput(const cograph::Cotree&, const BackendConfig&)>;

/// Process-wide backend table. add/find/registered are mutex-guarded, and
/// find hands out shared ownership of an immutable Entry, so registering
/// (or replacing) an engine concurrently with running solvers is safe: a
/// backend mid-execution keeps its Entry alive even after replacement.
class BackendRegistry {
 public:
  struct Entry {
    Backend id;
    std::string name;
    BackendFn fn;
    /// False for heuristics whose cover may exceed the minimum (Greedy).
    bool exact = true;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  static BackendRegistry& instance();

  /// Registers (or replaces) a backend.
  void add(Backend id, std::string name, BackendFn fn, bool exact = true);

  /// nullptr when the id is not registered.
  [[nodiscard]] EntryPtr find(Backend id) const;
  [[nodiscard]] EntryPtr find(std::string_view name) const;

  /// Registered ids, in registration order.
  [[nodiscard]] std::vector<Backend> registered() const;

 private:
  BackendRegistry();
  mutable std::mutex mu_;
  std::vector<EntryPtr> entries_;
};

/// The paper's processor budget: max(1, n / log2(n)).
[[nodiscard]] std::size_t paper_processors(std::size_t n);

/// True for the built-in engines that execute on a pram::Machine (and so
/// report meaningful pram::Stats).
[[nodiscard]] bool uses_pram_machine(Backend b);

/// True for the built-in engines that execute on exec::Native. Their stats
/// count phases, not the simulator's cost model (stats_valid stays false).
[[nodiscard]] bool uses_native_executor(Backend b);

/// True for the built-in engines that may spawn their own worker threads
/// (Native, and Adaptive's native route). Batch front-ends give exactly
/// these backends a per-request thread budget instead of forcing inline
/// execution — for Adaptive the budget doubles as the cost model's batch
/// pressure signal.
[[nodiscard]] bool may_use_native_threads(Backend b);

/// exec::Native configuration a Native backend derives from `cfg`
/// (workers == 0 resolves to hardware concurrency; the processor budget
/// defaults to one block per worker — no instance-size tuning).
[[nodiscard]] exec::Native::Config native_config(const BackendConfig& cfg);

/// Applies per-backend fixed contracts to a config: Backend::Parallel pins
/// the historical EREW + paper-budget machine whatever the caller asked
/// for. Other backends pass through unchanged. Used by both the solve and
/// count paths so the contracts cannot drift apart.
[[nodiscard]] BackendConfig apply_backend_contract(Backend b,
                                                   BackendConfig cfg);

/// Machine configuration a PRAM backend derives from `cfg` for an n-vertex
/// instance (resolves processors == 0 to the paper budget).
[[nodiscard]] pram::Machine::Config machine_config(std::size_t n,
                                                   const BackendConfig& cfg);

/// Substrate micro-probe used by the simulator benchmarks (E7): runs a
/// work-optimal exclusive scan of `n` ones on a machine built from `cfg`
/// and reports the simulated cost plus wall time. Lives behind the facade
/// so benches never wire up pram::Machine themselves.
struct ScanProbeResult {
  pram::Stats stats{};
  double wall_ms = 0.0;
  std::int64_t checksum = 0;  // last prefix = n - 1
};
[[nodiscard]] ScanProbeResult probe_scan_substrate(std::size_t n,
                                                   const BackendConfig& cfg);

/// The same scan probe on exec::Native (workers == 0 = hardware
/// concurrency). stats count phases; wall_ms is the point.
[[nodiscard]] ScanProbeResult probe_scan_native(std::size_t n,
                                                std::size_t workers = 0);

}  // namespace copath::core
