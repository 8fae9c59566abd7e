// E12 — the zero-allocation request front-end: text→result and warm-hit
// latency, new front-end vs the PR 4 request path, n = 16 .. 2^16.
//
// Claims (ISSUE 5 acceptance):
//   * cold text→result throughput at n <= 4096 is >= 3x the PR 4 path
//     (recursive-descent parser + registry dispatch + one binarize per
//     verdict sweep), and
//   * warm cache-hit latency is >= 5x better than the PR 4 hit path
//     (string canonical key rebuilt + hashed + compared per request,
//     copy-then-remap materialization).
//
// The PR 4 baseline is reconstructed in-binary from the retained pieces:
// Cotree::parse_reference IS the old parser, Solver::solve IS the old
// dispatch (unchanged), the old key shape (canonical string + ostringstream
// options fingerprint, string-keyed map, copy-then-remap hit) is emulated
// verbatim. Both paths therefore share the same machine, same cache state,
// same instances — the ratio isolates the front-end work this PR removed.
//
// Modes:
//   --json    write BENCH_frontend.json (the perf-trajectory record)
//   --smoke   regression gate: exit 1 if the measured cold speedup falls
//             below 2.7x or the warm-hit speedup below 4.5x at any
//             n in {256, 1024, 4096} — the committed BENCH_frontend.json
//             bars (3x / 5x) minus 10% headroom. CI runs this in Release.
//
// Plain main — no google-benchmark dependency, so the smoke gate builds
// everywhere the library does.
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace copath;

#include "legacy_frontend.inc"

bench::JsonReport* g_json = nullptr;

Cotree make_instance(const char* family, std::size_t n, unsigned seed) {
  if (std::strcmp(family, "caterpillar") == 0) return cograph::caterpillar(n);
  cograph::RandomCotreeOptions gopt;
  gopt.seed = seed;
  return cograph::random_cotree(n, gopt);
}

/// Serving-shaped options: the Service default (Adaptive + verdicts).
SolveOptions serving_options() {
  SolveOptions opts;
  opts.backend = Backend::Adaptive;
  return opts;
}

// ----------------------------------------------------------------- keys

/// The old string cache key: canonical string copied per request, options
/// serialized through an ostringstream, both folded into the hash char by
/// char (verbatim from the PR 3/4 result_cache.cpp).
std::uint64_t legacy_hash_string(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h = util::hash_mix(h, static_cast<std::uint64_t>(c));
  }
  return h;
}

/// The old full key build: canonical string copied, options serialized,
/// hash folded char by char, plus the flight-key concatenation the old
/// Service built on the miss path.
std::string legacy_flight_key(const cograph::CanonicalForm& form,
                              const SolveOptions& opts) {
  std::string canon_key = form.key;  // the per-request string copy
  const std::string opts_key = service::options_fingerprint(opts);
  const std::uint64_t hash = legacy_hash_string(form.hash, opts_key);
  (void)hash;
  std::string flight = std::move(canon_key);
  flight += '\x1f';
  flight += opts_key;
  return flight;
}

using LegacyStore =
    std::unordered_map<std::string, std::shared_ptr<const SolveResult>>;

// --------------------------------------------------------------- cold path

/// PR 4 cold request, the full service miss anatomy: recursive-descent
/// parse, vector-scratch canonicalization, string key build + probe, the
/// verbatim PR 4 sequential solve + verdict sweeps (one fresh binarize
/// each), canonical-space copy, store. Above the Adaptive floor the old
/// route was not sequential, so the caller skips those sizes for legacy
/// timing fairness (the sweep only claims n <= 4096 anyway).
double legacy_cold_ms(const std::string& text, const SolveOptions& opts,
                      LegacyStore& store, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    util::WallTimer timer;
    const Cotree t = Cotree::parse_reference(text);
    const auto form = legacy::legacy_canonical_form(t);
    const std::string flight = legacy_flight_key(form, opts);
    (void)store.find(flight);  // the miss probe
    const SolveResult res = legacy::legacy_solve(t);
    store[flight] = std::make_shared<const SolveResult>(
        service::to_canonical_space(res, form));
    best = std::min(best, timer.millis());
  }
  return best;
}

/// Large-n legacy cold request: above the Adaptive floor the old route
/// was the same registry dispatch still in the tree, so time that (the
/// parse + canonicalization remain the PR 4 reconstructions).
double legacy_generic_cold_ms(const std::string& text,
                              const SolveOptions& opts,
                              const Solver& solver, LegacyStore& store,
                              int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    util::WallTimer timer;
    const Cotree t = Cotree::parse_reference(text);
    const auto form = legacy::legacy_canonical_form(t);
    const std::string flight = legacy_flight_key(form, opts);
    (void)store.find(flight);
    const SolveResult res =
        bench::require_ok(solver.solve(Instance::view(t)));
    store[flight] = std::make_shared<const SolveResult>(
        service::to_canonical_space(res, form));
    best = std::min(best, timer.millis());
  }
  return best;
}

/// PR 5 cold request, same anatomy through the new front end: iterative
/// SoA parse inside Instance resolution, arena-scratch canonicalization
/// (binary signature emitted in the same walk), borrowed key + memcmp
/// probe, then what a Service worker runs — Solver::solve through the
/// backend registry (the sequential route binarizes once for cover and
/// verdicts below the Adaptive floor) — and the canonical-space store.
double new_cold_ms(const std::string& text, const SolveOptions& opts,
                   const Solver& solver, service::ResultCache& cache,
                   int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    util::WallTimer timer;
    const Instance inst = Instance::text(text);
    const auto& form = inst.canonical();
    const service::CacheKeyRef key = service::make_cache_key(form, opts);
    (void)cache.lookup(key);  // the miss probe
    const SolveResult res = bench::require_ok(solver.solve(inst, {}, opts));
    cache.insert(key, std::make_shared<const SolveResult>(
                          service::to_canonical_space(res, form)));
    best = std::min(best, timer.millis());
  }
  return best;
}

// ----------------------------------------------------------- warm-hit path

/// PR 4 warm hit: parse (recursive), canonicalize, rebuild the string key,
/// probe a string-keyed map (full string compare), deep-copy the stored
/// result, then remap it in place.
double legacy_warm_ms(const std::string& text, const SolveOptions& opts,
                      const LegacyStore& store, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    util::WallTimer timer;
    const Cotree t = Cotree::parse_reference(text);
    const auto form = legacy::legacy_canonical_form(t);
    const std::string flight = legacy_flight_key(form, opts);
    const auto it = store.find(flight);
    if (it == store.end()) {
      std::cerr << "legacy warm path missed its own store\n";
      std::exit(1);
    }
    SolveResult res = service::from_canonical_space(SolveResult(*it->second),
                                                    form);
    best = std::min(best, timer.millis());
    if (res.cover.paths.empty() && t.vertex_count() > 0) std::exit(1);
  }
  return best;
}

/// PR 5 warm hit: iterative parse, canonicalize (binary signature emitted
/// in the same walk), borrow the key (no copy), memcmp probe of the real
/// ResultCache, fused copy+remap materialization.
double new_warm_ms(const std::string& text, const SolveOptions& opts,
                   service::ResultCache& cache, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    util::WallTimer timer;
    const Cotree t = Cotree::parse(text);
    // What Instance::canonical() computes: signature + permutations, no
    // human-facing algebra key.
    const auto form = canonical_form(t, /*with_algebra_key=*/false);
    const service::CacheKeyRef key = service::make_cache_key(form, opts);
    const auto hit = cache.lookup(key);
    if (hit == nullptr) {
      std::cerr << "new warm path missed its own store\n";
      std::exit(1);
    }
    SolveResult res = service::remapped_from_canonical(*hit, form);
    best = std::min(best, timer.millis());
    if (res.cover.paths.empty() && t.vertex_count() > 0) std::exit(1);
  }
  return best;
}

// ----------------------------------------------------------------- sweeps

struct GateStats {
  int violations = 0;
};

void frontend_sweep(bool smoke, GateStats& gate) {
  bench::banner(
      smoke ? "E12-smoke: front-end never regresses past the committed bars"
            : "E12a: text->result and warm-hit latency, old vs new "
              "front-end",
      "cold = full request (parse + solve + verdicts); warm = cache-hit "
      "request (parse + canonicalize + key + probe + remap). legacy is the "
      "PR 4 path reconstructed in-binary (recursive parser, registry "
      "dispatch, string keys, copy-then-remap). Bars at n <= 4096: cold "
      ">= 3x, warm >= 5x.");
  util::Table table({"family", "n", "cold_legacy_us", "cold_new_us",
                     "cold_x", "warm_legacy_us", "warm_new_us", "warm_x",
                     "cold_rps"});
  const SolveOptions opts = serving_options();
  const Solver legacy_solver(opts);
  const std::vector<std::size_t> ns =
      smoke ? std::vector<std::size_t>{256, 1024, 4096}
            : std::vector<std::size_t>{16, 64, 256, 1024, 4096, 16384,
                                       65536};
  for (const char* family : {"random", "caterpillar"}) {
    for (const std::size_t n : ns) {
      // parse_reference recurses: keep the legacy path inside its 512
      // frames for caterpillar-like shapes by skipping what it cannot
      // even parse (the new parser has no such limit — that asymmetry is
      // PART of this PR, but an unmeasurable baseline is no baseline).
      const Cotree t =
          make_instance(family, n, 12000 + static_cast<unsigned>(n));
      const std::string text = t.format();
      bool legacy_ok = true;
      try {
        (void)Cotree::parse_reference(text);
      } catch (const util::CheckError&) {
        legacy_ok = false;
      }
      if (!legacy_ok) continue;

      const int reps = n <= 256 ? 150 : (n <= 4096 ? 40 : 5);

      // Warm stores, seeded once from the same solve.
      const auto form = canonical_form(t);
      const SolveResult seeded = bench::require_ok(
          legacy_solver.solve(Instance::view(t)));
      const auto canonical = std::make_shared<const SolveResult>(
          service::to_canonical_space(seeded, form));
      LegacyStore legacy_store;
      legacy_store.emplace(legacy_flight_key(form, opts), canonical);
      service::ResultCache cache;
      cache.insert(service::make_cache_key(form, opts), canonical);

      // Cold. Interleave-fair: legacy first, then new (any thermal drift
      // across the cell biases against the new path).
      const double cold_legacy =
          n <= core::CostModel::calibrated().min_native_n
              ? legacy_cold_ms(text, opts, legacy_store, reps)
              : legacy_generic_cold_ms(text, opts, legacy_solver,
                                       legacy_store, reps);
      const double cold_new =
          new_cold_ms(text, opts, legacy_solver, cache, reps);

      const double warm_legacy =
          legacy_warm_ms(text, opts, legacy_store, reps);
      const double warm_new = new_warm_ms(text, opts, cache, reps);

      const double cold_x = cold_legacy / cold_new;
      const double warm_x = warm_legacy / warm_new;
      const double rps = 1000.0 / cold_new;
      table.row({util::Table::S(family),
                 util::Table::I(static_cast<long long>(n)),
                 util::Table::F(cold_legacy * 1000.0),
                 util::Table::F(cold_new * 1000.0),
                 util::Table::F(cold_x),
                 util::Table::F(warm_legacy * 1000.0),
                 util::Table::F(warm_new * 1000.0),
                 util::Table::F(warm_x), util::Table::F(rps)});
      if (g_json != nullptr) {
        g_json->row("frontend",
                    {{"n", static_cast<double>(n)},
                     {"cold_legacy_ms", cold_legacy},
                     {"cold_new_ms", cold_new},
                     {"cold_speedup", cold_x},
                     {"warm_legacy_ms", warm_legacy},
                     {"warm_new_ms", warm_new},
                     {"warm_speedup", warm_x},
                     {"cold_rps", rps}},
                    {{"family", family}});
      }
      if (smoke && n <= 4096) {
        // The committed bars minus 10% headroom; re-measure once with
        // more repetitions before declaring a violation (microsecond
        // scales jitter).
        const bool cold_bad = cold_x < 2.7;
        const bool warm_bad = warm_x < 4.5;
        if (cold_bad || warm_bad) {
          const double c2 =
              legacy_cold_ms(text, opts, legacy_store, 3 * reps) /
              new_cold_ms(text, opts, legacy_solver, cache, 3 * reps);
          const double w2 =
              legacy_warm_ms(text, opts, legacy_store, 3 * reps) /
              new_warm_ms(text, opts, cache, 3 * reps);
          if (c2 < 2.7 || w2 < 4.5) {
            std::cerr << "SMOKE VIOLATION at " << family << " n=" << n
                      << ": cold_x=" << c2 << " (bar 2.7), warm_x=" << w2
                      << " (bar 4.5)\n";
            ++gate.violations;
          }
        }
      }
    }
  }
  table.print(std::cout);
  std::cout << std::endl;
}

void service_sweep() {
  bench::banner(
      "E12b: the real Service, end to end",
      "Warmup: 256 throwaway instances (same sizes, different seeds) that "
      "size the worker arenas — its fresh_allocs are the one-time growth "
      "cost, reported on its own row. Cold: 256 distinct small instances "
      "submitted through copath::Service (express solves + arena scratch "
      "engaged); its fresh_allocs are now the steady-state cold-request "
      "number, not warm-up growth in disguise. Warm: the same 256 requests "
      "again — every one a cache hit. Request latency includes queueing "
      "and future fulfillment. All counters are per-phase deltas.");
  util::Table table(
      {"n", "phase", "total_ms", "req_per_s", "express", "fresh_allocs"});
  for (const std::size_t n : {256u, 4096u}) {
    Service::Options sopts;
    sopts.workers = 4;
    Service svc(sopts);
    std::vector<std::string> texts;
    std::vector<std::string> warmup_texts;
    texts.reserve(256);
    warmup_texts.reserve(256);
    for (unsigned i = 0; i < 256; ++i) {
      texts.push_back(
          make_instance(i % 2 == 0 ? "random" : "caterpillar", n,
                        777000 + i)
              .format());
      // Disjoint seed range: same shapes and sizes (so the arenas grow to
      // the same high-water mark) but zero cache overlap with the measured
      // cold round.
      warmup_texts.push_back(
          make_instance(i % 2 == 0 ? "random" : "caterpillar", n,
                        888000 + i)
              .format());
    }
    const auto run_round = [&](const std::vector<std::string>& batch)
        -> double {
      util::WallTimer timer;
      std::vector<std::future<SolveResult>> futs;
      futs.reserve(batch.size());
      for (const auto& text : batch) {
        futs.push_back(svc.submit(SolveRequest{Instance::text(text), {}, {}}));
      }
      for (auto& f : futs) bench::require_ok(f.get());
      return timer.millis();
    };
    const double warmup_ms = run_round(warmup_texts);
    const auto warmup_stats = svc.stats();
    const double cold_ms = run_round(texts);
    const auto cold_stats = svc.stats();
    double warm_ms = 1e300;
    for (int r = 0; r < 3; ++r) warm_ms = std::min(warm_ms, run_round(texts));
    const auto warm_stats = svc.stats();
    const auto row = [&](const char* phase, double ms, std::uint64_t express,
                         std::uint64_t fresh) {
      table.row({util::Table::I(static_cast<long long>(n)),
                 util::Table::S(phase), util::Table::F(ms),
                 util::Table::F(1000.0 * 256.0 / ms),
                 util::Table::I(static_cast<long long>(express)),
                 util::Table::I(static_cast<long long>(fresh))});
      if (g_json != nullptr) {
        g_json->row("service",
                    {{"n", static_cast<double>(n)},
                     {"total_ms", ms},
                     {"req_per_s", 1000.0 * 256.0 / ms},
                     {"express_solves", static_cast<double>(express)},
                     {"arena_fresh_allocs", static_cast<double>(fresh)}},
                    {{"phase", phase}});
      }
    };
    row("warmup", warmup_ms, warmup_stats.express_solves,
        warmup_stats.arena_fresh_allocs);
    row("cold", cold_ms,
        cold_stats.express_solves - warmup_stats.express_solves,
        cold_stats.arena_fresh_allocs - warmup_stats.arena_fresh_allocs);
    row("warm", warm_ms, warm_stats.express_solves - cold_stats.express_solves,
        warm_stats.arena_fresh_allocs - cold_stats.arena_fresh_allocs);
  }
  table.print(std::cout);
  std::cout << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  bench::JsonReport json(&argc, argv, "frontend");
  g_json = &json;
  GateStats gate;
  frontend_sweep(smoke, gate);
  if (!smoke) service_sweep();
  json.write();
  if (gate.violations > 0) {
    std::cerr << gate.violations << " smoke violation(s)\n";
    return 1;
  }
  std::cout << (smoke ? "smoke OK\n" : "");
  return 0;
}
