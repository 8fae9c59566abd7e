#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <thread>
#include <unordered_map>

#include "copath_solver.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "service/persist_cache.hpp"
#include "service/result_cache.hpp"
#include "util/check.hpp"

namespace perfbench {

namespace proto = copath::net::protocol;
namespace svc = copath::service;
using copath::Instance;
using copath::SolveResult;

namespace {

/// The solve options copathd applies to a request that sets none.
copath::SolveOptions daemon_solve_options() {
  return proto::apply_wire_options(
      {}, copath::net::Server::Options{}.service.solve);
}

/// The layers of one request, run the way the daemon's loop thread and
/// worker run them. Spans are children of `req`.
class Chain {
 public:
  Chain(SpanLog& log, svc::PersistCache* l2)
      : log_(log), l2_(l2), opts_(daemon_solve_options()) {}

  /// Canonical form through solve or replay for one body; returns the
  /// answer in the body's own vertex ids.
  SolveResult item(std::uint64_t req, const Instance& inst, bool is_sig) {
    std::int64_t t = now_ns();
    const copath::cograph::CanonicalForm& form = inst.canonical();
    t = span(is_sig ? "canonical_sig" : "canonical_text", req, t);
    const svc::CacheKeyRef key = svc::make_cache_key(form, opts_);
    const std::shared_ptr<const SolveResult> hit = l1_.lookup(key);
    t = span("l1_lookup", req, t);
    if (hit) {
      SolveResult res = svc::remapped_from_canonical(*hit, form);
      span("l1_replay", req, t);
      return res;
    }
    if (l2_ != nullptr) {
      std::shared_ptr<const SolveResult> disk = l2_->lookup(key);
      t = span("l2_lookup", req, t);
      if (disk) {
        SolveResult res = svc::remapped_from_canonical(*disk, form);
        t = span("l1_replay", req, t);
        l1_.insert(key, std::move(disk));
        span("l1_insert", req, t);
        return res;
      }
    }
    // A text instance was parsed by canonical(); only signature bytes
    // still have a tree to build here.
    (void)inst.resolve();
    t = span(is_sig ? "resolve" : "resolved_text", req, t);
    SolveResult res = solver_.solve(inst, std::string(), opts_);
    t = span("solve", req, t);
    ++solves_;
    if (res.routed == copath::Backend::Native) ++routed_native_;
    if (!res.ok) return res;
    auto canonical =
        std::make_shared<const SolveResult>(svc::to_canonical_space(res, form));
    l1_.insert(key, canonical);
    t = span("l1_insert", req, t);
    if (l2_ != nullptr) {
      l2_->append(key, *canonical);
      span("l2_append", req, t);
    }
    return res;
  }

  /// Writes `body` into L2 the way a daemon's miss path does (untraced).
  void prefill(const Body& body) {
    const Instance inst = body.is_sig ? Instance::signature(body.bytes)
                                      : Instance::text(body.bytes);
    const SolveResult res = solver_.solve(inst, std::string(), opts_);
    COPATH_CHECK_MSG(res.ok, "perfbench: prefill solve failed");
    l2_->append(svc::make_cache_key(inst.canonical(), opts_),
                svc::to_canonical_space(res, inst.canonical()));
  }

  std::int64_t span(const char* name, std::uint64_t req, std::int64_t t0) {
    const std::int64_t t1 = now_ns();
    log_.add(name, req, t0, t1);
    return now_ns();
  }

  [[nodiscard]] double routed_native_share() const {
    return solves_ == 0 ? 0.0 : double(routed_native_) / double(solves_);
  }

 private:
  SpanLog& log_;
  svc::PersistCache* l2_;
  copath::SolveOptions opts_;
  copath::Solver solver_;
  svc::ResultCache l1_;
  std::uint64_t solves_ = 0;
  std::uint64_t routed_native_ = 0;
};

std::string check_item(const SolveResult& res, std::size_t n,
                       std::int64_t expected_paths) {
  if (!res.ok) return "solve failed: " + res.error;
  std::vector<std::vector<std::uint32_t>> paths;
  for (const auto& p : res.cover.paths) paths.emplace_back(p.begin(), p.end());
  return check_cover(paths, std::uint32_t(n), expected_paths);
}

std::string check_frame(const proto::Response& resp, const Frame& f) {
  if (!f.batch) return check_wire(resp.status, resp.result, f.bodies.front());
  if (resp.batch.size() != f.bodies.size()) return "replay batch size";
  for (std::size_t k = 0; k < f.bodies.size(); ++k) {
    std::string why =
        check_wire(resp.batch[k].status, resp.batch[k].result, f.bodies[k]);
    if (!why.empty()) return why;
  }
  return {};
}

}  // namespace

ReplayResult replay(const ReplaySpec& spec, SpanLog& log, Tally& tally) {
  std::unique_ptr<svc::PersistCache> l2;
  if (!spec.l2_dir.empty()) {
    std::filesystem::remove_all(spec.l2_dir);
    svc::PersistCache::Config cfg;
    cfg.dir = spec.l2_dir;
    l2 = std::make_unique<svc::PersistCache>(cfg);
  }
  Chain chain(log, l2.get());
  for (std::uint64_t r = 0; r < spec.l2_prefill_count; ++r) {
    chain.prefill(spec.l2_prefill(r));
  }

  const std::size_t first_span = log.spans().size();
  std::unordered_map<std::uint64_t, std::string> kind_of;  // request id
  std::vector<double> response_bytes;
  const std::uint64_t total = spec.warm_count + spec.count;
  for (std::uint64_t i = 0; i < total; ++i) {
    const Frame f = i < spec.warm_count ? spec.warm(i)
                                        : spec.frames(i - spec.warm_count);
    // The client's request bytes are input, not a layer.
    std::string wire;
    if (f.batch) {
      std::vector<proto::BatchItem> items;
      for (const Body& b : f.bodies) items.push_back({b.is_sig, b.bytes});
      proto::append_batch_request(wire, i + 1, {}, items);
    } else {
      proto::append_solve_request(wire,
                                  f.bodies.front().is_sig
                                      ? proto::Verb::SolveSignature
                                      : proto::Verb::SolveText,
                                  i + 1, {}, f.bodies.front().bytes);
    }
    const std::string_view payload =
        std::string_view(wire).substr(proto::kFrameHeaderBytes);

    ++tally.attempted;
    const std::int64_t start = now_ns();
    const std::uint64_t req = log.open("request", 0, start);
    kind_of[req] = f.batch ? "batch" : f.bodies.front().is_sig ? "sig" : "text";
    proto::Request rq;
    std::vector<proto::BatchItem> items;
    std::string why;
    bool parsed = proto::parse_request(payload, &rq);
    if (parsed && f.batch) {
      parsed = proto::parse_batch_body(rq.body, proto::kMaxBatchItems, &items,
                                       &why);
    }
    std::int64_t t = chain.span("parse_request", req, start);
    COPATH_CHECK_MSG(parsed, "perfbench: replay could not parse its frame");
    if (!f.batch) items.push_back({rq.verb == proto::Verb::SolveSignature,
                                   rq.body});

    // Byte-identical items inside one frame share one answer, as the
    // daemon's batch dedup does.
    std::vector<SolveResult> results;
    std::unordered_map<std::string_view, std::size_t> first_of;
    for (const proto::BatchItem& it : items) {
      const auto [pos, fresh] = first_of.emplace(it.body, results.size());
      if (!fresh) {
        SolveResult twin = results[pos->second];
        results.push_back(std::move(twin));
        continue;
      }
      const Instance inst = it.is_signature
                                ? Instance::signature(std::string(it.body))
                                : Instance::text(std::string(it.body));
      results.push_back(chain.item(req, inst, it.is_signature));
    }
    for (std::size_t k = 0; k < results.size(); ++k) {
      why = check_item(results[k], f.bodies[k].n, f.bodies[k].paths);
      if (!why.empty()) break;
    }

    t = now_ns();
    std::string out;
    if (f.batch) {
      std::vector<proto::BatchResponseEntry> entries;
      for (const SolveResult& r : results) {
        entries.push_back({proto::Status::Ok, &r, {}});
      }
      out = proto::encode_batch_response_frame(i + 1, entries);
    } else {
      out = proto::encode_solve_response_frame(i + 1, rq.verb,
                                               proto::Status::Ok,
                                               &results.front(), {});
    }
    t = chain.span("encode_response", req, t);
    proto::Response resp;
    const bool decoded = proto::parse_response(
        std::string_view(out).substr(proto::kFrameHeaderBytes), &resp);
    const std::int64_t end = now_ns();
    log.add("parse_response", req, t, end);
    log.close(req, end);
    response_bytes.push_back(double(out.size()));

    if (why.empty() && !decoded) why = "replay response undecodable";
    if (why.empty()) why = check_frame(resp, f);
    if (!why.empty()) tally.fail("replay: " + why, true);
  }

  // Self times per span name, and the summed self time per request kind.
  ReplayResult out;
  const std::vector<double> self = log.self_ns();
  std::map<std::string, std::vector<double>> by_name;
  std::unordered_map<std::uint64_t, double> per_request;
  for (std::size_t i = first_span; i < log.spans().size(); ++i) {
    const Span& s = log.spans()[i];
    const std::uint64_t req = s.parent == 0 ? s.id : s.parent;
    per_request[req] += self[i] / 1e3;
    if (s.parent != 0) by_name[s.name].push_back(self[i] / 1e3);
  }
  for (auto& [name, v] : by_name) out.self_us[name] = median(std::move(v));
  std::map<std::string, std::vector<double>> by_kind;
  for (const auto& [req, us] : per_request) by_kind[kind_of[req]].push_back(us);
  for (auto& [kind, v] : by_kind) out.request_us[kind] = median(std::move(v));
  out.response_bytes = median(std::move(response_bytes));
  out.routed_native_share = chain.routed_native_share();
  if (!spec.l2_dir.empty()) {
    l2.reset();
    std::filesystem::remove_all(spec.l2_dir);
  }
  return out;
}

OverCapResult probe_l2_over_cap(
    const std::string& dir, const std::function<Body(std::uint64_t)>& bodies,
    std::uint64_t body_count, std::uint64_t count, Tally& tally) {
  std::filesystem::remove_all(dir);
  const svc::PersistCache::Config full;
  svc::PersistCache::Config cfg;
  cfg.dir = dir;
  cfg.max_log_bytes = full.max_log_bytes / kOverCapScale;
  cfg.index_slots = full.index_slots / kOverCapScale;
  const copath::SolveOptions opts = daemon_solve_options();
  copath::Solver solver;
  std::vector<double> us;
  OverCapResult out;
  {
    svc::PersistCache l2(cfg);
    for (std::uint64_t i = 0; i < body_count && us.size() <= count; ++i) {
      const Body body = bodies(i);
      const Instance inst = body.is_sig ? Instance::signature(body.bytes)
                                        : Instance::text(body.bytes);
      const SolveResult res = solver.solve(inst, std::string(), opts);
      ++tally.attempted;
      const std::string why = check_item(res, body.n, body.paths);
      if (!why.empty()) {
        tally.fail("over-cap: " + why, true);
        continue;
      }
      const SolveResult canonical =
          svc::to_canonical_space(res, inst.canonical());
      const svc::CacheKeyRef key = svc::make_cache_key(inst.canonical(), opts);
      const std::int64_t t0 = now_ns();
      l2.append(key, canonical);
      const double took_us = double(now_ns() - t0) / 1e3;
      if (!us.empty() || l2.stats().compactions > 0) us.push_back(took_us);
    }
    COPATH_CHECK_MSG(us.size() > count,
                     "perfbench: over-cap probe never filled its L2");
    out.compactions = double(l2.stats().compactions);
  }
  out.append_us_p50 = median(us);
  out.append_ms_max = *std::max_element(us.begin(), us.end()) / 1e3;
  std::filesystem::remove_all(dir);
  return out;
}

ProbeResult probe_engines(const ProbeSet& set, int reps, Tally& tally) {
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  using copath::Backend;
  const auto time_with = [&](Backend b, std::size_t workers) {
    copath::SolveOptions o;
    o.backend = b;
    o.workers = workers;
    o.compute_verdicts = false;
    const copath::Solver solver(o);
    std::vector<double> ms;
    for (std::size_t i = 0; i < set.trees.size(); ++i) {
      const Instance inst = Instance::view(set.trees[i]);
      for (int r = 0; r < reps; ++r) {
        ++tally.attempted;
        const SolveResult res = solver.solve(inst);
        std::string why = check_item(res, set.trees[i].vertex_count(),
                                     set.paths[i]);
        if (!why.empty()) tally.fail("probe: " + why, res.ok);
        ms.push_back(res.wall_ms);
      }
    }
    return median(std::move(ms));
  };
  ProbeResult p;
  p.native_ms = time_with(Backend::Native, nproc);
  p.native_w1_ms = time_with(Backend::Native, 1);
  p.sequential_ms = time_with(Backend::Sequential, 1);

  copath::SolveOptions o;
  o.backend = Backend::Native;
  o.workers = nproc;
  o.collect_trace = true;
  const SolveResult res =
      copath::Solver(o).solve(Instance::view(set.trees.front()));
  COPATH_CHECK_MSG(res.ok && res.trace_valid, "perfbench: traced solve failed");
  for (const auto& [name, steps, work] : res.trace.stages) {
    const std::string key = name.substr(0, name.find(':'));
    p.stage_steps[key] += double(steps);
    p.stage_work[key] += double(work);
  }
  p.repair_rounds = double(res.trace.repair_rounds);
  return p;
}

}  // namespace perfbench
