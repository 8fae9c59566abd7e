// The source-bytes memo (service/source_memo.hpp) and its use in
// Service::process: repeated text and signature bytes skip parse,
// canonicalize and signature decode, and every answer stays bitwise-equal
// to the memo-less path — the uncached Solver for repeated bytes, and the
// L1 replay through the twin's own canonical form for permuted/relabeled
// twins. Also pinned: admission only on an L1 hit (cold and L2-only
// traffic stores nothing), invalid bytes never admitted, the LRU byte
// budget, CacheCompact clearing the memo, and a 4-thread hammer.
//
// Every suite name starts with SourceMemo so the CI TSan job picks the
// whole file up with one regex token.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "copath.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/source_memo.hpp"
#include "testing.hpp"
#include "util/rng.hpp"

namespace copath {
namespace {

using cograph::CanonicalForm;
using cograph::Cotree;
using service::SourceMemo;

void expect_equal_core(const SolveResult& got, const SolveResult& want,
                       const std::string& what) {
  ASSERT_EQ(got.ok, want.ok) << what << ": " << got.error;
  EXPECT_EQ(got.backend, want.backend) << what;
  EXPECT_EQ(got.routed, want.routed) << what;
  EXPECT_EQ(got.vertex_count, want.vertex_count) << what;
  EXPECT_EQ(got.cover.paths, want.cover.paths) << what;
  EXPECT_EQ(got.optimal_size, want.optimal_size) << what;
  EXPECT_EQ(got.minimum, want.minimum) << what;
  EXPECT_EQ(got.hamiltonian_path, want.hamiltonian_path) << what;
  EXPECT_EQ(got.hamiltonian_cycle, want.hamiltonian_cycle) << what;
  EXPECT_EQ(got.cycle, want.cycle) << what;
}

/// A text or signature instance from its bytes.
Instance from_bytes(bool is_signature, const std::string& bytes) {
  return is_signature ? Instance::signature(bytes) : Instance::text(bytes);
}

SolveResult submit(Service& svc, Instance inst, const std::string& label) {
  return svc.submit(SolveRequest{std::move(inst), {}, label}).get();
}

/// The canonical form of `t` as Instance::canonical() builds it.
CanonicalForm serving_form(const Cotree& t) {
  return cograph::canonical_form(t, /*with_algebra_key=*/false);
}

// ----------------------------------------------------------- differential

TEST(SourceMemoDifferential, RepeatedTextAndSignatureBytesMatchUncachedBitwise) {
  Service::Options sopts;
  sopts.workers = 2;
  Service svc(sopts);
  const Solver uncached(sopts.solve);
  // Text and signature sources are distinct classes (even and odd sizes):
  // a class reached through two presentations replays one presentation's
  // answer through the other's form, which is isomorphic, not bitwise.
  std::vector<std::pair<bool, std::string>> sources;
  for (unsigned i = 0; i < 24; ++i) {
    const std::size_t n = 4 + 2 * ((i * 13) % 75);
    sources.emplace_back(false,
                         testing::random_cotree(n, 31000 + i).format());
    sources.emplace_back(
        true, serving_form(testing::random_cotree(n + 1, 32000 + i)).signature);
  }
  // Round 0 solves, round 1 hits L1 and admits, rounds 2-3 hit the memo.
  for (unsigned round = 0; round < 4; ++round) {
    std::vector<std::future<SolveResult>> futs;
    for (const auto& [is_sig, bytes] : sources) {
      futs.push_back(svc.submit(
          SolveRequest{from_bytes(is_sig, bytes), {}, "r"}));
    }
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const auto& [is_sig, bytes] = sources[i];
      const SolveResult want = uncached.solve(from_bytes(is_sig, bytes));
      const SolveResult got = futs[i].get();
      expect_equal_core(got, want,
                        "round " + std::to_string(round) + " source " +
                            std::to_string(i));
      EXPECT_EQ(got.label, "r");
    }
  }
  const Service::Stats s = svc.stats();
  EXPECT_EQ(s.source_memo.hits + s.source_memo.misses, 4 * sources.size());
  EXPECT_GE(s.source_memo.hits, 2 * sources.size());
  EXPECT_LE(s.source_memo.entries, sources.size());
  EXPECT_GT(s.source_memo.bytes, 0u);
}

TEST(SourceMemoDifferential, TwinsWithOtherBytesReplayThroughTheirOwnForm) {
  // Permuted and relabeled twins share the base's L1 entry but not its
  // bytes: each gets its own memo entry, and a memo hit replays exactly
  // what the memo-less path (L1 replay through the twin's own form)
  // produces.
  util::Rng rng(2718);
  Service::Options sopts;
  sopts.workers = 2;
  Service svc(sopts);
  const Solver uncached(sopts.solve);
  for (unsigned i = 0; i < 30; ++i) {
    const Cotree base = testing::random_cotree(4 + (i * 7) % 90, 41000 + i);
    const Cotree twin = testing::random_twin(base, rng);
    const std::string base_text = base.format();
    const std::string twin_text = twin.format();
    if (twin_text == base_text) continue;

    const Instance base_inst = Instance::text(base_text);
    const SolveResult stored = service::to_canonical_space(
        uncached.solve(base_inst), base_inst.canonical());
    const Instance twin_inst = Instance::text(twin_text);
    const SolveResult want =
        service::remapped_from_canonical(stored, twin_inst.canonical());

    for (int k = 0; k < 3; ++k) {
      (void)submit(svc, Instance::text(base_text), "base");
    }
    for (int k = 0; k < 3; ++k) {
      const SolveResult got = submit(svc, Instance::text(twin_text), "twin");
      expect_equal_core(got, want, "twin " + std::to_string(i));
      const auto report = validate_path_cover(
          Cotree::parse(twin_text), got.cover, /*require_minimum=*/true);
      EXPECT_TRUE(report.ok) << i << ": " << report.error;
    }
  }
  const Service::Stats s = svc.stats();
  // Per pair: base miss, miss+admit, hit; twin miss+admit, hit, hit.
  EXPECT_GE(s.source_memo.hits, 3u * 20u);
}

TEST(SourceMemoDifferential, MemoHitWhoseL1EntryWasEvictedSolvesAgainExactly) {
  // A one-entry L1: the memo outlives the L1 entry its form was admitted
  // on, so the next repeat is a memo hit AND an L1 miss. The miss path
  // resolves the instance itself and stores through the memo's form —
  // the answer and the re-stored entry must match the uncached solve.
  Service::Options sopts;
  sopts.workers = 1;
  sopts.cache.shards = 1;
  sopts.cache.capacity = 1;
  Service svc(sopts);
  const Solver uncached(sopts.solve);
  for (const bool is_sig : {false, true}) {
    const Cotree a = testing::random_cotree(60 + 2 * is_sig, 51001 + is_sig);
    const Cotree b = testing::random_cotree(61 + 2 * is_sig, 51003 + is_sig);
    const std::string a_bytes = is_sig ? serving_form(a).signature : a.format();
    const std::string b_bytes = is_sig ? serving_form(b).signature : b.format();
    const SolveResult want_a = uncached.solve(from_bytes(is_sig, a_bytes));
    const SolveResult want_b = uncached.solve(from_bytes(is_sig, b_bytes));
    // Each: solve, then L1 hit + admit.
    for (int k = 0; k < 2; ++k) {
      expect_equal_core(submit(svc, from_bytes(is_sig, a_bytes), "a"), want_a,
                        "warm a");
    }
    for (int k = 0; k < 2; ++k) {
      expect_equal_core(submit(svc, from_bytes(is_sig, b_bytes), "b"), want_b,
                        "warm b");
    }
    const Service::Stats before = svc.stats();
    // b's insert evicted a from L1, but a's bytes are still memoized: each
    // request below is a memo hit AND an L1 miss that evicts the other.
    for (int k = 0; k < 2; ++k) {
      expect_equal_core(submit(svc, from_bytes(is_sig, a_bytes), "a"), want_a,
                        "evicted a");
      expect_equal_core(submit(svc, from_bytes(is_sig, b_bytes), "b"), want_b,
                        "evicted b");
    }
    const Service::Stats after = svc.stats();
    EXPECT_EQ(after.source_memo.hits - before.source_memo.hits, 4u);
    EXPECT_EQ(after.cache_misses - before.cache_misses, 4u);
    EXPECT_GT(after.cache.evictions, before.cache.evictions);
  }
}

// -------------------------------------------------------------- admission

TEST(SourceMemoAdmission, AnL1MissInsertsNothing) {
  Service::Options sopts;
  sopts.workers = 2;
  Service svc(sopts);
  for (unsigned i = 0; i < 20; ++i) {
    const Cotree t = testing::random_cotree(20 + i, 52000 + i);
    ASSERT_TRUE(submit(svc, Instance::text(t.format()), "t").ok);
    ASSERT_TRUE(submit(svc, Instance::signature(serving_form(t).signature),
                       "s")
                    .ok);
  }
  const Service::Stats s = svc.stats();
  EXPECT_EQ(s.source_memo.misses, 40u);
  EXPECT_EQ(s.source_memo.hits, 0u);
  // The signature of each tree hits the L1 entry its text just stored —
  // so those ARE admitted; the texts (all L1 misses) are not.
  EXPECT_EQ(s.source_memo.entries, s.cache_hits);
  EXPECT_EQ(s.cache_misses + s.cache_hits, 40u);
}

TEST(SourceMemoAdmission, L2OnlyRestartHitsInsertNothing) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "copath_memo_XXXXXX").string();
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  std::vector<std::string> texts;
  for (unsigned i = 0; i < 12; ++i) {
    texts.push_back(testing::random_cotree(30 + i, 53000 + i).format());
  }
  Service::Options sopts;
  sopts.workers = 1;
  sopts.persist.dir = dir;
  {
    Service writer(sopts);
    for (const auto& t : texts) ASSERT_TRUE(submit(writer, Instance::text(t), "w").ok);
  }
  {
    Service restarted(sopts);
    for (const auto& t : texts) {
      ASSERT_TRUE(submit(restarted, Instance::text(t), "r").ok);
    }
    const Service::Stats s = restarted.stats();
    EXPECT_EQ(s.persist_promotions, texts.size());
    EXPECT_EQ(s.source_memo.entries, 0u);
    EXPECT_EQ(s.source_memo.misses, texts.size());
  }
  std::filesystem::remove_all(dir);
}

TEST(SourceMemoAdmission, InvalidSignaturesAndTextsAreNeverAdmitted) {
  Service::Options sopts;
  sopts.workers = 2;
  Service svc(sopts);
  const std::string truncated =
      serving_form(testing::random_cotree(40, 54000)).signature.substr(0, 7);
  const std::vector<std::pair<bool, std::string>> bad = {
      {true, truncated},
      {true, std::string("\x01\x05", 2)},
      {true, std::string(1, cograph::kSigJoin)},
      {true, ""},
      {false, "(* broken"},
      {false, "(+ a b))"},
  };
  for (int round = 0; round < 3; ++round) {
    for (const auto& [is_sig, bytes] : bad) {
      const SolveResult r = submit(svc, from_bytes(is_sig, bytes), "bad");
      EXPECT_FALSE(r.ok) << bytes;
      EXPECT_FALSE(r.error.empty());
    }
  }
  const Service::Stats s = svc.stats();
  EXPECT_EQ(s.source_memo.entries, 0u);
  EXPECT_EQ(s.source_memo.hits, 0u);
  EXPECT_EQ(s.source_memo.bytes, 0u);
}

// ------------------------------------------------------------ the budget

TEST(SourceMemoBudget, LruEvictsAtTheByteBudget) {
  std::vector<std::string> texts;
  std::vector<CanonicalForm> forms;
  for (unsigned i = 0; i < 5; ++i) {
    // Near-equal sizes: any three fit a budget of three times the
    // largest cost, four do not.
    texts.push_back(cograph::clique(40 + i).format());
    forms.push_back(serving_form(Cotree::parse(texts.back())));
  }
  std::size_t cost = 0;
  for (std::size_t i = 0; i < texts.size(); ++i) {
    cost = std::max(cost, SourceMemo::entry_cost(texts[i], forms[i]));
  }
  SourceMemo memo(3 * cost);
  for (std::size_t i = 0; i < 3; ++i) memo.admit(false, texts[i], forms[i]);
  EXPECT_EQ(memo.stats().entries, 3u);
  ASSERT_NE(memo.find(false, texts[0]), nullptr);  // 0 is now most recent

  memo.admit(false, texts[3], forms[3]);  // evicts the coldest: 1
  EXPECT_EQ(memo.stats().entries, 3u);
  EXPECT_LE(memo.stats().bytes, 3 * cost);
  EXPECT_EQ(memo.find(false, texts[1]), nullptr);
  ASSERT_NE(memo.find(false, texts[0]), nullptr);
  ASSERT_NE(memo.find(false, texts[2]), nullptr);
  const auto got = memo.find(false, texts[3]);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->signature, forms[3].signature);
  EXPECT_EQ(got->from_canonical, forms[3].from_canonical);

  // Same bytes under the other kind are a different entry.
  EXPECT_EQ(memo.find(true, texts[3]), nullptr);

  // An entry larger than the whole budget is refused, not thrashed in.
  SourceMemo tiny(cost / 2);
  tiny.admit(false, texts[0], forms[0]);
  EXPECT_EQ(tiny.stats().entries, 0u);
  EXPECT_EQ(tiny.stats().bytes, 0u);
}

TEST(SourceMemoBudget, RepeatedBytesSkipTheArenaFrontEnd) {
  // Once admitted, a repeat of the same bytes replays from L1 without
  // parsing or canonicalizing: the worker's arena is not touched at all.
  Service::Options sopts;
  sopts.workers = 1;
  Service svc(sopts);
  std::vector<std::string> texts;
  for (unsigned i = 0; i < 6; ++i) {
    texts.push_back(testing::random_cotree(50 + i * 31, 55000 + i).format());
  }
  const auto round = [&] {
    for (const auto& t : texts) ASSERT_TRUE(submit(svc, Instance::text(t), "").ok);
  };
  round();  // solve
  round();  // L1 hit + admit
  round();  // memo hits; fences the arena aggregation of the rounds above
  const Service::Stats warm = svc.stats();
  for (int r = 0; r < 4; ++r) round();
  const Service::Stats after = svc.stats();
  EXPECT_EQ(after.source_memo.hits - warm.source_memo.hits, 4 * texts.size());
  EXPECT_EQ(after.arena_acquires, warm.arena_acquires);
  EXPECT_EQ(after.arena_fresh_allocs, warm.arena_fresh_allocs);
  EXPECT_EQ(after.cache_hits - warm.cache_hits, 4 * texts.size());
}

// ---------------------------------------------------------------- compact

TEST(SourceMemoCompact, CacheCompactClearsTheMemoOverTheWire) {
  net::Server::Options opts;
  opts.port = 0;
  opts.service.workers = 2;
  auto server = std::make_unique<net::Server>(std::move(opts));
  std::thread loop([&server] { server->run(); });
  const auto counter = [](const net::protocol::Response& r,
                          std::string_view name) -> std::uint64_t {
    for (const auto& [k, v] : r.stats) {
      if (k == name) return v;
    }
    ADD_FAILURE() << "no counter " << name;
    return 0;
  };
  {
    net::Client cli("127.0.0.1", server->port());
    const Cotree t = testing::random_cotree(80, 56000);
    const std::string text = t.format();
    const std::string sig = serving_form(t).signature;
    for (int k = 0; k < 3; ++k) {
      ASSERT_EQ(cli.solve_text(text).status, net::protocol::Status::Ok);
      ASSERT_EQ(cli.solve_signature(sig).status, net::protocol::Status::Ok);
    }
    auto st = cli.stats();
    EXPECT_EQ(counter(st, "source_memo_entries"), 2u);
    EXPECT_GE(counter(st, "source_memo_hits"), 3u);
    EXPECT_EQ(counter(st, "source_memo_hits") +
                  counter(st, "source_memo_misses"),
              6u);
    EXPECT_GT(counter(st, "source_memo_bytes"), 0u);

    ASSERT_EQ(cli.compact().status, net::protocol::Status::Ok);
    st = cli.stats();
    EXPECT_EQ(counter(st, "source_memo_entries"), 0u);
    EXPECT_EQ(counter(st, "source_memo_bytes"), 0u);
    EXPECT_EQ(counter(st, "source_memo_hits"), 0u);

    // After the clear the bytes are re-learned: miss (L1 was cleared too,
    // so no admission), then miss + admit, then hit.
    for (int k = 0; k < 3; ++k) {
      ASSERT_EQ(cli.solve_text(text).status, net::protocol::Status::Ok);
    }
    st = cli.stats();
    EXPECT_EQ(counter(st, "source_memo_entries"), 1u);
    EXPECT_EQ(counter(st, "source_memo_hits"), 1u);
  }
  server->request_drain();
  loop.join();
}

// ----------------------------------------------------------------- hammer

TEST(SourceMemoHammer, FourThreadsOfRepeatsStayBitwiseEqual) {
  Service::Options sopts;
  sopts.workers = 4;
  Service svc(sopts);
  const Solver uncached(sopts.solve);
  // One presentation per class (see the first differential), so every
  // answer is bitwise-determined by its bytes.
  std::vector<std::pair<bool, std::string>> sources;
  std::vector<SolveResult> want;
  for (unsigned i = 0; i < 8; ++i) {
    sources.emplace_back(
        false, testing::random_cotree(30 + i * 17, 57000 + i).format());
    sources.emplace_back(
        true,
        serving_form(testing::random_cotree(31 + i * 17, 58000 + i)).signature);
  }
  for (const auto& [is_sig, bytes] : sources) {
    want.push_back(uncached.solve(from_bytes(is_sig, bytes)));
  }
  constexpr unsigned kPerThread = 150;
  std::atomic<unsigned> mismatches{0};
  std::vector<std::thread> threads;
  for (unsigned th = 0; th < 4; ++th) {
    threads.emplace_back([&, th] {
      for (unsigned k = 0; k < kPerThread; ++k) {
        const std::size_t i = (k * 7 + th * 3) % sources.size();
        const SolveResult got = svc.submit(SolveRequest{
            from_bytes(sources[i].first, sources[i].second), {}, "h"}).get();
        if (!got.ok || got.cover.paths != want[i].cover.paths ||
            got.optimal_size != want[i].optimal_size ||
            got.vertex_count != want[i].vertex_count) {
          mismatches.fetch_add(1);
        }
        // A compaction mid-traffic must never strand or corrupt a request.
        if (th == 0 && k == kPerThread / 2) (void)svc.compact_caches();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const Service::Stats s = svc.stats();
  EXPECT_LE(s.source_memo.entries, sources.size());
  EXPECT_GT(s.source_memo.hits, 0u);

  // The memo alone under concurrent find/admit/clear on a tight budget.
  SourceMemo memo(4 * SourceMemo::entry_cost(
                          sources[0].second,
                          serving_form(Cotree::parse(sources[0].second))));
  std::vector<CanonicalForm> forms;
  for (unsigned i = 0; i < 8; ++i) {
    forms.push_back(serving_form(Cotree::parse(sources[2 * i].second)));
  }
  std::vector<std::thread> raw;
  for (unsigned th = 0; th < 4; ++th) {
    raw.emplace_back([&, th] {
      for (unsigned k = 0; k < 2000; ++k) {
        const std::size_t i = (k + th) % forms.size();
        const std::string& text = sources[2 * i].second;
        if (const auto f = memo.find(false, text)) {
          if (f->signature != forms[i].signature) mismatches.fetch_add(1);
        } else {
          memo.admit(false, text, forms[i]);
        }
        if (th == 3 && k % 500 == 0) memo.clear();
      }
    });
  }
  for (auto& t : raw) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace copath
