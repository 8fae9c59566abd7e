// The persistent L2 result cache (service/persist_cache.hpp): OptionsKey
// byte-stability (the 24 raw key bytes ARE the on-disk format), write /
// lookup / reopen round trips through the record codec, crash-safety
// (torn tails, bit flips, garbage headers, lost indexes — every corruption
// degrades to a cold miss, never to a crash or a wrong answer), and the
// multi-process contract: two Services over one cache directory serve
// permuted twins written by the other instance bitwise-identical to their
// own RAM-warm hits, plus the copathd admin surface (l2_* Stats counters,
// the CacheCompact verb, and the L1 clear()-resets-counters regression).
//
// Every suite name starts with PersistCache so the CI TSan job picks the
// whole file up with one regex token.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "copath.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/persist_cache.hpp"
#include "testing.hpp"
#include "util/rng.hpp"

namespace copath {
namespace {

namespace proto = net::protocol;

/// A fresh cache directory under TMPDIR, recursively removed on exit.
struct TempDir {
  TempDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "copath_l2_XXXXXX")
                           .string();
    char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  [[nodiscard]] std::string file(const char* name) const {
    return path + "/" + name;
  }
  std::string path;
};

std::string read_file(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << p;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void write_file(const std::string& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  EXPECT_TRUE(out.good()) << p;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

service::PersistCache::Config small_cfg(const std::string& dir) {
  service::PersistCache::Config cfg;
  cfg.dir = dir;
  cfg.index_slots = 256;
  return cfg;
}

/// A real canonical-space result for `t` (what Service::process stores).
SolveResult canonical_result(const Cotree& t, const SolveOptions& opts) {
  const Instance inst = Instance::view(t);
  const Solver solver(opts);
  SolveResult res = solver.solve(inst);
  EXPECT_TRUE(res.ok) << res.error;
  return service::to_canonical_space(std::move(res),
                                     inst.canonical());
}

/// Field-by-field equality over everything the record codec carries —
/// the "bitwise identical" acceptance check for disk round trips.
void expect_result_exact(const SolveResult& got, const SolveResult& want,
                         const std::string& what) {
  ASSERT_EQ(got.ok, want.ok) << what << ": " << got.error;
  EXPECT_EQ(got.error, want.error) << what;
  EXPECT_EQ(got.label, want.label) << what;
  EXPECT_EQ(got.backend, want.backend) << what;
  EXPECT_EQ(got.routed, want.routed) << what;
  EXPECT_EQ(got.vertex_count, want.vertex_count) << what;
  EXPECT_EQ(got.cover.paths, want.cover.paths) << what;
  EXPECT_EQ(got.optimal_size, want.optimal_size) << what;
  EXPECT_EQ(got.minimum, want.minimum) << what;
  EXPECT_EQ(got.hamiltonian_path, want.hamiltonian_path) << what;
  EXPECT_EQ(got.hamiltonian_cycle, want.hamiltonian_cycle) << what;
  EXPECT_EQ(got.cycle, want.cycle) << what;
  ASSERT_EQ(got.stats_valid, want.stats_valid) << what;
  if (want.stats_valid) {
    EXPECT_EQ(got.stats.steps, want.stats.steps) << what;
    EXPECT_EQ(got.stats.work, want.stats.work) << what;
    EXPECT_EQ(got.stats.max_processors, want.stats.max_processors) << what;
    EXPECT_EQ(got.stats.reads, want.stats.reads) << what;
    EXPECT_EQ(got.stats.writes, want.stats.writes) << what;
    EXPECT_EQ(got.stats.cells, want.stats.cells) << what;
  }
  ASSERT_EQ(got.trace_valid, want.trace_valid) << what;
  if (want.trace_valid) {
    EXPECT_EQ(got.trace.bracket_length, want.trace.bracket_length) << what;
    EXPECT_EQ(got.trace.dummy_count, want.trace.dummy_count) << what;
    EXPECT_EQ(got.trace.repair_rounds, want.trace.repair_rounds) << what;
    EXPECT_EQ(got.trace.path_count, want.trace.path_count) << what;
    EXPECT_EQ(got.trace.stages, want.trace.stages) << what;
  }
  EXPECT_EQ(got.validation.ok, want.validation.ok) << what;
  EXPECT_EQ(got.validation.error, want.validation.error) << what;
}

std::uint64_t counter(const proto::Response& resp, std::string_view key) {
  for (const auto& [k, v] : resp.stats) {
    if (k == key) return v;
  }
  ADD_FAILURE() << "counter not in response: " << key;
  return 0;
}

// ---------------------------------------------------------- OptionsKey

TEST(PersistCacheOptionsKey, PadBytesAreZeroEvenOnDirtyMemory) {
  // OptionsKey is memcmp'd and hashed from raw bytes (and memcmp'd
  // straight out of mmap'd records), so two keys built from equivalent
  // SolveOptions must be byte-identical even when the destination memory
  // was dirty. options_key() memsets before filling; the explicit `pad`
  // member makes the tail representation-unique.
  SolveOptions opts;
  opts.want_hamiltonian_cycle = true;
  opts.processors = 7;

  alignas(service::OptionsKey) unsigned char a[sizeof(service::OptionsKey)];
  alignas(service::OptionsKey) unsigned char b[sizeof(service::OptionsKey)];
  std::memset(a, 0xFF, sizeof(a));
  std::memset(b, 0xA5, sizeof(b));
  auto* ka = new (a) service::OptionsKey(service::options_key(opts));
  auto* kb = new (b) service::OptionsKey(service::options_key(opts));
  EXPECT_EQ(std::memcmp(ka, kb, sizeof(service::OptionsKey)), 0);
  // The four explicit pad bytes sit at the end of the 24-byte layout and
  // must read back zero through the raw-byte view.
  const auto* raw = reinterpret_cast<const unsigned char*>(ka);
  for (std::size_t i = sizeof(service::OptionsKey) - 4;
       i < sizeof(service::OptionsKey); ++i) {
    EXPECT_EQ(raw[i], 0u) << "pad byte " << i;
  }
  ka->~OptionsKey();
  kb->~OptionsKey();
}

TEST(PersistCacheOptionsKey, KeyBytesRoundTripThroughTheL2RecordFormat) {
  // Two keys sharing a signature but differing only in options must land
  // in — and be found from — distinct on-disk records: the 24 raw key
  // bytes embedded in each record are the discriminator.
  TempDir dir;
  service::PersistCache cache(small_cfg(dir.path));

  const Cotree t = cograph::clique(12);  // Hamiltonian: the two options
                                         // provably differ in output
  const auto form = canonical_form(t);
  SolveOptions plain;
  SolveOptions cycle;
  cycle.want_hamiltonian_cycle = true;

  const SolveResult plain_res = canonical_result(t, plain);
  const SolveResult cycle_res = canonical_result(t, cycle);
  ASSERT_NE(plain_res.cycle.has_value(), cycle_res.cycle.has_value());

  cache.append(service::make_cache_key(form, plain), plain_res);
  cache.append(service::make_cache_key(form, cycle), cycle_res);

  const auto got_plain = cache.lookup(service::make_cache_key(form, plain));
  const auto got_cycle = cache.lookup(service::make_cache_key(form, cycle));
  ASSERT_NE(got_plain, nullptr);
  ASSERT_NE(got_cycle, nullptr);
  expect_result_exact(*got_plain, plain_res, "plain options");
  expect_result_exact(*got_cycle, cycle_res, "cycle options");
}

// ------------------------------------------------------------ Unit tier

TEST(PersistCache, MissAppendHitAndReopenHitAreExact) {
  TempDir dir;
  const Cotree t = testing::random_cotree(40, 7001);
  const auto form = canonical_form(t);
  const SolveOptions opts;
  const SolveResult canon = canonical_result(t, opts);

  {
    service::PersistCache cache(small_cfg(dir.path));
    EXPECT_EQ(cache.lookup(service::make_cache_key(form, opts)), nullptr);
    cache.append(service::make_cache_key(form, opts), canon);
    const auto hit = cache.lookup(service::make_cache_key(form, opts));
    ASSERT_NE(hit, nullptr);
    expect_result_exact(*hit, canon, "same-process hit");
    const auto s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.appends, 1u);
    EXPECT_EQ(s.records, 1u);
  }
  // A fresh instance over the same directory — the restart case — must
  // serve the identical bytes.
  service::PersistCache reopened(small_cfg(dir.path));
  EXPECT_EQ(reopened.stats().records, 1u);
  const auto hit = reopened.lookup(service::make_cache_key(form, opts));
  ASSERT_NE(hit, nullptr);
  expect_result_exact(*hit, canon, "reopen hit");

  // Different result-affecting options: a clean miss, not a collision.
  SolveOptions other;
  other.want_hamiltonian_cycle = true;
  EXPECT_EQ(reopened.lookup(service::make_cache_key(form, other)), nullptr);
}

TEST(PersistCache, AppendDeduplicatesAgainstDisk) {
  TempDir dir;
  service::PersistCache cache(small_cfg(dir.path));
  const Cotree t = testing::random_cotree(16, 88);
  const auto form = canonical_form(t);
  const SolveOptions opts;
  const SolveResult canon = canonical_result(t, opts);

  cache.append(service::make_cache_key(form, opts), canon);
  const std::uint64_t bytes_after_first = cache.stats().log_bytes;
  cache.append(service::make_cache_key(form, opts), canon);
  const auto s = cache.stats();
  EXPECT_EQ(s.appends, 1u);
  EXPECT_EQ(s.append_dups, 1u);
  EXPECT_EQ(s.records, 1u);
  EXPECT_EQ(s.log_bytes, bytes_after_first);  // nothing written twice
}

TEST(PersistCache, CompactKeepsEveryLiveRecordReachable) {
  TempDir dir;
  service::PersistCache cache(small_cfg(dir.path));
  const SolveOptions opts;
  std::vector<Cotree> trees;
  std::vector<SolveResult> canons;
  for (unsigned i = 0; i < 6; ++i) {
    trees.push_back(testing::random_cotree(4 + i * 7, 5100 + i));
    canons.push_back(canonical_result(trees.back(), opts));
    cache.append(
        service::make_cache_key(canonical_form(trees[i]), opts),
        canons.back());
  }

  const auto report = cache.compact();
  EXPECT_EQ(report.live_records, 6u);
  EXPECT_EQ(report.dropped_records, 0u);
  EXPECT_GT(report.bytes_after, 0u);
  EXPECT_EQ(cache.stats().compactions, 1u);

  for (unsigned i = 0; i < trees.size(); ++i) {
    const auto form = canonical_form(trees[i]);
    const auto hit = cache.lookup(service::make_cache_key(form, opts));
    ASSERT_NE(hit, nullptr) << "record " << i << " lost by compaction";
    expect_result_exact(*hit, canons[i], "post-compact record");
  }

  // A second process-equivalent opened AFTER compaction reads the new
  // generation directly.
  service::PersistCache fresh(small_cfg(dir.path));
  EXPECT_EQ(fresh.stats().records, 6u);
}

TEST(PersistCache, CompactionHonorsTheCapDroppingColdestFirst) {
  // The LRU half of compaction: when the live records alone exceed
  // max_log_bytes, the coldest (oldest last-access stamp) go first and
  // recently-touched keys survive. Lookups re-stamp records in place, so
  // "recently touched" is a property of reads, not writes.
  TempDir dir;
  const SolveOptions opts;
  std::vector<Cotree> trees;
  std::vector<SolveResult> canons;
  std::uint64_t full_bytes = 0;
  {
    service::PersistCache cache(small_cfg(dir.path));  // default (huge) cap
    for (unsigned i = 0; i < 8; ++i) {
      trees.push_back(testing::random_cotree(24 + i, 6400 + i));
      canons.push_back(canonical_result(trees.back(), opts));
      cache.append(service::make_cache_key(canonical_form(trees[i]), opts),
                   canons.back());
    }
    full_bytes = cache.stats().log_bytes;

    // Cross a wall-clock second so the touches below get a NEWER stamp
    // than the appends (the stamp is second-granular).
    const auto start = std::time(nullptr);
    while (std::time(nullptr) == start) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    for (unsigned i : {2u, 5u, 7u}) {
      ASSERT_NE(cache.lookup(
                    service::make_cache_key(canonical_form(trees[i]), opts)),
                nullptr);
    }
  }

  // Reopen with a cap that cannot hold all 8: compaction must evict, and
  // must pick the untouched (colder) records.
  service::PersistCache::Config tight = small_cfg(dir.path);
  tight.max_log_bytes = full_bytes / 2;
  service::PersistCache cache(tight);
  const auto report = cache.compact();
  EXPECT_GT(report.lru_dropped, 0u);
  EXPECT_GE(report.dropped_records, report.lru_dropped);
  EXPECT_LE(report.bytes_after, tight.max_log_bytes);
  EXPECT_LT(report.bytes_after, report.bytes_before);

  // Every touched key survived; the evicted ones degrade to clean misses.
  for (unsigned i : {2u, 5u, 7u}) {
    const auto hit = cache.lookup(
        service::make_cache_key(canonical_form(trees[i]), opts));
    ASSERT_NE(hit, nullptr) << "touched record " << i << " evicted";
    expect_result_exact(*hit, canons[i], "LRU survivor");
  }
  std::size_t evicted = 0;
  for (unsigned i : {0u, 1u, 3u, 4u, 6u}) {
    if (cache.lookup(service::make_cache_key(canonical_form(trees[i]),
                                             opts)) == nullptr) {
      ++evicted;
    }
  }
  EXPECT_EQ(evicted, report.lru_dropped);
  EXPECT_GE(evicted, 1u);
}

TEST(PersistCache, AppendsPastTheCapKeepLandingWithoutACompactionStorm) {
  // Write several caps' worth of distinct records through a small L2. A
  // fully live log near its cap must still take new keys: the compaction
  // an over-cap append triggers evicts room for that record too (down to
  // 7/8 of the cap), so every append lands, every new key hits, and a
  // full rewrite happens about once per eighth of the cap written — not
  // once per append.
  TempDir dir;
  service::PersistCache::Config cfg = small_cfg(dir.path);
  cfg.max_log_bytes = 32 << 10;
  cfg.index_slots = 1024;
  service::PersistCache cache(cfg);
  const SolveOptions opts;
  constexpr unsigned kAppends = 400;
  std::uint64_t written = 0;
  std::uint64_t max_record = 0;
  for (unsigned i = 0; i < kAppends; ++i) {
    const Cotree t = testing::random_cotree(30 + i % 23, 7100 + i);
    const SolveResult canon = canonical_result(t, opts);
    const cograph::CanonicalForm form = canonical_form(t);
    const auto key = service::make_cache_key(form, opts);
    const auto before = cache.stats();
    cache.append(key, canon);
    const auto after = cache.stats();
    ASSERT_EQ(after.append_skips, 0u) << "append " << i << " skipped";
    if (after.appends == before.appends) continue;  // isomorphic repeat
    if (after.compactions == before.compactions) {
      const std::uint64_t rec = after.log_bytes - before.log_bytes;
      written += rec;
      max_record = std::max(max_record, rec);
    } else {
      written += max_record;  // its size is hidden by the rewrite
    }
    EXPECT_LE(after.log_bytes, cfg.max_log_bytes);
    const auto hit = cache.lookup(key);
    ASSERT_NE(hit, nullptr) << "new key " << i << " did not land";
    expect_result_exact(*hit, canon, "over-cap append");
  }
  const auto s = cache.stats();
  EXPECT_EQ(s.append_skips, 0u);
  EXPECT_GE(s.appends, kAppends - 10);
  ASSERT_GT(written, 3 * cfg.max_log_bytes) << "never went past the cap";
  EXPECT_GE(s.compactions, 1u);
  // Each compaction leaves at least an eighth of the cap minus one record
  // free, so the appends between two compactions fill at least that much.
  const std::uint64_t per_compaction = cfg.max_log_bytes / 8 - max_record;
  EXPECT_LE(s.compactions, written / per_compaction + 2)
      << "compaction storm: " << s.compactions << " rewrites for "
      << s.appends << " appends";
}

TEST(PersistCache, LookupRestampsSurviveTheRecordChecksum) {
  // The re-stamp is a 4-byte in-place write OUTSIDE the checksummed
  // payload: a touched record must still verify and decode exactly.
  TempDir dir;
  service::PersistCache cache(small_cfg(dir.path));
  const Cotree t = testing::random_cotree(30, 6500);
  const auto form = canonical_form(t);
  const SolveOptions opts;
  const SolveResult canon = canonical_result(t, opts);
  cache.append(service::make_cache_key(form, opts), canon);
  for (int i = 0; i < 3; ++i) {
    const auto hit = cache.lookup(service::make_cache_key(form, opts));
    ASSERT_NE(hit, nullptr) << "restamp corrupted the record, pass " << i;
    expect_result_exact(*hit, canon, "restamped record");
  }
  // And a fresh process (fresh open-time scan) still accepts the log.
  service::PersistCache reopened(small_cfg(dir.path));
  EXPECT_EQ(reopened.stats().records, 1u);
  EXPECT_EQ(reopened.stats().corrupt_dropped, 0u);
  EXPECT_NE(reopened.lookup(service::make_cache_key(form, opts)), nullptr);
}

// --------------------------------------------------------- Crash safety

TEST(PersistCacheCrash, TruncatedTailDegradesToMissNeverCrashes) {
  TempDir dir;
  const SolveOptions opts;
  std::vector<Cotree> trees;
  for (unsigned i = 0; i < 3; ++i) {
    trees.push_back(testing::random_cotree(10 + i * 9, 9200 + i));
  }
  {
    service::PersistCache cache(small_cfg(dir.path));
    for (const auto& t : trees) {
      cache.append(service::make_cache_key(canonical_form(t), opts),
                   canonical_result(t, opts));
    }
  }
  // Chop bytes off the last record — the kill-during-write shape.
  const auto log = dir.file("l2.log");
  const auto size = std::filesystem::file_size(log);
  std::filesystem::resize_file(log, size - 7);

  service::PersistCache cache(small_cfg(dir.path));
  EXPECT_GE(cache.stats().corrupt_dropped, 1u);
  EXPECT_EQ(cache.stats().records, 2u);
  // The surviving prefix still serves; the torn record is a miss.
  for (unsigned i = 0; i < 2; ++i) {
    EXPECT_NE(cache.lookup(service::make_cache_key(canonical_form(trees[i]),
                                                   opts)),
              nullptr)
        << i;
  }
  const auto torn_form = canonical_form(trees[2]);
  EXPECT_EQ(cache.lookup(service::make_cache_key(torn_form, opts)), nullptr);
  // And the cache heals: re-appending the torn key overwrites the tail.
  cache.append(service::make_cache_key(torn_form, opts),
               canonical_result(trees[2], opts));
  EXPECT_NE(cache.lookup(service::make_cache_key(torn_form, opts)), nullptr);
}

TEST(PersistCacheCrash, BitFlippedRecordFailsItsChecksumAndMisses) {
  TempDir dir;
  const Cotree t = testing::random_cotree(24, 4100);
  const auto form = canonical_form(t);
  const SolveOptions opts;
  const SolveResult canon = canonical_result(t, opts);
  {
    service::PersistCache cache(small_cfg(dir.path));
    cache.append(service::make_cache_key(form, opts), canon);
  }
  // Flip one payload byte past the record header (offset 16 file header +
  // 16 record header + a few payload bytes in).
  const auto log = dir.file("l2.log");
  std::string bytes = read_file(log);
  ASSERT_GT(bytes.size(), 40u);
  bytes[38] = static_cast<char>(bytes[38] ^ 0x10);
  write_file(log, bytes);

  service::PersistCache cache(small_cfg(dir.path));
  EXPECT_EQ(cache.lookup(service::make_cache_key(form, opts)), nullptr);
  EXPECT_GE(cache.stats().corrupt_dropped, 1u);
  // Appending the same key again restores service.
  cache.append(service::make_cache_key(form, opts), canon);
  const auto hit = cache.lookup(service::make_cache_key(form, opts));
  ASSERT_NE(hit, nullptr);
  expect_result_exact(*hit, canon, "healed after bit flip");
}

TEST(PersistCacheCrash, GarbageLogHeaderResetsToColdNotWrong) {
  TempDir dir;
  const Cotree t = testing::random_cotree(15, 66);
  const auto form = canonical_form(t);
  const SolveOptions opts;
  {
    service::PersistCache cache(small_cfg(dir.path));
    cache.append(service::make_cache_key(form, opts),
                 canonical_result(t, opts));
  }
  std::string bytes = read_file(dir.file("l2.log"));
  for (std::size_t i = 0; i < 16 && i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(0xDB);
  }
  write_file(dir.file("l2.log"), bytes);

  service::PersistCache cache(small_cfg(dir.path));
  EXPECT_EQ(cache.stats().records, 0u);  // reset to empty — cold, not wrong
  EXPECT_EQ(cache.lookup(service::make_cache_key(form, opts)), nullptr);
  cache.append(service::make_cache_key(form, opts),
               canonical_result(t, opts));
  EXPECT_NE(cache.lookup(service::make_cache_key(form, opts)), nullptr);
}

TEST(PersistCacheCrash, CorruptOrMissingIndexIsRebuiltFromTheLog) {
  TempDir dir;
  const SolveOptions opts;
  std::vector<Cotree> trees;
  for (unsigned i = 0; i < 4; ++i) {
    trees.push_back(testing::random_cotree(6 + i * 11, 3300 + i));
  }
  {
    service::PersistCache cache(small_cfg(dir.path));
    for (const auto& t : trees) {
      cache.append(service::make_cache_key(canonical_form(t), opts),
                   canonical_result(t, opts));
    }
  }
  // Garbage index: every lookup must still hit (rebuilt from the log).
  write_file(dir.file("l2.idx"), std::string(777, '\x5A'));
  {
    service::PersistCache cache(small_cfg(dir.path));
    for (const auto& t : trees) {
      EXPECT_NE(
          cache.lookup(service::make_cache_key(canonical_form(t), opts)),
          nullptr);
    }
  }
  // Deleted index: same story.
  std::filesystem::remove(dir.file("l2.idx"));
  service::PersistCache cache(small_cfg(dir.path));
  for (const auto& t : trees) {
    EXPECT_NE(
        cache.lookup(service::make_cache_key(canonical_form(t), opts)),
        nullptr);
  }
}

TEST(PersistCacheCrash, TornTailFromAKilledAppendIsOverwrittenInPlace) {
  TempDir dir;
  const Cotree t = testing::random_cotree(20, 12);
  const auto form = canonical_form(t);
  const SolveOptions opts;
  {
    service::PersistCache cache(small_cfg(dir.path));
    cache.append(service::make_cache_key(form, opts),
                 canonical_result(t, opts));
  }
  // Simulate a process killed mid-append: a record header promising more
  // payload than was ever written, followed by a few garbage bytes.
  const auto log = dir.file("l2.log");
  std::string bytes = read_file(log);
  const std::size_t valid_end = bytes.size();
  std::string torn(16, '\0');
  torn[0] = '\x40';  // payload_len = 64, but only 5 payload bytes follow
  torn += "abcde";
  write_file(log, bytes + torn);

  service::PersistCache cache(small_cfg(dir.path));
  EXPECT_GE(cache.stats().corrupt_dropped, 1u);
  EXPECT_EQ(cache.stats().log_bytes, valid_end);  // prefix ends before torn
  EXPECT_NE(cache.lookup(service::make_cache_key(form, opts)), nullptr);

  // The next append lands ON the torn bytes (the log never shrinks, it
  // overwrites), and the new record is immediately servable.
  const Cotree u = testing::random_cotree(9, 13);
  const auto uform = canonical_form(u);
  cache.append(service::make_cache_key(uform, opts),
               canonical_result(u, opts));
  EXPECT_NE(cache.lookup(service::make_cache_key(uform, opts)), nullptr);
  EXPECT_GT(cache.stats().log_bytes, valid_end);
  EXPECT_LE(std::filesystem::file_size(log),
            valid_end + torn.size() + cache.stats().log_bytes);
}

// ------------------------------------------------- Multi-process sharing

void expect_equal_core(const SolveResult& got, const SolveResult& want,
                       const std::string& what) {
  ASSERT_EQ(got.ok, want.ok) << what << ": " << got.error;
  EXPECT_EQ(got.backend, want.backend) << what;
  EXPECT_EQ(got.vertex_count, want.vertex_count) << what;
  EXPECT_EQ(got.cover.paths, want.cover.paths) << what;
  EXPECT_EQ(got.optimal_size, want.optimal_size) << what;
  EXPECT_EQ(got.minimum, want.minimum) << what;
  EXPECT_EQ(got.hamiltonian_path, want.hamiltonian_path) << what;
  EXPECT_EQ(got.hamiltonian_cycle, want.hamiltonian_cycle) << what;
  EXPECT_EQ(got.cycle, want.cycle) << what;
}

TEST(PersistCacheSharing, TwoServicesOneDirMatchUncachedAndEachOther) {
  // The acceptance differential: Service A and Service B share one cache
  // directory (two PersistCache instances, the real file-lock protocol —
  // flock is per open-file-description, so even in-process these two
  // genuinely exclude each other). Every cold solve must match the
  // uncached Solver bitwise; every permuted twin served by B from a file
  // WRITTEN BY A must be bitwise-identical to A's own RAM-warm answer for
  // that twin, and a valid minimum cover of the twin.
  TempDir dir;
  util::Rng rng(2026'08'08);
  Service::Options sopts;
  sopts.workers = 2;
  sopts.persist.dir = dir.path;
  Service a(sopts);
  Service b(sopts);
  const Solver uncached(sopts.solve);

  for (unsigned i = 0; i < 20; ++i) {
    const Cotree base = testing::random_cotree(2 + (i * 13) % 80, 777 + i);
    const Cotree twin = testing::random_twin(base, rng);

    // Cold solve through A == uncached Solver, bitwise.
    const SolveResult ra =
        a.submit(SolveRequest{Instance::view(base), {}, {}}).get();
    const SolveResult ref = uncached.solve(Instance::view(base));
    expect_equal_core(ra, ref, "cold A vs uncached");

    // B has a cold L1 — its first sight of the twin can only be served
    // from the file A just wrote. A's own twin answer is a RAM-warm L1
    // hit. Disk-warm must equal RAM-warm bitwise.
    const SolveResult bt =
        b.submit(SolveRequest{Instance::view(twin), {}, {}}).get();
    const SolveResult at =
        a.submit(SolveRequest{Instance::view(twin), {}, {}}).get();
    expect_equal_core(bt, at, "disk-warm B vs RAM-warm A");
    const auto report = validate_path_cover(twin, bt.cover,
                                            /*require_minimum=*/true);
    EXPECT_TRUE(report.ok) << i << ": " << report.error;
  }

  const auto astats = a.stats();
  const auto bstats = b.stats();
  EXPECT_TRUE(astats.persist_enabled);
  EXPECT_GE(astats.persist.appends, 20u);
  EXPECT_GE(bstats.persist.hits, 20u);       // every twin came off disk
  EXPECT_GE(bstats.persist_promotions, 20u);  // ...and was promoted to L1
}

TEST(PersistCacheSharing, RestartServesDiskWarmIdenticalToFirstRun) {
  TempDir dir;
  Service::Options sopts;
  sopts.workers = 2;
  sopts.persist.dir = dir.path;
  std::vector<Cotree> trees;
  for (unsigned i = 0; i < 12; ++i) {
    trees.push_back(testing::random_cotree(3 + i * 6, 6040 + i));
  }

  std::vector<SolveResult> first;
  {
    Service svc(sopts);
    for (const auto& t : trees) {
      first.push_back(
          svc.submit(SolveRequest{Instance::view(t), {}, {}}).get());
      ASSERT_TRUE(first.back().ok) << first.back().error;
    }
    EXPECT_GE(svc.stats().persist.appends, trees.size());
  }  // "restart": the first Service (and its RAM cache) is gone

  Service svc(sopts);
  for (std::size_t i = 0; i < trees.size(); ++i) {
    const SolveResult again =
        svc.submit(SolveRequest{Instance::view(trees[i]), {}, {}}).get();
    expect_equal_core(again, first[i], "disk-warm restart");
  }
  const auto s = svc.stats();
  EXPECT_GE(s.persist.hits, trees.size());
  EXPECT_GE(s.persist_promotions, trees.size());
  EXPECT_EQ(s.persist.appends, 0u);  // nothing re-solved, nothing written
}

// ------------------------------------------------------- Daemon surface

TEST(PersistCacheDaemon, StatsCompactAndCounterResetOverTheWire) {
  TempDir dir;
  net::Server::Options opts;
  opts.port = 0;
  opts.service.workers = 2;
  opts.service.persist.dir = dir.path;
  auto server = std::make_unique<net::Server>(std::move(opts));
  std::thread loop([&server] { server->run(); });

  {
    net::Client cli("127.0.0.1", server->port());
    const std::string text = testing::random_cotree(30, 505).format();

    // Cold solve writes through to disk; warm solve hits L1.
    ASSERT_EQ(cli.solve_text(text).status, proto::Status::Ok);
    ASSERT_EQ(cli.solve_text(text).status, proto::Status::Ok);
    proto::Response st = cli.stats();
    ASSERT_EQ(st.status, proto::Status::Ok);
    EXPECT_EQ(counter(st, "l2_enabled"), 1u);
    EXPECT_GE(counter(st, "l2_appends"), 1u);
    EXPECT_GE(counter(st, "cache_hits"), 1u);
    EXPECT_GE(counter(st, "cache_misses"), 1u);

    // CacheCompact clears+resets L1 and compacts the disk tier.
    const proto::Response comp = cli.compact();
    ASSERT_EQ(comp.status, proto::Status::Ok);
    EXPECT_EQ(comp.verb, proto::Verb::CacheCompact);
    EXPECT_GE(counter(comp, "l1_dropped"), 1u);
    EXPECT_EQ(counter(comp, "l2_enabled"), 1u);
    EXPECT_GE(counter(comp, "l2_live_records"), 1u);

    // The clear() regression: L1 counters must RESET, not survive the
    // clear (hits/misses describe the current cache epoch).
    st = cli.stats();
    EXPECT_EQ(counter(st, "cache_hits"), 0u);
    EXPECT_EQ(counter(st, "cache_misses"), 0u);
    EXPECT_GE(counter(st, "l2_compactions"), 1u);

    // With L1 empty the same instance is now served from the compacted
    // persistent tier — and promoted back.
    ASSERT_EQ(cli.solve_text(text).status, proto::Status::Ok);
    st = cli.stats();
    EXPECT_GE(counter(st, "l2_hits"), 1u);
    EXPECT_GE(counter(st, "l2_promotions"), 1u);
  }

  server->request_drain();
  loop.join();
}

TEST(PersistCacheDaemon, RestartOverTheWireServesDiskWarmBitwiseEqual) {
  // The in-process restart differential (RestartServesDiskWarmIdentical-
  // ToFirstRun), extended to the wire path: daemon A populates the cache
  // directory over TCP and drains cleanly; daemon B on the SAME directory
  // must serve every instance disk-warm — identical wire results, l2 hits,
  // zero re-appends.
  TempDir dir;
  std::vector<std::string> texts;
  for (unsigned i = 0; i < 10; ++i) {
    texts.push_back(testing::random_cotree(3 + i * 7, 8100 + i).format());
  }
  const auto serve = [&dir] {
    net::Server::Options opts;
    opts.port = 0;
    opts.service.workers = 2;
    opts.service.persist.dir = dir.path;
    return std::make_unique<net::Server>(std::move(opts));
  };
  const auto expect_wire_equal = [](const proto::WireResult& got,
                                    const proto::WireResult& want,
                                    unsigned i) {
    EXPECT_EQ(got.vertex_count, want.vertex_count) << i;
    EXPECT_EQ(got.optimal_size, want.optimal_size) << i;
    EXPECT_EQ(got.minimum, want.minimum) << i;
    EXPECT_EQ(got.hamiltonian_path, want.hamiltonian_path) << i;
    EXPECT_EQ(got.hamiltonian_cycle, want.hamiltonian_cycle) << i;
    EXPECT_EQ(got.paths, want.paths) << i;
  };

  std::vector<proto::Response> first;
  {
    auto server = serve();
    std::thread loop([&server] { server->run(); });
    {
      net::Client cli("127.0.0.1", server->port());
      for (const auto& t : texts) {
        first.push_back(cli.solve_text(t));
        ASSERT_EQ(first.back().status, proto::Status::Ok)
            << first.back().error;
      }
      const proto::Response st = cli.stats();
      EXPECT_GE(counter(st, "l2_appends"), texts.size());
    }
    server->request_drain();
    loop.join();
  }  // daemon A is gone; only the cache directory survives

  auto server = serve();
  std::thread loop([&server] { server->run(); });
  {
    net::Client cli("127.0.0.1", server->port());
    for (std::size_t i = 0; i < texts.size(); ++i) {
      const proto::Response again = cli.solve_text(texts[i]);
      ASSERT_EQ(again.status, proto::Status::Ok) << again.error;
      expect_wire_equal(again.result, first[i].result,
                        static_cast<unsigned>(i));
    }
    const proto::Response st = cli.stats();
    EXPECT_GE(counter(st, "l2_hits"), texts.size());
    EXPECT_GE(counter(st, "l2_promotions"), texts.size());
    EXPECT_EQ(counter(st, "l2_appends"), 0u);  // nothing recomputed
  }
  server->request_drain();
  loop.join();
}

}  // namespace
}  // namespace copath
