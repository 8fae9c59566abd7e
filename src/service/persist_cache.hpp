// Persistent L2 result cache: an mmap-backed, crash-safe, multi-process
// tier under the RAM ResultCache (L1).
//
// Two files in one directory hold the cache (plus a dedicated lock file):
//
//   l2.log   append-only record log. 16-byte header (magic, version), then
//            back-to-back records:
//              u32 payload_len | u32 last_access | u64 checksum | payload
//            last_access (wall-clock seconds, u32) is stamped at append and
//            re-stamped in place on every lookup hit; it sits OUTSIDE the
//            checksummed payload, so stamping never invalidates a record
//            and a torn stamp only perturbs eviction order. Records from
//            before this field existed read as 0 — i.e. coldest — which is
//            exactly the right migration behavior.
//            payload = u64 key_hash | OptionsKey (24 raw bytes, byte-stable
//            — see result_cache.hpp) | u32 sig_len | u32 result_len |
//            signature bytes | encode_result_record bytes. The checksum
//            (FNV-1a 64 over the payload) is the torn-write detector: a
//            record is real iff its checksum verifies, so a crash mid-
//            append leaves a tail that readers provably ignore.
//
//   l2.idx   open-addressing index. 32-byte header (magic, version,
//            retired flag, slot count), then pow-2 many 16-byte slots
//            { u64 tag (key hash), u64 log offset }. offset == 0 means
//            empty (real records start at offset 16). Slots are published
//            offset-first with release stores and read with acquires
//            (std::atomic_ref over the shared mapping), so a half-
//            published slot is indistinguishable from a miss — every hit
//            re-validates the full key against the checksummed record, so
//            the index is pure routing and may be stale, torn, or wrong
//            without ever producing a wrong answer.
//
//   l2.lock  empty, never renamed. All mutation (append, compact, open
//            repair) happens under flock(LOCK_EX) on this file; lookups
//            take no file lock at all (mmap reads + per-record checksums
//            make them safe against concurrent appends, and compaction
//            never truncates the files a reader may have mapped — it
//            renames fresh ones into place and flags the old index
//            `retired`, which readers notice on their next operation and
//            reopen).
//
// Crash recovery: on open (under the lock) the log is scanned from the
// front; the first record whose bounds or checksum fail ends the valid
// prefix. The file is NOT truncated (a concurrent reader may have the
// tail mapped — shrinking a mapped file turns reads into SIGBUS); instead
// the next append overwrites the torn bytes in place. A corrupt or
// missing index is rebuilt from the log scan. A corrupt log *header* is
// the one catastrophic case: the cache resets to empty (degrades to cold,
// never to wrong).
//
// Every public method is exception-proof: corruption, IO errors, and
// allocation failures degrade to a miss (lookup) or a skipped write
// (append) and bump a counter. The solver never learns the disk exists.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "service/result_cache.hpp"

namespace copath::service {

class PersistCache {
 public:
  struct Config {
    /// Cache directory (created if missing). Empty = caller should not
    /// construct a PersistCache at all (Service treats empty as "no L2").
    std::string dir;
    /// Index slot count, rounded up to a power of two. The index does not
    /// grow; past ~capacity, inserts overwrite probe-window slots (old
    /// entries degrade to misses — it is a cache).
    std::size_t index_slots = std::size_t{1} << 16;
    /// Log size cap: an append that would cross it first compacts, and
    /// compaction itself honors the cap — when the live records alone
    /// exceed it, the coldest (oldest last_access stamp) are dropped first
    /// until the rest fit with headroom. The append is skipped (counted)
    /// only if a single record cannot fit.
    std::size_t max_log_bytes = std::size_t{256} << 20;
    /// fdatasync after every append (durability vs throughput; crash
    /// SAFETY does not depend on this — only whether the last results
    /// survive a power loss).
    bool sync_appends = false;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t appends = 0;
    /// Appends skipped because the key was already present on disk.
    std::uint64_t append_dups = 0;
    /// Appends skipped for size/IO reasons (log full after compaction,
    /// oversized record, write error).
    std::uint64_t append_skips = 0;
    /// Torn/corrupt tail records skipped by the open-time log scan.
    std::uint64_t corrupt_dropped = 0;
    std::uint64_t compactions = 0;
    /// Reopens forced by another process retiring our mapped index.
    std::uint64_t reopens = 0;
    /// Live records as of this process's last open/append/compact (other
    /// processes' appends are not counted until a reopen).
    std::uint64_t records = 0;
    /// End of the valid record chain (bytes).
    std::uint64_t log_bytes = 0;
  };

  struct CompactReport {
    std::uint64_t live_records = 0;
    std::uint64_t bytes_before = 0;
    std::uint64_t bytes_after = 0;
    /// Records dropped for any reason: duplicates superseded in the index,
    /// unreachable entries, and LRU evictions (the latter also counted in
    /// lru_dropped).
    std::uint64_t dropped_records = 0;
    /// Live-but-cold records evicted to bring the log under max_log_bytes,
    /// oldest last-access stamp first.
    std::uint64_t lru_dropped = 0;
  };

  /// Opens (creating/repairing as needed) the cache in cfg.dir. Throws
  /// util::CheckError only when the directory itself cannot be created or
  /// locked — file-level corruption is repaired, not thrown.
  explicit PersistCache(Config cfg);
  ~PersistCache();

  PersistCache(const PersistCache&) = delete;
  PersistCache& operator=(const PersistCache&) = delete;

  /// The stored canonical-space result, decoded fresh from the mapped
  /// record; nullptr on miss (including every corruption/IO failure).
  /// Takes no file lock.
  [[nodiscard]] std::shared_ptr<const SolveResult> lookup(
      const CacheKeyRef& key);

  /// Write-through: appends (key, canonical result) under the file lock
  /// and publishes the index slot. Deduplicates against existing on-disk
  /// entries. Never throws; failures bump append_skips.
  void append(const CacheKeyRef& key, const SolveResult& canonical);

  /// Rewrites the log to just the index-reachable records and swaps fresh
  /// files into place (old files are renamed over, never truncated;
  /// concurrent processes notice the retired flag and reopen). Returns
  /// zeros on failure — compaction is an optimization, not an invariant.
  CompactReport compact();

  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  struct RecordView {
    std::uint64_t hash = 0;
    /// Log offset of the record header (where the last-access stamp lives).
    std::uint64_t offset = 0;
    const char* opts = nullptr;  // 24 raw OptionsKey bytes
    std::string_view signature;
    std::string_view result;
  };

  void open_files_locked();
  void close_files_locked();
  void reset_log_locked();
  std::uint64_t scan_log_locked(std::vector<std::pair<std::uint64_t,
                                                      std::uint64_t>>* live);
  void build_index_locked(
      const std::vector<std::pair<std::uint64_t, std::uint64_t>>& live);
  void maybe_reopen_locked();
  void ensure_log_mapped_locked(std::uint64_t min_bytes);
  [[nodiscard]] bool read_record_locked(std::uint64_t offset,
                                        RecordView* out);
  [[nodiscard]] bool find_record_locked(const CacheKeyRef& key,
                                        RecordView* out);
  void publish_slot_locked(std::uint64_t hash, std::uint64_t offset);
  void refresh_log_end_locked();
  [[nodiscard]] bool index_retired() const;
  /// `incoming`: bytes of a record about to be appended (0 for the admin
  /// compaction); eviction makes room for it too.
  bool compact_locked(CompactReport* report, std::uint64_t incoming = 0);

  [[nodiscard]] std::string log_path() const { return cfg_.dir + "/l2.log"; }
  [[nodiscard]] std::string idx_path() const { return cfg_.dir + "/l2.idx"; }
  [[nodiscard]] std::string lock_path() const {
    return cfg_.dir + "/l2.lock";
  }

  Config cfg_;
  mutable std::mutex mu_;
  int lock_fd_ = -1;
  int log_fd_ = -1;
  int idx_fd_ = -1;
  char* log_map_ = nullptr;
  std::uint64_t log_map_bytes_ = 0;
  char* idx_map_ = nullptr;
  std::uint64_t idx_map_bytes_ = 0;
  std::uint64_t slot_count_ = 0;
  /// End of the valid record chain as this process last saw it; refreshed
  /// (forward scan only) under the file lock before each append.
  std::uint64_t log_end_ = 0;
  std::string scratch_;  // append encode buffer, reused

  // All counters are read/written under mu_.
  Stats stats_{};
};

}  // namespace copath::service
