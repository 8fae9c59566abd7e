// service::SourceMemo — exact request bytes -> canonical form, in front of L1.
//
// A warm request still pays its whole front end before the L1 probe: text
// is parsed and canonicalized (sorting every child list), signature bytes
// are walked once more by decode_signature_form. Repeat clients send the
// *same bytes* again and again, and a CanonicalForm is a pure function of
// (source kind, bytes) — Cotree::parse numbers vertices deterministically,
// the canonicalizer's order is total, and the signature decode has no
// choices at all. So the form those bytes produced once can stand in for
// every later parse of identical bytes: the Service takes its vertex count,
// express decision, cache key, replay permutation and to_canonical_space
// map straight from the memo and never touches the instance's front end.
//
//  * Equality: a hit requires the source kind to match AND the bytes to be
//    memcmp-equal; the 64-bit hash only picks the bucket, so a collision
//    costs a miss, never a wrong form.
//  * Admission: the caller admits an entry only after its form's L1 probe
//    hit (service.cpp) — bytes that never repeat store nothing, and while
//    the memo is empty a probe is one atomic load. Only forms that
//    canonicalized successfully reach L1, so malformed text and invalid
//    signatures are never admitted.
//  * Bound: one LRU under a fixed byte budget (owned bytes + the form's
//    signature and permutations + per-entry overhead).
//  * Staleness: none possible — nothing the form is computed from can
//    change behind it. clear() exists for the CacheCompact verb, which
//    drops the memo together with L1.
//
// Thread-safe: one mutex guards the LRU; the critical section is a bucket
// walk, a memcmp and a list splice (the hash is computed outside it). The form is handed out as a shared_ptr
// so callers use it outside the lock, and eviction never pulls it out from
// under a request in flight.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "cograph/canonical.hpp"

namespace copath::service {

class SourceMemo {
 public:
  /// The memo's memory bound. Hot clients repeat a small working set (a
  /// text entry at n = 1024 costs ~18 KiB), so this holds ~900 such
  /// entries — far past any repeat set one daemon sees — while bounding
  /// the worst case to a few percent of a serving process.
  static constexpr std::size_t kDefaultByteBudget = std::size_t{16} << 20;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t entries = 0;
    /// Charged bytes (see entry_cost), always <= the budget.
    std::uint64_t bytes = 0;
  };

  SourceMemo() : SourceMemo(kDefaultByteBudget) {}
  explicit SourceMemo(std::size_t byte_budget);

  SourceMemo(const SourceMemo&) = delete;
  SourceMemo& operator=(const SourceMemo&) = delete;

  /// The form memoized for exactly these bytes of this kind (refreshing
  /// its LRU position), or nullptr. Counts a hit or a miss.
  [[nodiscard]] std::shared_ptr<const cograph::CanonicalForm> find(
      bool is_signature, std::string_view bytes);

  /// Memoizes `form` for these bytes (copies both). No-op when the bytes
  /// are already present, the entry alone exceeds the budget, or the copy
  /// cannot be allocated; evicts least-recently-used entries until it
  /// fits.
  void admit(bool is_signature, std::string_view bytes,
             const cograph::CanonicalForm& form) noexcept;

  /// Drops every entry and resets the counters (a new epoch, like
  /// ResultCache::clear).
  void clear();

  [[nodiscard]] Stats stats() const;

  /// The bytes an entry is charged against the budget.
  [[nodiscard]] static std::size_t entry_cost(
      std::string_view bytes, const cograph::CanonicalForm& form);

 private:
  /// Borrowed request bytes plus their bucket hash.
  struct Key {
    bool is_signature = false;
    std::string_view bytes;
    std::uint64_t hash = 0;
  };
  struct Entry {
    bool is_signature = false;
    std::uint64_t hash = 0;
    std::string bytes;
    std::size_t cost = 0;
    std::shared_ptr<const cograph::CanonicalForm> form;
  };
  using Lru = std::list<Entry>;

  [[nodiscard]] static Key make_key(bool is_signature,
                                    std::string_view bytes);
  /// The entry for `key` under mu_, or end().
  Lru::iterator locate_locked(const Key& key);
  void evict_back_locked();

  const std::size_t budget_;
  mutable std::mutex mu_;
  Lru lru_;  // front = most recently used
  std::unordered_multimap<std::uint64_t, Lru::iterator> by_hash_;
  std::size_t bytes_ = 0;  // guarded by mu_
  /// lru_.size(), readable without mu_: find() on an empty memo skips the
  /// hash and the lock.
  std::atomic<std::size_t> entries_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace copath::service
