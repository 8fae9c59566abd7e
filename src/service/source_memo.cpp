#include "service/source_memo.hpp"

#include <functional>
#include <utility>

namespace copath::service {

SourceMemo::SourceMemo(std::size_t byte_budget) : budget_(byte_budget) {}

SourceMemo::Key SourceMemo::make_key(bool is_signature,
                                     std::string_view bytes) {
  // The kind is folded in so a text and a signature with equal bytes land
  // in different buckets (locate_locked still compares it).
  const std::uint64_t h = std::hash<std::string_view>{}(bytes);
  return Key{is_signature, bytes,
             is_signature ? h ^ 0x9e3779b97f4a7c15ULL : h};
}

std::size_t SourceMemo::entry_cost(std::string_view bytes,
                                   const cograph::CanonicalForm& form) {
  // Heap payload plus a flat charge for the list node, the hash bucket,
  // the control block and the form's fixed members.
  return bytes.size() + form.signature.size() + form.key.size() +
         (form.to_canonical.size() + form.from_canonical.size()) *
             sizeof(cograph::VertexId) +
         sizeof(Entry) + sizeof(cograph::CanonicalForm) + 64;
}

SourceMemo::Lru::iterator SourceMemo::locate_locked(const Key& key) {
  const auto [first, last] = by_hash_.equal_range(key.hash);
  for (auto it = first; it != last; ++it) {
    const Entry& e = *it->second;
    if (e.is_signature == key.is_signature && e.bytes == key.bytes) {
      return it->second;
    }
  }
  return lru_.end();
}

std::shared_ptr<const cograph::CanonicalForm> SourceMemo::find(
    bool is_signature, std::string_view bytes) {
  // An empty memo cannot hit: skip the hash (a pass over every byte) and
  // the lock. Traffic that never repeats keeps the memo empty.
  if (entries_.load(std::memory_order_relaxed) == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  const Key key = make_key(is_signature, bytes);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = locate_locked(key);
  if (it == lru_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->form;
}

void SourceMemo::evict_back_locked() {
  const auto victim = std::prev(lru_.end());
  const auto [first, last] = by_hash_.equal_range(victim->hash);
  for (auto it = first; it != last; ++it) {
    if (it->second == victim) {
      by_hash_.erase(it);
      break;
    }
  }
  bytes_ -= victim->cost;
  lru_.erase(victim);
}

void SourceMemo::admit(bool is_signature, std::string_view bytes,
                       const cograph::CanonicalForm& form) noexcept {
  const std::size_t cost = entry_cost(bytes, form);
  if (cost > budget_) return;
  const Key key = make_key(is_signature, bytes);
  try {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (locate_locked(key) != lru_.end()) return;
    }
    // Copy outside the lock. Two workers admitting the same bytes at once
    // both copy; the second insert below finds the first and drops its
    // copy.
    Entry e{is_signature, key.hash, std::string(bytes), cost,
            std::make_shared<const cograph::CanonicalForm>(form)};
    std::lock_guard<std::mutex> lock(mu_);
    if (locate_locked(key) != lru_.end()) return;
    while (bytes_ + cost > budget_) evict_back_locked();
    lru_.push_front(std::move(e));
    try {
      by_hash_.emplace(key.hash, lru_.begin());
    } catch (...) {
      lru_.pop_front();
      throw;
    }
    bytes_ += cost;
    entries_.store(lru_.size(), std::memory_order_relaxed);
  } catch (...) {
    // The memo is an optimization: without memory there is no entry.
  }
}

void SourceMemo::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  by_hash_.clear();
  lru_.clear();
  bytes_ = 0;
  entries_.store(0, std::memory_order_relaxed);
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

SourceMemo::Stats SourceMemo::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{hits_.load(std::memory_order_relaxed),
               misses_.load(std::memory_order_relaxed), lru_.size(), bytes_};
}

}  // namespace copath::service
