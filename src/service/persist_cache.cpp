#include "service/persist_cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>

#include "net/protocol.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/math.hpp"

namespace copath::service {
namespace {

// File format constants. Bumping kFileVersion invalidates existing caches
// wholesale (they re-create as empty — cold, never wrong), which is how
// record-codec changes ship without migration code.
constexpr std::uint64_t kLogMagic = 0x324C485441504F43ull;   // "COPATHL2"
constexpr std::uint64_t kIdxMagic = 0x3158485441504F43ull;   // "COPATHX1"
constexpr std::uint32_t kFileVersion = 1;

constexpr std::uint64_t kLogHeaderBytes = 16;  // magic u64 | version u32 | 0
constexpr std::uint64_t kIdxHeaderBytes = 32;  // magic | version | retired
                                               // | slot_count | reserved
constexpr std::uint64_t kRecHeaderBytes = 16;  // len u32 | 0 u32 | sum u64
constexpr std::uint64_t kSlotBytes = 16;       // tag u64 | offset u64
/// Fixed payload prefix: key hash + OptionsKey + two length words.
constexpr std::uint64_t kPayloadFixedBytes = 8 + sizeof(OptionsKey) + 4 + 4;
/// Sanity bound on one record (a multi-million-vertex result is a few MB;
/// anything near this is corruption).
constexpr std::uint64_t kMaxRecordBytes = std::uint64_t{64} << 20;
/// Probe window shared by lookups and inserts. Past it, inserts clobber
/// (cache semantics) and lookups give up.
constexpr std::uint64_t kMaxProbe = 64;

// Native-endian scalar IO on the mapped files. The cache directory is
// machine-local by design (flock + mmap coherence only hold on one box),
// so no cross-endian portability is attempted.
template <typename T>
T load_raw(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}
template <typename T>
void store_raw(char* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

std::uint64_t checksum_bytes(const char* p, std::uint64_t n) {
  // FNV-1a 64: byte-at-a-time, no tables, and a single bit flip anywhere
  // changes the sum — exactly the torn-write/bit-rot detector needed here.
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint64_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(p[i]);
    h *= 1099511628211ull;
  }
  return h;
}

/// RAII flock(LOCK_EX) on the dedicated lock file. flock is per open file
/// description, so two PersistCache objects in ONE process also exclude
/// each other — the in-process tests exercise the same lock protocol real
/// multi-process deployments use.
class FileLock {
 public:
  explicit FileLock(int fd) : fd_(fd) {
    while (::flock(fd_, LOCK_EX) != 0 && errno == EINTR) {
    }
  }
  ~FileLock() { ::flock(fd_, LOCK_UN); }
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

 private:
  int fd_;
};

bool write_all(int fd, const char* p, std::uint64_t n, std::uint64_t off) {
  // Chaos hook: a pwrite that "fails" here exercises the same degradation
  // as a full disk — append_skips / refused compaction, never corruption
  // (the log is never truncated and records publish only after a full
  // write).
  if (util::fault_point("persist.pwrite")) return false;
  while (n > 0) {
    const ssize_t w = ::pwrite(fd, p, n, static_cast<off_t>(off));
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::uint64_t>(w);
    off += static_cast<std::uint64_t>(w);
  }
  return true;
}

/// Wall-clock seconds for the last-access stamp. system_clock, not the
/// steady clock: the stamp is persisted across process lifetimes, and the
/// steady clock's epoch is per-boot. One-second granularity is plenty for
/// eviction ordering and lets hot keys dedupe their re-stamps.
std::uint32_t now_secs() {
  return static_cast<std::uint32_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::uint64_t file_size(int fd) {
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

/// Atomic (lock-free on every target we build for) access to a u64 inside
/// a MAP_SHARED mapping — the cross-process slot publication primitive.
/// (std::atomic_ref<const T> arrives post-C++20, hence the const_cast on
/// the load side; the object is genuinely mutable shared memory.)
std::uint64_t slot_load(const char* p) {
  return std::atomic_ref<std::uint64_t>(
             *reinterpret_cast<std::uint64_t*>(const_cast<char*>(p)))
      .load(std::memory_order_acquire);
}
void slot_store(char* p, std::uint64_t v) {
  std::atomic_ref<std::uint64_t>(*reinterpret_cast<std::uint64_t*>(p))
      .store(v, std::memory_order_release);
}

}  // namespace

PersistCache::PersistCache(Config cfg) : cfg_(std::move(cfg)) {
  COPATH_CHECK_MSG(!cfg_.dir.empty(),
                   "PersistCache requires a cache directory");
  cfg_.index_slots = util::next_pow2(std::max<std::size_t>(cfg_.index_slots,
                                                           64));
  std::error_code ec;
  std::filesystem::create_directories(cfg_.dir, ec);
  COPATH_CHECK_MSG(!ec, "cannot create cache directory " + cfg_.dir);
  lock_fd_ = ::open(lock_path().c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  COPATH_CHECK_MSG(lock_fd_ >= 0, "cannot create " + lock_path());
  std::lock_guard<std::mutex> lk(mu_);
  FileLock fl(lock_fd_);
  open_files_locked();
}

PersistCache::~PersistCache() {
  std::lock_guard<std::mutex> lk(mu_);
  close_files_locked();
  if (lock_fd_ >= 0) ::close(lock_fd_);
}

void PersistCache::close_files_locked() {
  if (log_map_ != nullptr) ::munmap(log_map_, log_map_bytes_);
  if (idx_map_ != nullptr) ::munmap(idx_map_, idx_map_bytes_);
  log_map_ = nullptr;
  log_map_bytes_ = 0;
  idx_map_ = nullptr;
  idx_map_bytes_ = 0;
  if (log_fd_ >= 0) ::close(log_fd_);
  if (idx_fd_ >= 0) ::close(idx_fd_);
  log_fd_ = -1;
  idx_fd_ = -1;
  slot_count_ = 0;
  log_end_ = 0;
}

void PersistCache::reset_log_locked() {
  // Catastrophic-corruption path (bad log header): start over. Truncating
  // a file another healthy process has mapped would SIGBUS it, but a
  // healthy process cannot coexist with a corrupt header — it would have
  // reset too.
  COPATH_CHECK(::ftruncate(log_fd_, 0) == 0);
  char hdr[kLogHeaderBytes] = {};
  store_raw<std::uint64_t>(hdr, kLogMagic);
  store_raw<std::uint32_t>(hdr + 8, kFileVersion);
  COPATH_CHECK(write_all(log_fd_, hdr, sizeof(hdr), 0));
}

void PersistCache::open_files_locked() {
  close_files_locked();
  // A crashed compaction may leave tmp files; they are garbage by
  // definition (the rename pair never happened).
  ::unlink((log_path() + ".tmp").c_str());
  ::unlink((idx_path() + ".tmp").c_str());

  log_fd_ = ::open(log_path().c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  COPATH_CHECK_MSG(log_fd_ >= 0, "cannot open " + log_path());
  std::uint64_t log_bytes = file_size(log_fd_);
  bool header_ok = false;
  if (log_bytes >= kLogHeaderBytes) {
    char hdr[kLogHeaderBytes];
    if (::pread(log_fd_, hdr, sizeof(hdr), 0) ==
        static_cast<ssize_t>(sizeof(hdr))) {
      header_ok = load_raw<std::uint64_t>(hdr) == kLogMagic &&
                  load_raw<std::uint32_t>(hdr + 8) == kFileVersion;
    }
  }
  if (!header_ok) {
    if (log_bytes > 0) ++stats_.corrupt_dropped;
    reset_log_locked();
  }
  ensure_log_mapped_locked(file_size(log_fd_));

  std::vector<std::pair<std::uint64_t, std::uint64_t>> live;
  log_end_ = scan_log_locked(&live);
  stats_.records = live.size();
  stats_.log_bytes = log_end_;

  // Index: adopt a structurally valid one (another process built it; its
  // entries are validated per-hit anyway), otherwise rebuild from the scan.
  idx_fd_ = ::open(idx_path().c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  COPATH_CHECK_MSG(idx_fd_ >= 0, "cannot open " + idx_path());
  const std::uint64_t idx_bytes = file_size(idx_fd_);
  bool idx_ok = false;
  std::uint64_t slots = 0;
  if (idx_bytes >= kIdxHeaderBytes) {
    char hdr[kIdxHeaderBytes];
    if (::pread(idx_fd_, hdr, sizeof(hdr), 0) ==
        static_cast<ssize_t>(sizeof(hdr))) {
      slots = load_raw<std::uint64_t>(hdr + 16);
      idx_ok = load_raw<std::uint64_t>(hdr) == kIdxMagic &&
               load_raw<std::uint32_t>(hdr + 8) == kFileVersion &&
               load_raw<std::uint32_t>(hdr + 12) == 0 &&  // not retired
               slots >= 64 && (slots & (slots - 1)) == 0 &&
               slots <= (std::uint64_t{1} << 28) &&
               idx_bytes == kIdxHeaderBytes + slots * kSlotBytes;
    }
  }
  if (idx_ok) {
    slot_count_ = slots;
    void* m = ::mmap(nullptr, idx_bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                     idx_fd_, 0);
    COPATH_CHECK_MSG(m != MAP_FAILED, "cannot map " + idx_path());
    idx_map_ = static_cast<char*>(m);
    idx_map_bytes_ = idx_bytes;
  } else {
    build_index_locked(live);
  }
}

void PersistCache::build_index_locked(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& live) {
  // Recreate the index in place (same inode: concurrent readers see slots
  // mutate, which per-hit validation absorbs; only the size must never
  // shrink while mapped elsewhere — and it only changes when the previous
  // file was invalid, i.e. no healthy process is using it).
  slot_count_ = cfg_.index_slots;
  const std::uint64_t bytes = kIdxHeaderBytes + slot_count_ * kSlotBytes;
  std::vector<char> image(bytes, 0);
  store_raw<std::uint64_t>(image.data(), kIdxMagic);
  store_raw<std::uint32_t>(image.data() + 8, kFileVersion);
  store_raw<std::uint64_t>(image.data() + 16, slot_count_);
  const std::uint64_t mask = slot_count_ - 1;
  for (const auto& [hash, offset] : live) {
    char* base = image.data() + kIdxHeaderBytes;
    for (std::uint64_t j = 0; j < kMaxProbe; ++j) {
      char* slot = base + ((hash + j) & mask) * kSlotBytes;
      const std::uint64_t off = load_raw<std::uint64_t>(slot + 8);
      // Later records win (they were appended later == fresher); equal
      // tags also overwrite so re-appended keys route to the new bytes.
      if (off == 0 || load_raw<std::uint64_t>(slot) == hash ||
          j + 1 == kMaxProbe) {
        store_raw<std::uint64_t>(slot, hash);
        store_raw<std::uint64_t>(slot + 8, offset);
        break;
      }
    }
  }
  COPATH_CHECK(::ftruncate(idx_fd_, 0) == 0);
  COPATH_CHECK(write_all(idx_fd_, image.data(), bytes, 0));
  void* m = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                   idx_fd_, 0);
  COPATH_CHECK_MSG(m != MAP_FAILED, "cannot map " + idx_path());
  idx_map_ = static_cast<char*>(m);
  idx_map_bytes_ = bytes;
}

std::uint64_t PersistCache::scan_log_locked(
    std::vector<std::pair<std::uint64_t, std::uint64_t>>* live) {
  // Valid-prefix scan: records are back-to-back from the header; the first
  // bounds or checksum failure ends the chain. Bytes past it are a torn
  // append (crash) — counted, never trusted, overwritten by the next
  // append.
  std::uint64_t off = kLogHeaderBytes;
  const std::uint64_t end = log_map_bytes_;
  while (off + kRecHeaderBytes <= end) {
    const std::uint64_t len = load_raw<std::uint32_t>(log_map_ + off);
    if (len < kPayloadFixedBytes || len > kMaxRecordBytes ||
        off + kRecHeaderBytes + len > end) {
      break;
    }
    const char* payload = log_map_ + off + kRecHeaderBytes;
    if (checksum_bytes(payload, len) !=
        load_raw<std::uint64_t>(log_map_ + off + 8)) {
      break;
    }
    const std::uint64_t sig_len = load_raw<std::uint32_t>(payload + 32);
    const std::uint64_t res_len = load_raw<std::uint32_t>(payload + 36);
    if (kPayloadFixedBytes + sig_len + res_len != len) break;
    if (live != nullptr) {
      live->emplace_back(load_raw<std::uint64_t>(payload), off);
    }
    off += kRecHeaderBytes + len;
  }
  if (off < end) ++stats_.corrupt_dropped;
  return off;
}

void PersistCache::ensure_log_mapped_locked(std::uint64_t min_bytes) {
  if (log_map_ != nullptr && log_map_bytes_ >= min_bytes) return;
  const std::uint64_t bytes = std::max(file_size(log_fd_), kLogHeaderBytes);
  if (bytes < min_bytes) return;  // caller's bounds check will fail cleanly
  if (log_map_ != nullptr) ::munmap(log_map_, log_map_bytes_);
  log_map_ = nullptr;
  log_map_bytes_ = 0;
  // Chaos hook: an injected mapping failure throws exactly like MAP_FAILED
  // — lookup() turns it into a miss, append() into a skip.
  COPATH_CHECK_MSG(!util::fault_point("persist.mmap"),
                   "injected mmap fault for " + log_path());
  void* m = ::mmap(nullptr, bytes, PROT_READ, MAP_SHARED, log_fd_, 0);
  COPATH_CHECK_MSG(m != MAP_FAILED, "cannot map " + log_path());
  log_map_ = static_cast<char*>(m);
  log_map_bytes_ = bytes;
}

bool PersistCache::index_retired() const {
  if (idx_map_ == nullptr) return false;
  return std::atomic_ref<std::uint32_t>(
             *reinterpret_cast<std::uint32_t*>(idx_map_ + 12))
             .load(std::memory_order_acquire) != 0;
}

void PersistCache::maybe_reopen_locked() {
  if (!index_retired()) return;
  // Another process compacted: our mapped files are the pre-compaction
  // generation. They are still internally consistent (never truncated),
  // but all new traffic lands in the new generation — follow it.
  FileLock fl(lock_fd_);
  open_files_locked();
  ++stats_.reopens;
}

bool PersistCache::read_record_locked(std::uint64_t offset,
                                      RecordView* out) {
  ensure_log_mapped_locked(offset + kRecHeaderBytes);
  if (offset < kLogHeaderBytes ||
      offset + kRecHeaderBytes > log_map_bytes_) {
    return false;
  }
  const std::uint64_t len = load_raw<std::uint32_t>(log_map_ + offset);
  if (len < kPayloadFixedBytes || len > kMaxRecordBytes) return false;
  ensure_log_mapped_locked(offset + kRecHeaderBytes + len);
  if (offset + kRecHeaderBytes + len > log_map_bytes_) return false;
  const char* payload = log_map_ + offset + kRecHeaderBytes;
  // Chaos hook first in the || : an injected "checksum mismatch" takes the
  // identical refusal path as real on-disk corruption (record dropped,
  // caller degrades to a miss).
  if (util::fault_point("persist.checksum") ||
      checksum_bytes(payload, len) !=
          load_raw<std::uint64_t>(log_map_ + offset + 8)) {
    return false;
  }
  const std::uint64_t sig_len = load_raw<std::uint32_t>(payload + 32);
  const std::uint64_t res_len = load_raw<std::uint32_t>(payload + 36);
  if (kPayloadFixedBytes + sig_len + res_len != len) return false;
  out->hash = load_raw<std::uint64_t>(payload);
  out->offset = offset;
  out->opts = payload + 8;
  out->signature = std::string_view(payload + kPayloadFixedBytes, sig_len);
  out->result =
      std::string_view(payload + kPayloadFixedBytes + sig_len, res_len);
  return true;
}

bool PersistCache::find_record_locked(const CacheKeyRef& key,
                                      RecordView* out) {
  if (idx_map_ == nullptr || slot_count_ == 0) return false;
  const std::uint64_t mask = slot_count_ - 1;
  for (std::uint64_t j = 0; j < kMaxProbe; ++j) {
    const char* slot =
        idx_map_ + kIdxHeaderBytes + ((key.hash + j) & mask) * kSlotBytes;
    const std::uint64_t offset = slot_load(slot + 8);
    if (offset == 0) return false;  // end of the probe chain
    if (slot_load(slot) != key.hash) continue;
    RecordView rec;
    if (!read_record_locked(offset, &rec)) continue;
    // Full-key check against the checksummed record: the raw 24 OptionsKey
    // bytes (byte-stable — see result_cache.hpp) plus the signature. The
    // index slot routed us here; only these bytes decide the hit.
    if (rec.hash != key.hash ||
        std::memcmp(rec.opts, &key.opts, sizeof(OptionsKey)) != 0 ||
        rec.signature != key.signature) {
      continue;
    }
    *out = rec;
    return true;
  }
  return false;
}

void PersistCache::publish_slot_locked(std::uint64_t hash,
                                       std::uint64_t offset) {
  if (idx_map_ == nullptr || slot_count_ == 0) return;
  const std::uint64_t mask = slot_count_ - 1;
  char* clobber = nullptr;
  for (std::uint64_t j = 0; j < kMaxProbe; ++j) {
    char* slot =
        idx_map_ + kIdxHeaderBytes + ((hash + j) & mask) * kSlotBytes;
    const std::uint64_t off = slot_load(slot + 8);
    if (off == 0 || slot_load(slot) == hash) {
      // Offset first, tag second (both release): a reader that sees the
      // tag sees the offset; a reader racing the publish sees a mismatch
      // or a stale offset and treats the slot as routing noise.
      slot_store(slot + 8, offset);
      slot_store(slot, hash);
      return;
    }
    clobber = slot;
  }
  // Probe window full: overwrite the last probed slot. The displaced entry
  // degrades to a miss — cache semantics, validated per-hit.
  if (clobber != nullptr) {
    slot_store(clobber + 8, offset);
    slot_store(clobber, hash);
  }
}

void PersistCache::refresh_log_end_locked() {
  // Under the file lock: other processes may have appended since we last
  // looked. Their records extend the chain from our cached end — scan
  // forward only (cheap: just the new records).
  ensure_log_mapped_locked(file_size(log_fd_));
  std::uint64_t off = log_end_ < kLogHeaderBytes ? kLogHeaderBytes
                                                 : log_end_;
  while (off + kRecHeaderBytes <= log_map_bytes_) {
    const std::uint64_t len = load_raw<std::uint32_t>(log_map_ + off);
    if (len < kPayloadFixedBytes || len > kMaxRecordBytes ||
        off + kRecHeaderBytes + len > log_map_bytes_) {
      break;
    }
    const char* payload = log_map_ + off + kRecHeaderBytes;
    if (checksum_bytes(payload, len) !=
        load_raw<std::uint64_t>(log_map_ + off + 8)) {
      break;
    }
    const std::uint64_t sig_len = load_raw<std::uint32_t>(payload + 32);
    const std::uint64_t res_len = load_raw<std::uint32_t>(payload + 36);
    if (kPayloadFixedBytes + sig_len + res_len != len) break;
    off += kRecHeaderBytes + len;
  }
  log_end_ = off;
  stats_.log_bytes = off;
}

std::shared_ptr<const SolveResult> PersistCache::lookup(
    const CacheKeyRef& key) {
  std::lock_guard<std::mutex> lk(mu_);
  try {
    maybe_reopen_locked();
    RecordView rec;
    if (find_record_locked(key, &rec)) {
      auto res = std::make_shared<SolveResult>();
      if (net::protocol::decode_result_record(rec.result, res.get())) {
        // LRU stamp, written through the fd (the log mapping is PROT_READ).
        // No file lock: a 4-byte pwrite into the header's stamp field races
        // only other stamps, sits outside the checksum, and at worst
        // perturbs eviction order. Skipped when this second already
        // stamped — hot keys cost one pwrite per second, not per hit.
        const std::uint32_t now = now_secs();
        if (load_raw<std::uint32_t>(log_map_ + rec.offset + 4) != now) {
          char stamp[4];
          store_raw<std::uint32_t>(stamp, now);
          (void)::pwrite(log_fd_, stamp, sizeof(stamp),
                         static_cast<off_t>(rec.offset + 4));
        }
        ++stats_.hits;
        return res;
      }
    }
  } catch (...) {
    // IO/alloc failure on the lookup path is a miss, nothing more.
  }
  ++stats_.misses;
  return nullptr;
}

void PersistCache::append(const CacheKeyRef& key,
                          const SolveResult& canonical) {
  std::lock_guard<std::mutex> lk(mu_);
  try {
    maybe_reopen_locked();
    // Encode outside the file lock: hash | OptionsKey raw bytes | lengths
    // | signature | full result record.
    scratch_.clear();
    scratch_.resize(kRecHeaderBytes);  // header patched in below
    {
      char fixed[kPayloadFixedBytes] = {};
      store_raw<std::uint64_t>(fixed, key.hash);
      std::memcpy(fixed + 8, &key.opts, sizeof(OptionsKey));
      store_raw<std::uint32_t>(fixed + 32,
                               static_cast<std::uint32_t>(
                                   key.signature.size()));
      scratch_.append(fixed, sizeof(fixed));
    }
    scratch_.append(key.signature);
    const std::size_t result_at = scratch_.size();
    net::protocol::encode_result_record(scratch_, canonical);
    const std::uint64_t payload_len = scratch_.size() - kRecHeaderBytes;
    if (payload_len > kMaxRecordBytes) {
      ++stats_.append_skips;
      return;
    }
    store_raw<std::uint32_t>(
        scratch_.data() + kRecHeaderBytes + 36,
        static_cast<std::uint32_t>(scratch_.size() - result_at));
    store_raw<std::uint32_t>(scratch_.data(),
                             static_cast<std::uint32_t>(payload_len));
    // Creation counts as the first access: a fresh record must not look
    // like the coldest entry to the LRU eviction in compact_locked.
    store_raw<std::uint32_t>(scratch_.data() + 4, now_secs());
    store_raw<std::uint64_t>(
        scratch_.data() + 8,
        checksum_bytes(scratch_.data() + kRecHeaderBytes, payload_len));

    FileLock fl(lock_fd_);
    if (index_retired()) {
      open_files_locked();
      ++stats_.reopens;
    }
    refresh_log_end_locked();
    RecordView existing;
    if (find_record_locked(key, &existing)) {
      ++stats_.append_dups;
      return;
    }
    if (log_end_ + scratch_.size() > cfg_.max_log_bytes) {
      CompactReport report;
      if (!compact_locked(&report, scratch_.size()) ||
          log_end_ + scratch_.size() > cfg_.max_log_bytes) {
        ++stats_.append_skips;
        return;
      }
    }
    if (!write_all(log_fd_, scratch_.data(), scratch_.size(), log_end_)) {
      ++stats_.append_skips;
      return;
    }
    if (cfg_.sync_appends) ::fdatasync(log_fd_);
    publish_slot_locked(key.hash, log_end_);
    log_end_ += scratch_.size();
    stats_.log_bytes = log_end_;
    ++stats_.appends;
    ++stats_.records;
  } catch (...) {
    ++stats_.append_skips;
  }
}

bool PersistCache::compact_locked(CompactReport* report,
                                  std::uint64_t incoming) {
  // Caller holds the file lock. Copy every index-reachable record
  // verbatim (checksums stay valid) into fresh files, retire the old
  // index so other processes follow, and rename the new generation in.
  // The old files are never truncated — mappings held by concurrent
  // readers stay fully backed.
  report->bytes_before = log_end_;
  if (idx_map_ == nullptr || log_map_ == nullptr) return false;

  std::vector<std::uint64_t> offsets;
  for (std::uint64_t i = 0; i < slot_count_; ++i) {
    const char* slot = idx_map_ + kIdxHeaderBytes + i * kSlotBytes;
    const std::uint64_t off = slot_load(slot + 8);
    if (off != 0) offsets.push_back(off);
  }
  std::sort(offsets.begin(), offsets.end());
  offsets.erase(std::unique(offsets.begin(), offsets.end()), offsets.end());

  const std::string log_tmp = log_path() + ".tmp";
  const std::string idx_tmp = idx_path() + ".tmp";
  const int new_log =
      ::open(log_tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (new_log < 0) return false;
  {
    char hdr[kLogHeaderBytes] = {};
    store_raw<std::uint64_t>(hdr, kLogMagic);
    store_raw<std::uint32_t>(hdr + 8, kFileVersion);
    if (!write_all(new_log, hdr, sizeof(hdr), 0)) {
      ::close(new_log);
      ::unlink(log_tmp.c_str());
      return false;
    }
  }
  // Validate every reachable record first, carrying its last-access stamp,
  // so the size cap can be enforced before any bytes are copied.
  struct LiveRec {
    std::uint64_t off = 0;
    std::uint64_t len = 0;
    std::uint64_t hash = 0;
    std::uint32_t stamp = 0;
  };
  std::vector<LiveRec> keep;
  keep.reserve(offsets.size());
  std::uint64_t total = 0;
  std::uint64_t need = kLogHeaderBytes;
  for (const std::uint64_t off : offsets) {
    ++total;
    RecordView rec;
    if (!read_record_locked(off, &rec)) continue;  // stale slot: drop
    const std::uint64_t len = load_raw<std::uint32_t>(log_map_ + off);
    keep.push_back({off, len, rec.hash,
                    load_raw<std::uint32_t>(log_map_ + off + 4)});
    need += kRecHeaderBytes + len;
  }
  std::uint64_t lru_dropped = 0;
  if (need + incoming > cfg_.max_log_bytes) {
    // The live set plus the record waiting to be appended busts the cap:
    // evict coldest-first (stamp 0 — a pre-LRU record — is the coldest
    // possible; offset breaks ties toward the oldest append). Target 7/8
    // of the cap, not the cap itself, so roughly an eighth of the cap is
    // appended before the next full rewrite. (Checking the live set alone
    // would leave a fully live log within one record of the cap: every
    // append would then rewrite the whole log and still not fit.)
    std::stable_sort(keep.begin(), keep.end(),
                     [](const LiveRec& a, const LiveRec& b) {
                       return a.stamp != b.stamp ? a.stamp < b.stamp
                                                 : a.off < b.off;
                     });
    const std::uint64_t target =
        cfg_.max_log_bytes - cfg_.max_log_bytes / 8;
    std::size_t drop = 0;
    while (drop < keep.size() && need + incoming > target) {
      need -= kRecHeaderBytes + keep[drop].len;
      ++drop;
    }
    lru_dropped = drop;
    keep.erase(keep.begin(),
               keep.begin() + static_cast<std::ptrdiff_t>(drop));
    // Restore log order for the copy: sequential reads of the old mapping,
    // and the new log keeps append order (later record wins on rebuild).
    std::sort(keep.begin(), keep.end(),
              [](const LiveRec& a, const LiveRec& b) {
                return a.off < b.off;
              });
  }

  std::vector<std::pair<std::uint64_t, std::uint64_t>> live;
  std::uint64_t out_off = kLogHeaderBytes;
  for (const LiveRec& lr : keep) {
    if (!write_all(new_log, log_map_ + lr.off, kRecHeaderBytes + lr.len,
                   out_off)) {
      ::close(new_log);
      ::unlink(log_tmp.c_str());
      return false;
    }
    live.emplace_back(lr.hash, out_off);
    out_off += kRecHeaderBytes + lr.len;
  }
  ::fsync(new_log);
  ::close(new_log);

  // Fresh index image for the new offsets.
  const std::uint64_t slots = cfg_.index_slots;
  const std::uint64_t idx_bytes = kIdxHeaderBytes + slots * kSlotBytes;
  std::vector<char> image(idx_bytes, 0);
  store_raw<std::uint64_t>(image.data(), kIdxMagic);
  store_raw<std::uint32_t>(image.data() + 8, kFileVersion);
  store_raw<std::uint64_t>(image.data() + 16, slots);
  const std::uint64_t mask = slots - 1;
  for (const auto& [hash, offset] : live) {
    char* base = image.data() + kIdxHeaderBytes;
    for (std::uint64_t j = 0; j < kMaxProbe; ++j) {
      char* slot = base + ((hash + j) & mask) * kSlotBytes;
      if (load_raw<std::uint64_t>(slot + 8) == 0 ||
          load_raw<std::uint64_t>(slot) == hash || j + 1 == kMaxProbe) {
        store_raw<std::uint64_t>(slot, hash);
        store_raw<std::uint64_t>(slot + 8, offset);
        break;
      }
    }
  }
  const int new_idx =
      ::open(idx_tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (new_idx < 0) {
    ::unlink(log_tmp.c_str());
    return false;
  }
  if (!write_all(new_idx, image.data(), idx_bytes, 0)) {
    ::close(new_idx);
    ::unlink(log_tmp.c_str());
    ::unlink(idx_tmp.c_str());
    return false;
  }
  ::fsync(new_idx);
  ::close(new_idx);

  // Point of no return: retire the old index (readers of the old
  // generation reopen on their next operation), then swap the names.
  std::atomic_ref<std::uint32_t>(
      *reinterpret_cast<std::uint32_t*>(idx_map_ + 12))
      .store(1, std::memory_order_release);
  if (::rename(log_tmp.c_str(), log_path().c_str()) != 0 ||
      ::rename(idx_tmp.c_str(), idx_path().c_str()) != 0) {
    // Half-renamed is still safe: the retired flag forces everyone
    // (including us, below) to reopen and re-scan whatever names resolve.
  }
  open_files_locked();
  ++stats_.compactions;
  stats_.records = live.size();
  report->live_records = live.size();
  report->bytes_after = log_end_;
  report->dropped_records = total - live.size();
  report->lru_dropped = lru_dropped;
  return true;
}

PersistCache::CompactReport PersistCache::compact() {
  std::lock_guard<std::mutex> lk(mu_);
  CompactReport report;
  try {
    maybe_reopen_locked();
    FileLock fl(lock_fd_);
    refresh_log_end_locked();
    compact_locked(&report);
  } catch (...) {
    // Compaction is advisory; a failure leaves the cache as it was.
  }
  return report;
}

PersistCache::Stats PersistCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace copath::service
