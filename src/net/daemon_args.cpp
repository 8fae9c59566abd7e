#include "net/daemon_args.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <limits>
#include <string_view>

namespace copath::net {
namespace {

constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();

/// A numeric flag: its accepted range and where the value lands.
struct NumericFlag {
  std::string_view name;
  std::uint64_t lo;
  std::uint64_t hi;
  void (*set)(Server::Options&, std::uint64_t);
};

constexpr NumericFlag kNumericFlags[] = {
    {"--port", 0, 65535,
     [](Server::Options& o, std::uint64_t v) {
       o.port = static_cast<std::uint16_t>(v);
     }},
    // 0 = hardware concurrency.
    {"--workers", 0, 1024,
     [](Server::Options& o, std::uint64_t v) { o.service.workers = v; }},
    {"--queue", 1, std::uint64_t{1} << 20,
     [](Server::Options& o, std::uint64_t v) {
       o.service.queue_capacity = v;
     }},
    {"--window", 1, std::uint64_t{1} << 16,
     [](Server::Options& o, std::uint64_t v) { o.inflight_window = v; }},
    // Operational cap on BatchSolve items per frame, at most the protocol
    // ceiling.
    {"--max-batch", 1, protocol::kMaxBatchItems,
     [](Server::Options& o, std::uint64_t v) { o.max_batch_items = v; }},
    // Overload bound: queue-refused requests parked per connection before
    // the server answers Overloaded (0 = never park).
    {"--max-parked", 0, std::uint64_t{1} << 20,
     [](Server::Options& o, std::uint64_t v) { o.max_parked = v; }},
    // Aggregate decoded bytes parked across all connections.
    {"--max-parked-bytes", 0, std::uint64_t{1} << 40,
     [](Server::Options& o, std::uint64_t v) { o.max_parked_bytes = v; }},
    // Close connections with no protocol progress and nothing in flight
    // after this many ms (0 = never; catches slowloris peers).
    {"--idle-timeout", 0, kU32Max,
     [](Server::Options& o, std::uint64_t v) {
       o.idle_timeout_ms = static_cast<std::uint32_t>(v);
     }},
    // Default deadline_ms for solve frames that carry none: still-queued
    // requests past it are shed with DeadlineExceeded (0 = none).
    {"--request-timeout", 0, kU32Max,
     [](Server::Options& o, std::uint64_t v) {
       o.default_deadline_ms = static_cast<std::uint32_t>(v);
     }},
    // Worker watchdog: a solve with no progress heartbeat for this long
    // gets its cancel token tripped (cooperatively — threads are never
    // killed) and answers Cancelled/DeadlineExceeded. 0 = off.
    {"--watchdog-ms", 0, kU32Max,
     [](Server::Options& o, std::uint64_t v) {
       o.service.watchdog_ms = static_cast<std::uint32_t>(v);
     }},
};

/// `text` as a plain decimal integer in [flag.lo, flag.hi] into `out`;
/// false with `error` set otherwise (sign, whitespace, trailing bytes,
/// overflow).
bool parse_in_range(const NumericFlag& flag, std::string_view text,
                    std::uint64_t* out, std::string* error) {
  std::uint64_t v = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || ptr != end || v < flag.lo ||
      v > flag.hi) {
    *error = std::string(flag.name) + ": expected an integer in [" +
             std::to_string(flag.lo) + ", " + std::to_string(flag.hi) +
             "], got '" + std::string(text) + "'";
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

DaemonArgs parse_daemon_args(std::span<const char* const> args) {
  DaemonArgs out;
  Server::Options& opts = out.options;
  opts.port = kDefaultDaemonPort;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string_view arg = args[i];
    if (arg == "--no-cache") {
      opts.service.use_cache = false;
      continue;
    }
    const bool is_text = arg == "--host" || arg == "--cache-dir";
    const NumericFlag* const flag = std::find_if(
        std::begin(kNumericFlags), std::end(kNumericFlags),
        [&](const NumericFlag& f) { return f.name == arg; });
    if (!is_text && flag == std::end(kNumericFlags)) {
      out.error = "unknown flag '" + std::string(arg) + "'";
      return out;
    }
    if (i + 1 >= args.size()) {
      out.error = std::string(arg) + ": missing value";
      return out;
    }
    const std::string_view value = args[++i];
    if (is_text) {
      if (value.empty()) {
        out.error = std::string(arg) + ": empty value";
        return out;
      }
      // --cache-dir: the persistent L2 under the RAM cache; survives
      // restarts, shared by any number of copathd processes pointed at
      // the same directory.
      (arg == "--host" ? opts.host : opts.service.persist.dir) = value;
      continue;
    }
    std::uint64_t v = 0;
    if (!parse_in_range(*flag, value, &v, &out.error)) return out;
    flag->set(opts, v);
  }
  out.ok = true;
  return out;
}

}  // namespace copath::net
