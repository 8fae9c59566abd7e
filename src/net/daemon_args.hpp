// copathd's command line, parsed into net::Server::Options.
//
// Every numeric flag is range-checked: a value that is not a plain decimal
// integer, or that falls outside the flag's range, is a structured error —
// never a silent wrap (`--workers -1` as 2^64 - 1 threads) or a silent
// zero (`--port abc` binding an ephemeral port). The daemon prints the
// error and exits 2; parsing itself has no side effects, so tests drive it
// without starting a server.
#pragma once

#include <span>
#include <string>

#include "net/server.hpp"

namespace copath::net {

/// The port copathd listens on when --port is absent.
inline constexpr std::uint16_t kDefaultDaemonPort = 7431;

struct DaemonArgs {
  bool ok = false;
  /// Why parsing failed (empty when ok), e.g.
  /// "--port: expected an integer in [0, 65535], got 'abc'".
  std::string error;
  Server::Options options;
};

/// Parses copathd's arguments (argv without argv[0]).
[[nodiscard]] DaemonArgs parse_daemon_args(
    std::span<const char* const> args);

}  // namespace copath::net
