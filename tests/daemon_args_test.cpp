// copathd's flag parser (net/daemon_args.hpp): every numeric flag is
// range-checked and a bad value is a structured error, never a silent wrap
// or zero. Parsing has no side effects — no server, no worker threads.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "net/daemon_args.hpp"

namespace copath::net {
namespace {

DaemonArgs parse(std::initializer_list<const char*> args) {
  const std::vector<const char*> v(args);
  return parse_daemon_args(v);
}

TEST(DaemonArgs, DefaultsWithNoFlags) {
  const DaemonArgs a = parse({});
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.options.port, kDefaultDaemonPort);
  EXPECT_EQ(a.options.host, "127.0.0.1");
  EXPECT_TRUE(a.options.service.use_cache);
}

TEST(DaemonArgs, EveryFlagParsesItsValue) {
  const DaemonArgs a = parse(
      {"--host", "0.0.0.0", "--port", "0", "--workers", "2", "--queue", "8",
       "--window", "32", "--max-batch", "16", "--no-cache", "--cache-dir",
       "l2", "--max-parked", "0", "--max-parked-bytes", "1048576",
       "--idle-timeout", "500", "--request-timeout", "4294967295",
       "--watchdog-ms", "250"});
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.options.host, "0.0.0.0");
  EXPECT_EQ(a.options.port, 0u);
  EXPECT_EQ(a.options.service.workers, 2u);
  EXPECT_EQ(a.options.service.queue_capacity, 8u);
  EXPECT_EQ(a.options.inflight_window, 32u);
  EXPECT_EQ(a.options.max_batch_items, 16u);
  EXPECT_FALSE(a.options.service.use_cache);
  EXPECT_EQ(a.options.service.persist.dir, "l2");
  EXPECT_EQ(a.options.max_parked, 0u);
  EXPECT_EQ(a.options.max_parked_bytes, 1048576u);
  EXPECT_EQ(a.options.idle_timeout_ms, 500u);
  EXPECT_EQ(a.options.default_deadline_ms, 4294967295u);
  EXPECT_EQ(a.options.service.watchdog_ms, 250u);
}

TEST(DaemonArgs, NonNumericPortIsRefusedNotAnEphemeralBind) {
  const DaemonArgs a = parse({"--port", "abc"});
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(a.error, "--port: expected an integer in [0, 65535], got 'abc'");
}

TEST(DaemonArgs, NegativeWorkerCountIsRefusedNotWrapped) {
  const DaemonArgs a = parse({"--workers", "-1"});
  EXPECT_FALSE(a.ok);
  EXPECT_NE(a.error.find("--workers"), std::string::npos) << a.error;
  EXPECT_NE(a.error.find("'-1'"), std::string::npos) << a.error;
}

TEST(DaemonArgs, OutOfRangeAndMalformedNumbersAreRefused) {
  const std::vector<std::pair<const char*, const char*>> bad = {
      {"--port", "65536"},
      {"--port", "-0"},
      {"--port", "+80"},
      {"--port", " 80"},
      {"--port", "80 "},
      {"--port", "8080x"},
      {"--port", ""},
      {"--workers", "1025"},
      {"--workers", "99999999999999999999999"},
      {"--queue", "0"},
      {"--window", "0"},
      {"--max-batch", "0"},
      {"--max-batch", "1025"},
      {"--max-parked", "-5"},
      {"--idle-timeout", "4294967296"},
      {"--request-timeout", "1.5"},
      {"--watchdog-ms", "1e3"},
  };
  for (const auto& [flag, value] : bad) {
    const DaemonArgs a = parse({flag, value});
    EXPECT_FALSE(a.ok) << flag << " '" << value << "' was accepted";
    EXPECT_EQ(a.error.rfind(flag, 0), 0u) << a.error;
  }
}

TEST(DaemonArgs, MissingValuesEmptyPathsAndUnknownFlagsAreRefused) {
  DaemonArgs a = parse({"--port"});
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(a.error, "--port: missing value");
  a = parse({"--cache-dir", ""});
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(a.error, "--cache-dir: empty value");
  a = parse({"--bogus"});
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(a.error, "unknown flag '--bogus'");
  a = parse({"--workers", "2", "--frobnicate", "1"});
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(a.error, "unknown flag '--frobnicate'");
}

}  // namespace
}  // namespace copath::net
