// Freezes the CLI's schema surface: the exact stdout bytes of `--list` and
// of every `--describe=<name>`, as FNV-1a 64 hashes.  Scenario names, help
// texts, declared defaults and the fidelity column are user-facing; a
// refactor of how scenarios declare their knobs must leave them unchanged.
//
// If a change intentionally alters the schema, rerun the test: the failure
// message prints the new hash to paste into the table below.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "app/driver.h"
#include "app/scenario.h"

namespace numfabric::app {
namespace {

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  std::ostringstream out;
  out << std::hex << hash;
  return out.str();
}

std::string captured_stdout(const std::vector<std::string>& args) {
  testing::internal::CaptureStdout();
  const int code = run_cli(args);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(code, 0) << args[0];
  return out;
}

// Keyed by the CLI argument that produced the output.
const std::map<std::string, std::string>& frozen_hashes() {
  static const std::map<std::string, std::string> hashes = {
      {"--list", "6fa725c5f64266f9"},
      {"--describe=background-burst", "2f41bfae31e788b7"},
      {"--describe=bwfunc-pooling", "d753f4c5a68e8001"},
      {"--describe=bwfunc-sweep", "2bb42d6a5dc0074b"},
      {"--describe=convergence", "29fee9f603ee2628"},
      {"--describe=datamining-fct", "abb00936e7bdbbf0"},
      {"--describe=dynamic-deviation", "75fc1615c4d44ee6"},
      {"--describe=fct-vs-pfabric", "6d279f1fb40c9fb0"},
      {"--describe=incast", "c5024250c2e0f777"},
      {"--describe=mega-fct", "5a7aff98819e0565"},
      {"--describe=oversub-fabric", "596d2e9dec9a2f15"},
      {"--describe=permutation", "aca2434f58710b97"},
      {"--describe=rate-timeseries", "c9326cd2e627e198"},
      {"--describe=resource-pooling", "28ae9ef7bc92db6b"},
      {"--describe=sensitivity", "923d9b50c35247db"},
      {"--describe=shuffle", "d685382b02fe02d"},
      {"--describe=trace-replay", "eefe029fcd8b809a"},
      {"--describe=websearch-fct", "1c4cfd1d6d8b544b"},
  };
  return hashes;
}

TEST(CliSchemaTest, ListAndEveryDescribeMatchFrozenHashes) {
  register_builtin_scenarios();
  std::vector<std::string> args = {"--list"};
  for (const Scenario* scenario : ScenarioRegistry::global().list()) {
    args.push_back("--describe=" + scenario->name);
  }
  EXPECT_EQ(args.size(), frozen_hashes().size())
      << "a scenario was added or removed; update the frozen table";
  for (const std::string& arg : args) {
    const std::string hash = fnv1a_hex(captured_stdout({arg}));
    const auto it = frozen_hashes().find(arg);
    ASSERT_NE(it, frozen_hashes().end()) << arg << " has no frozen hash";
    EXPECT_EQ(hash, it->second) << arg << " output changed; new hash " << hash;
  }
}

}  // namespace
}  // namespace numfabric::app
