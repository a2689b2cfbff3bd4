// Tests for the src/app scenario subsystem: registry mechanics, option
// parsing round-trips, metric serialization, and a tiny-scale smoke run of
// every registered scenario (so CI exercises each one end to end).
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/driver.h"
#include "app/metrics.h"
#include "app/options.h"
#include "app/scenario.h"

namespace numfabric::app {
namespace {

// --- registry mechanics ----------------------------------------------------

Scenario make_scenario(const std::string& name) {
  Scenario scenario;
  scenario.name = name;
  scenario.description = "test scenario";
  scenario.run = [](RunContext&) {};
  return scenario;
}

TEST(ScenarioRegistryTest, RegistersAndFinds) {
  ScenarioRegistry registry;
  registry.add(make_scenario("beta"));
  registry.add(make_scenario("alpha"));
  EXPECT_EQ(registry.size(), 2u);
  ASSERT_NE(registry.find("alpha"), nullptr);
  EXPECT_EQ(registry.find("alpha")->name, "alpha");
  EXPECT_EQ(registry.find("missing"), nullptr);

  // list() is ordered by name.
  const auto all = registry.list();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->name, "alpha");
  EXPECT_EQ(all[1]->name, "beta");
}

TEST(ScenarioRegistryTest, RejectsDuplicatesAndInvalid) {
  ScenarioRegistry registry;
  registry.add(make_scenario("dup"));
  EXPECT_THROW(registry.add(make_scenario("dup")), std::invalid_argument);
  EXPECT_THROW(registry.add(make_scenario("")), std::invalid_argument);
  Scenario no_run = make_scenario("no-run");
  no_run.run = nullptr;
  EXPECT_THROW(registry.add(std::move(no_run)), std::invalid_argument);
}

TEST(ScenarioRegistryTest, FindPointersSurviveLaterRegistrations) {
  ScenarioRegistry registry;
  registry.add(make_scenario("first"));
  const Scenario* first = registry.find("first");
  for (int i = 0; i < 100; ++i) {
    registry.add(make_scenario("filler-" + std::to_string(i)));
  }
  EXPECT_EQ(registry.find("first"), first);
}

TEST(SchemeParseTest, RoundTripsAllSchemes) {
  using transport::Scheme;
  for (const Scheme scheme : {Scheme::kNumFabric, Scheme::kDgd,
                              Scheme::kRcpStar, Scheme::kDctcp,
                              Scheme::kPFabric}) {
    EXPECT_EQ(parse_scheme(scheme_token(scheme)), scheme);
  }
  EXPECT_EQ(parse_scheme("NUMFabric"), Scheme::kNumFabric);
  EXPECT_EQ(parse_scheme("RCP*"), Scheme::kRcpStar);
  EXPECT_THROW(parse_scheme("quic"), std::invalid_argument);
}

// --- option parsing --------------------------------------------------------

TEST(OptionsTest, ParsesTokens) {
  const Options options = Options::from_tokens(
      {"--alpha=2.5", "flows=100", "--verbose", "name=web search"});
  EXPECT_DOUBLE_EQ(options.get_double("alpha", 0), 2.5);
  EXPECT_EQ(options.get_int("flows", 0), 100);
  EXPECT_EQ(options.get("verbose", ""), "true");  // bare flag
  EXPECT_EQ(options.get("name", ""), "web search");
  EXPECT_EQ(options.get("absent", "fallback"), "fallback");
}

TEST(OptionsTest, TypedGettersRejectGarbage) {
  const Options options = Options::from_tokens({"x=abc"});
  EXPECT_THROW(options.get_double("x", 0), std::invalid_argument);
  EXPECT_THROW(options.get_int("x", 0), std::invalid_argument);
  EXPECT_THROW(options.get_int32("x", 0), std::invalid_argument);
  EXPECT_THROW(Options::from_tokens({""}), std::invalid_argument);
  EXPECT_THROW(Options::from_tokens({"=v"}), std::invalid_argument);
}

TEST(OptionsTest, ParsesConfigTextWithCommentsAndRoundTrips) {
  const Options options = Options::from_config_text(
      "# experiment sweep\n"
      "load = 0.6   # offered load\n"
      "\n"
      "transports = numfabric, dgd, rcp\n");
  EXPECT_DOUBLE_EQ(options.get_double("load", 0), 0.6);
  const auto list = options.get_list("transports", {});
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], "numfabric");
  EXPECT_EQ(list[2], "rcp");
  EXPECT_THROW(Options::from_config_text("no equals sign"),
               std::invalid_argument);

  // Serialize -> reparse -> identical map.
  const Options reparsed = Options::from_config_text(options.to_config_text());
  EXPECT_EQ(reparsed.values(), options.values());
}

TEST(OptionsTest, NumericListsValidateEveryElement) {
  const Options options =
      Options::from_tokens({"loads=0.2, 0.4,0.8", "subflows=1,2,8"});
  const auto loads = options.get_double_list("loads", {});
  ASSERT_EQ(loads.size(), 3u);
  EXPECT_DOUBLE_EQ(loads[1], 0.4);
  const auto subflows = options.get_int_list("subflows", {});
  ASSERT_EQ(subflows.size(), 3u);
  EXPECT_EQ(subflows[2], 8);
  EXPECT_EQ(options.get_double_list("absent", {1.5})[0], 1.5);

  // Trailing junk inside any element is rejected, not truncated.
  const Options bad = Options::from_tokens({"loads=0.4x,0.6", "n=2.5"});
  EXPECT_THROW(bad.get_double_list("loads", {}), std::invalid_argument);
  EXPECT_THROW(bad.get_int_list("n", {}), std::invalid_argument);
}

// Knobs stored in `int` fields must fail outside int's range instead of
// wrapping (4294967297 used to run as 1).
TEST(OptionsTest, IntReadsRejectValuesOutsideInt) {
  const Options options = Options::from_tokens(
      {"flows=4294967297", "concurrent=4294967306", "subflows=1,4294967297",
       "max=2147483647", "min=-2147483648", "below=-2147483649"});
  EXPECT_THROW(options.get_int32("flows", 0), std::invalid_argument);
  EXPECT_THROW(options.get_int32("concurrent", 0), std::invalid_argument);
  EXPECT_THROW(options.get_int_list("subflows", {}), std::invalid_argument);
  EXPECT_THROW(options.get_int32("below", 0), std::invalid_argument);
  EXPECT_EQ(options.get_int32("max", 0), 2147483647);
  EXPECT_EQ(options.get_int32("min", 0), -2147483648LL);
  EXPECT_EQ(options.get_int32("absent", 7), 7);
  // 64-bit reads (seeds) keep the full range.
  EXPECT_EQ(options.get_int("flows", 0), 4294967297LL);
}

TEST(OptionsTest, MergeLaterWins) {
  Options base = Options::from_tokens({"a=1", "b=2"});
  base.merge(Options::from_tokens({"b=3", "c=4"}));
  EXPECT_EQ(base.get_int("a", 0), 1);
  EXPECT_EQ(base.get_int("b", 0), 3);
  EXPECT_EQ(base.get_int("c", 0), 4);
}

// --- declared knobs --------------------------------------------------------

TEST(KnobsTest, GivenValueElseDeclaredDefault) {
  const std::vector<ParamSpec> declared = {{"flows", "600", ""},
                                           {"alpha", "1", ""},
                                           {"loads", "0.2,0.4", ""},
                                           {"topology", "", ""}};
  const Options given = Options::from_tokens({"alpha=2.5", "topology=2x2x1"});
  const Knobs k("demo", declared, given);
  EXPECT_EQ(k.integer("flows"), 600);
  EXPECT_DOUBLE_EQ(k.real("alpha"), 2.5);
  EXPECT_EQ(k.reals("loads"), (std::vector<double>{0.2, 0.4}));
  EXPECT_EQ(k.text("topology"), "2x2x1");
  EXPECT_TRUE(k.given("alpha"));
  EXPECT_FALSE(k.given("flows"));
  EXPECT_TRUE(k.declares("flows"));
  EXPECT_FALSE(k.declares("flow"));
}

TEST(KnobsTest, UndeclaredReadIsALogicErrorAndBadValuesThrow) {
  const Knobs k("demo", {{"flows", "600", ""}},
                Options::from_tokens({"flows=4294967297", "stray=1"}));
  EXPECT_THROW(k.real("flow"), std::logic_error);
  EXPECT_THROW(k.given("stray"), std::logic_error);  // given but undeclared
  EXPECT_THROW(k.integer("flows"), std::invalid_argument);
  EXPECT_EQ(k.seed("flows"), 4294967297ull);
}

// --- topology tokens -------------------------------------------------------

// Seeded-random property test of the `topology=` grammar: every valid
// triple parses back to exactly its fields, and every mutation of it fails
// with std::invalid_argument naming the token.
TEST(TopologyTokenTest, RandomTokensParseExactlyOrFailNamingTheToken) {
  std::mt19937_64 rng(20160822);
  const auto field = [&rng] {
    // Mix small fabrics with values up to INT_MAX.
    return rng() % 2 == 0 ? static_cast<int>(1 + rng() % 64)
                          : static_cast<int>(1 + rng() % 2147483647);
  };
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  int tokens = 0;
  const auto expect_rejected = [&](const std::string& token, bool jellyfish) {
    ++tokens;
    try {
      parse_topology_token(token, jellyfish);
      ADD_FAILURE() << "accepted '" << token << "'";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("'" + token + "'"),
                std::string::npos)
          << error.what();
    }
  };
  for (int i = 0; i < 2000; ++i) {
    const bool jellyfish = i % 2 == 1;
    const std::string prefix = jellyfish ? "jellyfish:" : "";
    const char separator = jellyfish ? ',' : 'x';
    std::vector<std::string> fields;
    std::array<int, 3> values{};
    for (int& value : values) {
      value = field();
      fields.push_back(std::to_string(value));
    }
    const auto join = [&](const std::vector<std::string>& parts) {
      std::string token = prefix;
      for (std::size_t p = 0; p < parts.size(); ++p) {
        token += (p == 0 ? "" : std::string(1, separator)) + parts[p];
      }
      return token;
    };
    const std::string valid = join(fields);
    ++tokens;
    EXPECT_EQ(parse_topology_token(valid, jellyfish), values) << valid;
    if (jellyfish) expect_rejected(valid, false);  // leaf-spine-only reader

    const std::size_t f = pick(3);
    std::vector<std::string> mutated = fields;
    mutated[f].insert(0, rng() % 2 == 0 ? "+" : "-");  // a sign
    expect_rejected(join(mutated), jellyfish);

    std::string spaced = valid;  // a space anywhere
    spaced.insert(pick(spaced.size() + 1), " ");
    expect_rejected(spaced, jellyfish);

    mutated = fields;  // a 4th field
    mutated.push_back(std::to_string(field()));
    expect_rejected(join(mutated), jellyfish);

    mutated = fields;  // a missing field
    mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(f));
    expect_rejected(join(mutated), jellyfish);

    mutated = fields;  // zero
    mutated[f] = rng() % 2 == 0 ? "0" : "000";
    expect_rejected(join(mutated), jellyfish);

    mutated = fields;  // a value >= 2^31, up to past int64
    mutated[f] = rng() % 2 == 0
                     ? std::to_string(2147483648ull + rng() % (1ull << 62))
                     : "99999999999999999999";
    expect_rejected(join(mutated), jellyfish);

    mutated = fields;  // a non-digit
    const std::string junk = "abXyz.;:/=_ \t";
    mutated[f][pick(mutated[f].size())] = junk[pick(junk.size())];
    expect_rejected(join(mutated), jellyfish);
  }
  EXPECT_GE(tokens, 10000);
}

// --- metric emission -------------------------------------------------------

TEST(MetricsTest, CsvAndJsonSerialization) {
  MetricWriter metrics;
  metrics.scalar("scenario", "demo");
  metrics.scalar("events", 42);
  MetricTable& table = metrics.table("rates", {"flow", "rate_mbps"});
  table.add_row({"a", 125.5});
  table.add_row({"b", 250});
  EXPECT_THROW(table.add_row({"only-one-cell"}), std::invalid_argument);
  EXPECT_THROW(metrics.table("rates", {"different"}), std::invalid_argument);
  // Same name + same columns returns the same table.
  EXPECT_EQ(&metrics.table("rates", {"flow", "rate_mbps"}), &table);

  std::ostringstream csv;
  metrics.write_csv(csv);
  EXPECT_EQ(csv.str(),
            "# scalar,scenario,demo\n"
            "# scalar,events,42\n"
            "# table,rates\n"
            "flow,rate_mbps\n"
            "a,125.5\n"
            "b,250\n");

  std::ostringstream json;
  metrics.write_json(json);
  EXPECT_NE(json.str().find("\"scenario\": \"demo\""), std::string::npos);
  EXPECT_NE(json.str().find("\"events\": 42"), std::string::npos);
  EXPECT_NE(json.str().find("[\"b\", 250]"), std::string::npos);
}

// --- built-in catalog ------------------------------------------------------

TEST(BuiltinScenariosTest, RegistersAtLeastEightAndIsIdempotent) {
  register_builtin_scenarios();
  register_builtin_scenarios();  // second call must be a no-op
  ScenarioRegistry& registry = ScenarioRegistry::global();
  EXPECT_GE(registry.size(), 8u);
  // The ported figure experiments and the new traffic families.
  for (const char* name :
       {"convergence", "rate-timeseries", "dynamic-deviation",
        "fct-vs-pfabric", "resource-pooling", "bwfunc-sweep", "bwfunc-pooling",
        "incast", "permutation", "shuffle", "websearch-fct", "datamining-fct",
        "sensitivity", "trace-replay", "oversub-fabric", "background-burst"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
}

// Tiny-scale parameters so every scenario finishes in CI time.  A scenario
// registered without an entry here fails the smoke test by design.
const std::map<std::string, std::vector<std::string>>& smoke_params() {
  static const std::map<std::string, std::vector<std::string>> params = {
      {"convergence",
       {"hosts_per_leaf=4", "leaves=2", "spines=2", "paths=24",
        "initial_active=10", "flows_per_event=4", "events=1", "min_active=6",
        "max_active=14", "seed=3"}},
      {"rate-timeseries",
       {"hosts_per_leaf=2", "leaves=2", "spines=1", "paths=8",
        "initial_active=4", "flows_per_event=2", "events=2", "min_active=2",
        "max_active=6", "event_interval_ms=2", "seed=4"}},
      {"dynamic-deviation",
       {"hosts_per_leaf=2", "leaves=2", "spines=1", "flows=40",
        "horizon_ms=300", "seed=11"}},
      {"fct-vs-pfabric",
       {"hosts_per_leaf=2", "leaves=2", "spines=1", "loads=0.4", "flows=40",
        "seed=5"}},
      {"resource-pooling",
       {"hosts_per_leaf=2", "leaves=2", "spines=2", "subflows=1,2",
        "warmup_ms=3", "measure_ms=4", "seed=2"}},
      {"bwfunc-sweep", {"capacities_gbps=25", "warmup_ms=6", "measure_ms=6"}},
      {"bwfunc-pooling", {"switch_ms=8", "end_ms=16"}},
      {"incast",
       {"hosts_per_leaf=2", "leaves=2", "spines=1", "fanin=3", "flow_kb=32",
        "horizon_ms=100"}},
      {"permutation",
       {"hosts_per_leaf=2", "leaves=2", "spines=1", "warmup_ms=2",
        "measure_ms=3"}},
      {"shuffle",
       {"hosts_per_leaf=2", "leaves=2", "spines=1", "flow_kb=50",
        "horizon_ms=100"}},
      {"websearch-fct",
       {"hosts_per_leaf=2", "leaves=2", "spines=1", "loads=0.3", "flows=40",
        "horizon_ms=300"}},
      {"datamining-fct",
       {"hosts_per_leaf=2", "leaves=2", "spines=1", "loads=0.3", "flows=30",
        "horizon_ms=150"}},
      {"sensitivity",
       {"hosts_per_leaf=2", "leaves=2", "spines=1", "paths=8",
        "initial_active=4", "flows_per_event=2", "events=1", "min_active=2",
        "max_active=6", "timeout_ms=10", "seed=3"}},
      {"trace-replay",
       {"hosts_per_leaf=2", "leaves=2", "spines=1", "horizon_ms=200"}},
      {"oversub-fabric",
       {"topology=2x2x2", "oversub=4", "shuffle_kb=20", "warmup_ms=1",
        "measure_ms=2", "horizon_ms=100"}},
      {"background-burst",
       {"hosts_per_leaf=2", "leaves=2", "spines=1", "background_load=0.5",
        "fanin=2", "burst_kb=10", "burst_interval_ms=1", "bursts=2",
        "warmup_ms=1", "horizon_ms=100"}},
      {"mega-fct",
       {"topology=4x2x2", "concurrent=200", "resolve_us=500", "horizon_s=5",
        "seed=7"}},
  };
  return params;
}

TEST(BuiltinScenariosTest, EveryScenarioSmokeRunsAndEmitsMetrics) {
  register_builtin_scenarios();
  for (const Scenario* scenario : ScenarioRegistry::global().list()) {
    const auto it = smoke_params().find(scenario->name);
    ASSERT_NE(it, smoke_params().end())
        << "scenario '" << scenario->name
        << "' has no tiny-scale smoke parameters; add them to this test";

    const Options options = Options::from_tokens(it->second);
    // Every smoke key must be declared in the scenario's schema.
    for (const auto& [key, value] : options.values()) {
      bool declared = false;
      for (const ParamSpec& param : scenario->params) {
        if (param.key == key) declared = true;
      }
      EXPECT_TRUE(declared) << scenario->name << ": undeclared key " << key;
    }

    MetricWriter metrics;
    RunContext ctx{options, transport::Scheme::kNumFabric, metrics, false};
    ASSERT_NO_THROW(scenario->run(ctx)) << scenario->name;

    bool has_rows = false;
    for (const auto& table : metrics.tables()) {
      if (!table->rows().empty()) has_rows = true;
    }
    EXPECT_TRUE(has_rows) << scenario->name << " emitted no metric rows";

    // Both serializations must succeed on real scenario output.
    std::ostringstream csv, json;
    metrics.write_csv(csv);
    metrics.write_json(json);
    EXPECT_FALSE(csv.str().empty()) << scenario->name;
    EXPECT_FALSE(json.str().empty()) << scenario->name;
  }
}

TEST(DriverTest, RejectsUnknownScenarioAndBadFormat) {
  EXPECT_EQ(run_cli({"--scenario=definitely-not-registered"}), 2);
  EXPECT_EQ(run_cli({"--scenario=incast", "--format=xml"}), 2);
  EXPECT_EQ(run_cli(std::vector<std::string>{}), 2);  // missing --scenario
}

// Integer knobs outside int's range fail instead of running a wrapped value
// (flows=4294967297 ran 1 flow, concurrent=4294967306 ran 10).
TEST(DriverTest, RejectsIntKnobsOutsideInt) {
  EXPECT_EQ(run_cli({"--scenario=websearch-fct", "flows=4294967297"}), 1);
  EXPECT_EQ(run_cli({"--scenario=mega-fct", "concurrent=4294967306"}), 1);
  EXPECT_EQ(run_cli({"--scenario=resource-pooling", "subflows=4294967297"}),
            1);
}

// The fabric and fidelity facets validate every knob they declare, even on
// the branch that does not run, and the topology token is parsed strictly.
TEST(DriverTest, ValidatesKnobsOnTheBranchThatDoesNotRun) {
  EXPECT_EQ(run_cli({"--scenario=incast", "incremental=maybe"}), 1);
  EXPECT_EQ(run_cli({"--scenario=incast", "resolve_us=-5"}), 1);
  EXPECT_EQ(run_cli({"--scenario=incast", "topology=2x2x1", "k_paths=0"}), 1);
  EXPECT_EQ(run_cli({"--scenario=incast", "topology=2x2x1", "jf_seed=x"}), 1);
  for (const char* token :
       {"topology=4294967298x1x2", "topology=2x+2x1", "topology=2x 2x1",
        "topology=jellyfish:6, 3,+8", "topology=2x2x1x"}) {
    EXPECT_EQ(run_cli({"--scenario=incast", token}), 1) << token;
  }
  // Jellyfish stays rejected where only leaf-spine is declared.
  EXPECT_EQ(run_cli({"--scenario=convergence", "topology=jellyfish:6,3,8"}),
            1);
}

// There is no sharded engine and no threaded control-plane sweep: --shards
// and --control-threads are undeclared keys and must fail loudly.
TEST(DriverTest, RejectsDeletedParallelFlags) {
  EXPECT_EQ(run_cli({"--scenario=incast", "--shards=2"}), 2);
  EXPECT_EQ(run_cli({"--scenario=incast", "--control-threads=4"}), 2);
}

}  // namespace
}  // namespace numfabric::app
