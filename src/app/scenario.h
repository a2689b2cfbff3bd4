// Scenario registry: the seam between experiment code and every driver.
//
// A Scenario bundles a name, a one-line description, a declared parameter
// schema and a run function.  Scenarios register into a ScenarioRegistry
// (usually the process-global one) and are then reachable uniformly from the
// numfabric_run CLI, the bench/fig* figure wrappers and the test suite:
//
//   app::register_builtin_scenarios();
//   const app::Scenario* s = app::ScenarioRegistry::global().find("incast");
//   app::MetricWriter metrics;
//   app::RunContext ctx{resolved_options, transport::Scheme::kNumFabric,
//                       metrics};
//   s->run(ctx);
//   metrics.write_csv(std::cout);
//
// Every scenario accepts the cross-cutting `transport` switch (parsed by the
// driver into RunContext::scheme) plus its declared key=value parameters.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "app/metrics.h"
#include "app/options.h"
#include "sim/time.h"
#include "transport/flow.h"

namespace numfabric::app {

/// One declared parameter: the scenario's config schema is the list of these.
struct ParamSpec {
  std::string key;
  std::string default_value;
  std::string help;
};

/// One run's view of its scenario's declared knobs.  Each read returns the
/// given value, else the declared default, and throws std::invalid_argument
/// when the value does not parse.  Reading a key the scenario does not
/// declare throws std::logic_error: it is a bug in the scenario, and the
/// registry smoke test runs every scenario, so such a typo cannot ship.
class Knobs {
 public:
  Knobs(std::string scenario, const std::vector<ParamSpec>& declared,
        const Options& given);

  bool declares(const std::string& key) const { return values_.has(key); }
  /// True when the run set the key rather than taking its default.
  bool given(const std::string& key) const {
    return given_.count(checked(key)) > 0;
  }
  std::string text(const std::string& key) const {
    return values_.get(checked(key), "");
  }
  double real(const std::string& key) const {
    return values_.get_double(checked(key), 0);
  }
  /// Values outside int's range throw instead of wrapping.
  int integer(const std::string& key) const {
    return values_.get_int32(checked(key), 0);
  }
  /// Any 64-bit integer, reinterpreted as an RNG seed.
  std::uint64_t seed(const std::string& key) const {
    return static_cast<std::uint64_t>(values_.get_int(checked(key), 0));
  }
  /// A millisecond knob as simulated time.
  sim::TimeNs ms(const std::string& key) const {
    return static_cast<sim::TimeNs>(real(key) * 1e6);
  }
  std::vector<double> reals(const std::string& key) const {
    return values_.get_double_list(checked(key), {});
  }
  std::vector<int> integers(const std::string& key) const {
    return values_.get_int_list(checked(key), {});
  }

 private:
  const std::string& checked(const std::string& key) const;

  std::string scenario_;
  Options values_;  // every declared key: the given value, else its default
  std::set<std::string> given_;
};

struct RunContext {
  /// The given options: config file, then CLI flags.  Built-in scenarios
  /// read them through their declared ParamSpecs, which supply the default
  /// of every absent key (the paper-scale one when full_scale is set).
  const Options& options;
  /// The --transport switch, already parsed.
  transport::Scheme scheme = transport::Scheme::kNumFabric;
  MetricWriter& metrics;
  /// True under --full or NUMFABRIC_FULL=1: scenarios scale to paper size.
  bool full_scale = false;
  /// --solver-threads: wave-parallel NUM oracle solves (bit-identical to 1).
  int solver_threads = 1;
};

struct Scenario {
  std::string name;
  std::string description;
  /// Paper figure/table this reproduces ("" for exploratory scenarios).
  std::string figure;
  std::vector<ParamSpec> params;
  std::function<void(RunContext&)> run;
};

class ScenarioRegistry {
 public:
  /// The process-global registry the CLI and figure wrappers use.
  static ScenarioRegistry& global();

  /// Registers a scenario.  Throws std::invalid_argument on an empty name,
  /// a missing run function or a duplicate name.
  void add(Scenario scenario);

  /// nullptr when unknown.
  const Scenario* find(const std::string& name) const;

  /// All scenarios ordered by name.
  std::vector<const Scenario*> list() const;

  std::size_t size() const { return scenarios_.size(); }
  bool empty() const { return scenarios_.empty(); }

 private:
  // Keyed by name; map nodes are stable, so find() pointers stay valid as
  // more scenarios register.
  std::map<std::string, Scenario> scenarios_;
};

/// Parses a --transport value ("numfabric", "dctcp", "pfabric", "rcp",
/// "dgd"; case-insensitive, "rcp*" accepted).  Throws std::invalid_argument
/// on anything else.
transport::Scheme parse_scheme(const std::string& name);

/// Lower-case CLI token for a scheme (inverse of parse_scheme).
std::string scheme_token(transport::Scheme scheme);

/// Parses a `topology=` token: leaf-spine "HxLxS" (hosts per leaf x leaves x
/// spines) or, when allow_jellyfish, "jellyfish:S,r,H" (switches, ports per
/// switch, hosts).  Strict: exactly three fields, each decimal digits only
/// and in [1, INT_MAX].  Anything else throws std::invalid_argument naming
/// the token; a Jellyfish token gets the HxLxS message unless allowed.
std::array<int, 3> parse_topology_token(const std::string& token,
                                        bool allow_jellyfish);

/// Registers the built-in scenarios (ported figure experiments + the
/// incast / permutation / shuffle / FCT-sweep traffic families) into the
/// global registry.  Idempotent.
void register_builtin_scenarios();

}  // namespace numfabric::app
