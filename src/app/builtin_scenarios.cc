// The built-in scenario catalog: the paper's figure experiments ported onto
// the registry, plus the traffic families the evaluation implies but the
// seed lacked (incast, permutation, all-to-all shuffle, FCT sweeps over the
// web-search and data-mining traces).
//
// Conventions shared by every scenario:
//  * a scenario is its declared knobs (ParamSpec) plus a body that reads
//    them through Knobs, so each default is written once, in its
//    declaration.  Declarations are built from the run's exp::Scale:
//    --describe shows the quick-scale defaults, --full the paper-scale ones;
//  * the fabric, fidelity and semi-dynamic population facets are each
//    declared by one function and read by one function;
//  * the driver's --transport switch arrives as RunContext::scheme;
//    comparative scenarios additionally take `transports=` (comma list) and
//    default it to that single scheme;
//  * results go through MetricWriter only — the driver decides CSV vs JSON.
#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "app/scenario.h"
#include "exp/bwfunc_experiment.h"
#include "exp/common.h"
#include "exp/contention_experiment.h"
#include "exp/dynamic_workload.h"
#include "exp/fct_experiment.h"
#include "exp/flow_fidelity.h"
#include "exp/pooling_experiment.h"
#include "exp/semi_dynamic.h"
#include "exp/trace_replay.h"
#include "exp/traffic_experiment.h"
#include "stats/summary.h"
#include "transport/numfabric/config.h"
#include "workload/size_distribution.h"
#include "workload/trace.h"

namespace numfabric::app {
namespace {

/// Declared-default text of a value that lives in a struct (6 -> "6").
std::string number(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

std::string millis_text(sim::TimeNs time) {
  return std::to_string(time / sim::kMillisecond);
}

// ---------------------------------------------------------------------------
// Parameter presets (`preset=classic|modern`).
//
// classic is the paper's 2016 testbed: 10G hosts, 40G spines, 2 us hops,
// 1500 B packets.  modern is a 2020s fabric: 400G hosts, 1600G spines,
// 50 ns hops (sub-us RTTs) and 4 KB jumbo-ish packets.  The preset only
// moves *defaults* — any explicit knob (host_gbps=, core_delay_us=, ...)
// still wins — and classic's are the declared ones, so classic runs are
// byte-identical to pre-preset output.
// ---------------------------------------------------------------------------

struct Preset {
  double host_gbps;
  double spine_gbps;
  double delay_us;
  std::uint32_t packet_bytes;
};
constexpr Preset kClassic{10.0, 40.0, 2.0, 1500};
constexpr Preset kModern{400.0, 1600.0, 0.05, 4096};

/// Scenarios without a `preset` knob run classic.
const Preset& preset_param(const Knobs& k) {
  if (!k.declares("preset")) return kClassic;
  const std::string token = k.text("preset");
  if (token == "classic") return kClassic;
  if (token == "modern") return kModern;
  throw std::invalid_argument("unknown preset '" + token +
                              "' (expected classic or modern)");
}

/// Applies the cross-cutting --solver-threads knob and the preset's packet
/// size to an experiment options struct.  Every fabric-backed struct embeds
/// a FabricOptions; the ones that run the NUM oracle also take
/// solver_threads.  The knob is bit-identity-preserving, so it never appears
/// in a scenario's declared parameter schema.
template <typename ExpOptions>
void apply_thread_context(const RunContext& ctx, const Knobs& k,
                          ExpOptions& options) {
  const Preset& preset = preset_param(k);
  // Classic's 1500 B is already every config's default.  Otherwise the
  // DCTCP marking threshold scales too, keeping the paper's 65-packet K.
  if (preset.packet_bytes != kClassic.packet_bytes) {
    transport::FabricOptions& fabric = options.fabric;
    fabric.numfabric.packet_bytes = preset.packet_bytes;
    fabric.dgd.packet_bytes = preset.packet_bytes;
    fabric.rcp.packet_bytes = preset.packet_bytes;
    fabric.dctcp.packet_bytes = preset.packet_bytes;
    fabric.dctcp.ecn_threshold_bytes =
        65 * static_cast<std::size_t>(preset.packet_bytes);
    fabric.pfabric.packet_bytes = preset.packet_bytes;
  }
  if constexpr (requires { options.solver_threads; }) {
    options.solver_threads = ctx.solver_threads;
  }
}

// ---------------------------------------------------------------------------
// The fabric facet: leaf-spine (the default) or Jellyfish.
//
// `topology=HxLxS` fixes the three leaf-spine counts in one sweepable token;
// `topology=jellyfish:S,r,H` is S switches of port-count r wired as a random
// regular graph (deterministic from jf_seed), H hosts round-robined across
// the switches, routed over the k_paths shortest paths per switch pair.  So
// `--sweep "topology=16x8x4, jellyfish:12,4,32"` fans a scenario across both
// fabric families.  Jellyfish is accepted where a scenario declares k_paths.
// ---------------------------------------------------------------------------

struct Fabric {
  net::LeafSpineOptions leaf_spine;
  std::optional<net::JellyfishOptions> jellyfish;
  int k_paths = 8;
  int hosts = 0;  // total hosts on either fabric
};

/// Reads the fabric facet: the topology token, the explicit counts it
/// conflicts with, per-tier rates and delays (preset-dependent), then the
/// `oversub=` re-rating (which derives the spine rate from host demand,
/// overriding spine_gbps).  Every declared knob is validated, whichever
/// fabric the token selects.
Fabric read_fabric(const Knobs& k) {
  const auto given = [&k](const std::string& key) {
    return k.declares(key) && k.given(key);
  };
  const std::string shape = k.text("topology");
  const bool jellyfish_ok = k.declares("k_paths");
  const bool jellyfish = jellyfish_ok && shape.rfind("jellyfish:", 0) == 0;
  for (const std::string key :
       {"hosts_per_leaf", "leaves", "spines", "oversub"}) {
    if (!given(key)) continue;
    if (jellyfish) {
      throw std::invalid_argument("topology=jellyfish:... has no " + key +
                                  "; drop it");
    }
    if (!shape.empty() && key != "oversub") {
      throw std::invalid_argument("topology= already fixes " + key +
                                  "; drop one of the two");
    }
  }
  const bool counts = shape.empty() && k.declares("hosts_per_leaf");
  const std::array<int, 3> token =
      counts ? std::array<int, 3>{} : parse_topology_token(shape, jellyfish_ok);

  // Computed defaults: the preset's rates and delays, unless given.
  const Preset& preset = preset_param(k);
  const auto preset_knob = [&](const std::string& key, double preset_value) {
    return given(key) ? k.real(key) : preset_value;
  };
  const double host_bps = preset_knob("host_gbps", preset.host_gbps) * 1e9;
  const double spine_bps = preset_knob("spine_gbps", preset.spine_gbps) * 1e9;
  const auto core_delay = static_cast<sim::TimeNs>(
      preset_knob("core_delay_us", preset.delay_us) * sim::kMicrosecond);
  const double oversub = given("oversub") ? k.real("oversub") : 0.0;
  if (oversub < 0) {
    throw std::invalid_argument("oversub must be >= 0 (0 = keep spine_gbps)");
  }
  Fabric fabric;
  if (jellyfish_ok) {
    fabric.k_paths = k.integer("k_paths");
    if (fabric.k_paths < 1) throw std::invalid_argument("k_paths must be >= 1");
  }
  const std::uint64_t jf_seed = jellyfish_ok ? k.seed("jf_seed") : 0;

  if (jellyfish) {
    fabric.jellyfish = net::JellyfishOptions{.switches = token[0],
                                             .ports = token[1],
                                             .hosts = token[2],
                                             .seed = jf_seed,
                                             .host_rate_bps = host_bps,
                                             .switch_rate_bps = spine_bps,
                                             .link_delay = core_delay};
    fabric.hosts = token[2];
    return fabric;
  }
  net::LeafSpineOptions& topo = fabric.leaf_spine;
  topo = {.hosts_per_leaf = counts ? k.integer("hosts_per_leaf")
                                   : token[0],
          .num_leaves = counts ? k.integer("leaves") : token[1],
          .num_spines = counts ? k.integer("spines") : token[2],
          .host_rate_bps = host_bps,
          .spine_rate_bps = spine_bps,
          .link_delay =
              static_cast<sim::TimeNs>(preset.delay_us * sim::kMicrosecond),
          .core_link_delay = core_delay};
  if (oversub > 0) topo = topo.with_oversubscription(oversub);
  fabric.hosts = topo.hosts_per_leaf * topo.num_leaves;
  return fabric;
}

std::vector<ParamSpec> merge_params(
    std::initializer_list<std::vector<ParamSpec>> lists) {
  std::vector<ParamSpec> all;
  for (const std::vector<ParamSpec>& list : lists) {
    all.insert(all.end(), list.begin(), list.end());
  }
  return all;
}

std::vector<ParamSpec> topology_params(const exp::Scale& s,
                                       bool with_jellyfish = false) {
  std::vector<ParamSpec> params = {
      {"topology", "",
       "fabric shape HxLxS (hosts_per_leaf x leaves x spines), e.g. 16x8x4; "
       "one sweepable token, conflicts with the three explicit keys"},
      {"hosts_per_leaf", std::to_string(s.hosts_per_leaf),
       "hosts per leaf switch (full scale: 16)"},
      {"leaves", std::to_string(s.leaves),
       "number of leaf switches (full scale: 8)"},
      {"spines", std::to_string(s.spines),
       "number of spine switches (full scale: 4)"},
      {"host_gbps", number(kClassic.host_gbps),
       "host NIC rate (preset=modern default: 400)"},
      {"spine_gbps", number(kClassic.spine_gbps),
       "leaf-to-spine / switch-to-switch link rate (preset=modern: 1600)"},
      {"oversub", "0",
       "core oversubscription ratio; > 0 re-rates spine links to "
       "hosts_per_leaf*host_gbps/(spines*oversub), overriding spine_gbps"},
      {"core_delay_us", number(kClassic.delay_us),
       "leaf-spine propagation delay (edge links track the preset; "
       "preset=modern: 0.05)"},
      {"preset", "classic",
       "parameter preset: classic (10G/40G, 2 us hops, 1500 B packets) or "
       "modern (400G/1600G, 50 ns hops, 4 KB packets); explicit knobs win"},
  };
  if (with_jellyfish) {
    params[0] = {
        "topology", "",
        "fabric shape: HxLxS leaf-spine (e.g. 16x8x4) or "
        "jellyfish:switches,ports,hosts (random regular graph, e.g. "
        "jellyfish:12,4,24); one sweepable token"};
    params.push_back({"jf_seed", "1",
                      "jellyfish only: random-regular-graph wiring seed"});
    params.push_back({"k_paths", "8",
                      "jellyfish only: k-shortest paths per switch pair"});
  }
  return params;
}

/// Effective scheme for single-transport scenarios: the sweepable
/// `transport=` parameter when set, else the driver's --transport switch.
transport::Scheme scheme_for(const RunContext& ctx) {
  const std::string token = ctx.options.get("transport", "");
  return token.empty() ? ctx.scheme : parse_scheme(token);
}

/// Computed default: the driver's --transport switch.
ParamSpec transport_param() {
  return {"transport", "<--transport>",
          "scheme for this run (sweepable; overrides --transport)"};
}

/// Computed default: the driver's --transport switch, as a one-item list.
std::vector<transport::Scheme> transports_param(const RunContext& ctx) {
  std::vector<transport::Scheme> schemes;
  for (const std::string& token :
       ctx.options.get_list("transports", {scheme_token(ctx.scheme)})) {
    schemes.push_back(parse_scheme(token));
  }
  return schemes;
}

double percentile_or_nan(const std::vector<double>& samples, double p) {
  return samples.empty() ? std::numeric_limits<double>::quiet_NaN()
                         : stats::percentile(samples, p);
}

/// KB-sized knobs become unsigned byte counts; a negative value would wrap
/// to an absurd size, so reject it here.
std::uint64_t kb_to_bytes(const Knobs& k, const std::string& key) {
  const int kb = k.integer(key);
  if (kb < 0) {
    throw std::invalid_argument(key + " must be >= 0 (got " +
                                std::to_string(kb) + ")");
  }
  return static_cast<std::uint64_t>(kb) * 1000;
}

// ---------------------------------------------------------------------------
// The fidelity facet (`fidelity=packet|flow`).
//
// Scenarios that declare fidelity_params() can swap the packet substrate for
// the flow-fluid engine (src/flowsim/): same workload draw, same paths, same
// output tables, but epochs + warm NUM re-solves instead of packet events.
// Scenarios without the declaration are packet-only; the driver rejects
// `fidelity=` there with a pointed error (see driver.cc).
// ---------------------------------------------------------------------------

struct Fidelity {
  bool flow = false;
  double resolve_seconds = 0;
  bool incremental = true;  // the solver's worklist re-solve path
};

/// Reads `fidelity`, `resolve_us` and `incremental`, all validated whichever
/// substrate runs.  Incremental re-solves converge to the same tolerance as
/// full ones but are not bit-identical, so golden-hashed runs pass off.
Fidelity read_fidelity(const Knobs& k, transport::Scheme scheme) {
  Fidelity fidelity;
  const std::string token = k.text("fidelity");
  if (token != "packet" && token != "flow") {
    throw std::invalid_argument("unknown fidelity '" + token +
                                "' (expected packet or flow)");
  }
  fidelity.flow = token == "flow";
  // The flow-fluid engine assigns every flow its NUM-optimal rate, which
  // models the NUM-solving transports.  Window/loss protocols (DCTCP,
  // pFabric) have no flow-fluid model — running them would silently report
  // oracle numbers under their name, so fail loudly instead.
  if (fidelity.flow && scheme != transport::Scheme::kNumFabric &&
      scheme != transport::Scheme::kDgd) {
    throw std::invalid_argument(
        "fidelity=flow models NUM-optimal rates; transport '" +
        scheme_token(scheme) +
        "' has no flow-fluid model (supported: numfabric, dgd)");
  }
  const double resolve_us = k.real("resolve_us");
  if (resolve_us < 0) {
    throw std::invalid_argument(
        "resolve_us must be >= 0 (0 = exact event-driven mode)");
  }
  fidelity.resolve_seconds = resolve_us * 1e-6;
  const std::string incremental = k.text("incremental");
  if (incremental != "on" && incremental != "off") {
    throw std::invalid_argument("unknown incremental '" + incremental +
                                "' (expected on or off)");
  }
  fidelity.incremental = incremental == "on";
  return fidelity;
}

std::vector<ParamSpec> fidelity_params() {
  return {{"fidelity", "packet",
           "packet | flow: packet-level substrate or the flow-fluid engine "
           "(NUM-optimal rates, no queueing; see src/flowsim/README.md)"},
          {"resolve_us", "0",
           "fidelity=flow: epoch-grid re-solve period in us (0 = exact "
           "event-driven re-solve at every arrival/departure)"},
          {"incremental", "on",
           "fidelity=flow: on | off — incremental (worklist) NUM re-solves; "
           "same tolerance as full solves but not bit-identical"}};
}

/// A run's NUM solver health, emitted only when some solve did not
/// converge, so healthy runs keep their output bytes.
void emit_solver_health(RunContext& ctx, const num::SolverHealth& health) {
  if (health.unconverged_solves == 0) return;
  ctx.metrics.scalar("solver_unconverged", health.unconverged_solves);
  ctx.metrics.scalar("solver_max_violation", health.max_violation);
}

// ---------------------------------------------------------------------------
// The semi-dynamic population facet (§6.1): convergence (Fig. 4a) runs the
// scale's population; rate-timeseries (Fig. 4b,c) half of it and
// sensitivity (Fig. 6) a quarter, as the seed figure setups did.
// ---------------------------------------------------------------------------

std::vector<ParamSpec> population_params(const exp::Scale& s, int share,
                                         const std::string& paths_help,
                                         const ParamSpec& events) {
  return {{"paths", std::to_string(s.num_paths / share), paths_help},
          {"initial_active", std::to_string(s.initial_active / share),
           "flows active before the first event"},
          {"flows_per_event", std::to_string(s.flows_per_event / share),
           "flows started/stopped per network event"},
          events,
          {"min_active", std::to_string(s.min_active / share),
           "lower bound on concurrently active flows"},
          {"max_active", std::to_string(s.max_active / share),
           "upper bound on concurrently active flows"}};
}

/// The population plus what every semi-dynamic scenario shares: the fabric,
/// the scheme, alpha and the seed.
exp::SemiDynamicOptions read_population(const RunContext& ctx,
                                        const Knobs& k) {
  exp::SemiDynamicOptions options;
  apply_thread_context(ctx, k, options);
  options.scheme = ctx.scheme;
  options.topology = read_fabric(k).leaf_spine;
  options.num_paths = k.integer("paths");
  options.initial_active = k.integer("initial_active");
  options.flows_per_event = k.integer("flows_per_event");
  options.num_events = k.integer("events");
  options.min_active = k.integer("min_active");
  options.max_active = k.integer("max_active");
  options.alpha = k.real("alpha");
  options.seed = k.seed("seed");
  return options;
}

// ---------------------------------------------------------------------------
// convergence (Fig. 4a): semi-dynamic convergence-time CDF.
// ---------------------------------------------------------------------------

void run_convergence(RunContext& ctx, const Knobs& k) {
  MetricTable& summary = ctx.metrics.table(
      "convergence",
      {"transport", "events_measured", "events_converged", "median_us",
       "p95_us", "sim_events", "queue_drops"});
  MetricTable& cdf = ctx.metrics.table("convergence_cdf",
                                       {"transport", "time_us", "fraction"});

  exp::SemiDynamicOptions options = read_population(ctx, k);
  options.convergence.timeout = k.ms("timeout_ms");
  num::SolverHealth health;
  for (const transport::Scheme scheme : transports_param(ctx)) {
    options.scheme = scheme;
    const exp::SemiDynamicResult result = exp::run_semi_dynamic(options);
    health.merge(result.solver_health);

    const std::string name = scheme_token(scheme);
    summary.add_row({name, result.events_measured, result.events_converged,
                     percentile_or_nan(result.convergence_times_us, 50),
                     percentile_or_nan(result.convergence_times_us, 95),
                     result.sim_events, result.total_queue_drops});
    if (!result.convergence_times_us.empty()) {
      for (const auto& [value, fraction] :
           stats::cdf(result.convergence_times_us, 21)) {
        cdf.add_row({name, value, fraction});
      }
    }
  }
  emit_solver_health(ctx, health);
}

// ---------------------------------------------------------------------------
// rate-timeseries (Fig. 4b,c): one tracked flow across network events.
// ---------------------------------------------------------------------------

void run_rate_timeseries(RunContext& ctx, const Knobs& k) {
  exp::SemiDynamicOptions options = read_population(ctx, k);
  options.record_trace = true;
  options.trace_sample_interval = sim::micros(k.integer("sample_us"));
  // A fixed event schedule keeps schemes comparable (DCTCP never converges
  // at these time scales, so convergence-gated events would stall).
  options.fixed_event_interval = k.ms("event_interval_ms");
  options.use_maxmin_targets = ctx.scheme == transport::Scheme::kDctcp;
  const exp::SemiDynamicResult result = exp::run_semi_dynamic(options);

  ctx.metrics.scalar("transport", scheme_token(ctx.scheme));
  ctx.metrics.scalar("sim_events", result.sim_events);
  emit_solver_health(ctx, result.solver_health);
  MetricTable& trace = ctx.metrics.table("trace", {"time_ms", "rate_bps"});
  for (const auto& [at_ms, rate] : result.trace) trace.add_row({at_ms, rate});
  MetricTable& expected =
      ctx.metrics.table("expected_steps", {"time_ms", "rate_bps"});
  for (const auto& [at_ms, rate] : result.expected_steps) {
    expected.add_row({at_ms, rate});
  }
}

// ---------------------------------------------------------------------------
// dynamic-deviation (Fig. 5): deviation from fluid-oracle rates by size bin.
// ---------------------------------------------------------------------------

const workload::SizeDistribution& distribution_param(const RunContext& ctx,
                                                     const Knobs& k) {
  const std::string name = k.text("workload");
  if (name == "websearch") return workload::websearch_distribution();
  if (name == "enterprise") return workload::enterprise_distribution();
  // Full-scale runs use the uncapped 1 GB tail (ROADMAP fidelity note).
  if (name == "datamining") {
    return workload::datamining_distribution(ctx.full_scale);
  }
  throw std::invalid_argument(
      "unknown workload '" + name +
      "' (expected websearch, enterprise or datamining)");
}

void run_dynamic_deviation(RunContext& ctx, const Knobs& k) {
  MetricTable& table = ctx.metrics.table(
      "deviation", {"transport", "bin_bdps", "count", "whisker_low", "p25",
                    "median", "p75", "whisker_high"});
  MetricTable& totals = ctx.metrics.table(
      "flows", {"transport", "completed", "incomplete", "bdp_kb"});

  exp::DynamicWorkloadOptions options;
  apply_thread_context(ctx, k, options);
  options.topology = read_fabric(k).leaf_spine;
  options.sizes = &distribution_param(ctx, k);
  options.load = k.real("load");
  options.flow_count = k.integer("flows");
  options.alpha = k.real("alpha");
  options.seed = k.seed("seed");
  options.horizon = k.ms("horizon_ms");
  num::SolverHealth health;
  for (const transport::Scheme scheme : transports_param(ctx)) {
    options.scheme = scheme;
    const exp::DynamicWorkloadResult result =
        exp::run_dynamic_workload(options);
    health.merge(result.solver_health);

    const std::string name = scheme_token(scheme);
    totals.add_row({name, static_cast<std::int64_t>(result.flows.size()),
                    result.incomplete, result.bdp_bytes / 1e3});
    std::vector<std::vector<double>> bins(5);
    for (const auto& flow : result.flows) {
      const int bin = exp::bdp_bin(static_cast<double>(flow.size_bytes),
                                   result.bdp_bytes);
      if (bin < 0) continue;
      bins[static_cast<std::size_t>(bin)].push_back(
          (flow.rate_bps - flow.ideal_rate_bps) / flow.ideal_rate_bps);
    }
    for (std::size_t b = 0; b < bins.size(); ++b) {
      if (bins[b].empty()) continue;
      const stats::BoxPlot box = stats::box_plot(bins[b]);
      table.add_row({name, exp::kBdpBinLabels[b],
                     static_cast<std::int64_t>(bins[b].size()), box.whisker_low,
                     box.p25, box.p50, box.p75, box.whisker_high});
    }
  }
  emit_solver_health(ctx, health);
}

// ---------------------------------------------------------------------------
// fct-vs-pfabric (Fig. 7): NUMFabric's FCT-min utility against pFabric.
// ---------------------------------------------------------------------------

// A `load=` single point overrides the `loads=` list — the sweep engine
// sweeps scalars, so `--sweep load=0.2,0.4` fans the list out run-per-run.
std::vector<double> loads_param(const Knobs& k) {
  return k.given("load") ? std::vector<double>{k.real("load")}
                         : k.reals("loads");
}

void run_fct_vs_pfabric(RunContext& ctx, const Knobs& k) {
  exp::FctExperimentOptions options;
  apply_thread_context(ctx, k, options);
  options.topology = read_fabric(k).leaf_spine;
  options.loads = loads_param(k);
  options.flow_count = k.integer("flows");
  options.epsilon = k.real("epsilon");
  options.slowdown = k.real("slowdown");
  options.seed = k.seed("seed");
  const exp::FctExperimentResult result = exp::run_fct_experiment(options);

  MetricTable& table = ctx.metrics.table(
      "fct", {"load", "numfabric_mean_norm_fct", "pfabric_mean_norm_fct",
              "ratio", "numfabric_completed", "pfabric_completed",
              "numfabric_incomplete", "pfabric_incomplete"});
  for (const auto& row : result.rows) {
    table.add_row({row.load, row.numfabric_mean_norm_fct,
                   row.pfabric_mean_norm_fct,
                   row.pfabric_mean_norm_fct > 0
                       ? row.numfabric_mean_norm_fct / row.pfabric_mean_norm_fct
                       : std::numeric_limits<double>::quiet_NaN(),
                   row.numfabric_completed, row.pfabric_completed,
                   row.numfabric_incomplete, row.pfabric_incomplete});
  }
}

// ---------------------------------------------------------------------------
// resource-pooling (Fig. 8): multipath sub-flows with/without pooling.
// ---------------------------------------------------------------------------

void run_resource_pooling(RunContext& ctx, const Knobs& k) {
  exp::PoolingOptions options;
  apply_thread_context(ctx, k, options);
  options.topology.hosts_per_leaf = k.integer("hosts_per_leaf");
  options.topology.num_leaves = k.integer("leaves");
  options.topology.num_spines = k.integer("spines");
  options.topology.spine_rate_bps = k.real("spine_gbps") * 1e9;
  options.subflow_counts = k.integers("subflows");
  options.warmup = k.ms("warmup_ms");
  options.measure = k.ms("measure_ms");
  options.seed = k.seed("seed");

  MetricTable& totals = ctx.metrics.table(
      "throughput", {"mode", "subflows", "fraction_of_optimal"});
  MetricTable& ranks = ctx.metrics.table(
      "per_flow_rank", {"mode", "subflows", "rank", "fraction_of_nic"});
  for (const bool pooling : {true, false}) {
    options.resource_pooling = pooling;
    const exp::PoolingResult result = exp::run_pooling_experiment(options);
    const std::string mode = pooling ? "pooling" : "no-pooling";
    for (const auto& row : result.rows) {
      totals.add_row({mode, row.subflows, row.total_throughput_fraction});
      for (std::size_t r = 0; r < row.per_flow_fraction.size(); ++r) {
        ranks.add_row({mode, row.subflows, static_cast<std::int64_t>(r),
                       row.per_flow_fraction[r]});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// bwfunc-sweep (Fig. 9) and bwfunc-pooling (Fig. 10).
// ---------------------------------------------------------------------------

void run_bwfunc_sweep(RunContext& ctx, const Knobs& k) {
  exp::BwFuncSweepOptions options;
  options.capacities_gbps = k.reals("capacities_gbps");
  options.alpha = k.real("alpha");
  options.slowdown = k.real("slowdown");
  options.warmup = k.ms("warmup_ms");
  options.measure = k.ms("measure_ms");
  const exp::BwFuncSweepResult result = exp::run_bwfunc_sweep(options);

  MetricTable& table = ctx.metrics.table(
      "bwfunc", {"capacity_gbps", "flow1_gbps", "flow2_gbps",
                 "expected1_gbps", "expected2_gbps"});
  for (const auto& row : result.rows) {
    table.add_row({row.capacity_gbps, row.flow1_gbps, row.flow2_gbps,
                   row.expected1_gbps, row.expected2_gbps});
  }
}

void run_bwfunc_pooling(RunContext& ctx, const Knobs& k) {
  exp::BwFuncPoolingOptions options;
  options.alpha = k.real("alpha");
  options.slowdown = k.real("slowdown");
  options.middle_before_gbps = k.real("middle_before_gbps");
  options.middle_after_gbps = k.real("middle_after_gbps");
  options.switch_time = k.ms("switch_ms");
  options.end_time = k.ms("end_ms");
  const exp::BwFuncPoolingResult result = exp::run_bwfunc_pooling(options);

  MetricTable& phases = ctx.metrics.table(
      "phases", {"phase", "flow1_gbps", "flow2_gbps", "expected1_gbps",
                 "expected2_gbps"});
  phases.add_row({"before", result.flow1_before_gbps, result.flow2_before_gbps,
                  result.expected1_before_gbps, result.expected2_before_gbps});
  phases.add_row({"after", result.flow1_after_gbps, result.flow2_after_gbps,
                  result.expected1_after_gbps, result.expected2_after_gbps});
  MetricTable& series = ctx.metrics.table(
      "series", {"time_ms", "flow1_bps", "flow2_bps"});
  for (const auto& [at_ms, f1, f2] : result.series) {
    series.add_row({at_ms, f1, f2});
  }
}

// ---------------------------------------------------------------------------
// Traffic families: incast / permutation / shuffle.
// ---------------------------------------------------------------------------

void emit_fct_table(RunContext& ctx, int completed, int incomplete,
                    std::vector<double> fct_us) {
  MetricTable& fct = ctx.metrics.table(
      "fct", {"completed", "incomplete", "min_us", "mean_us", "p50_us",
              "p95_us", "p99_us", "max_us"});
  std::sort(fct_us.begin(), fct_us.end());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const bool none = fct_us.empty();
  fct.add_row({completed, incomplete, none ? nan : fct_us.front(),
               none ? nan : stats::mean(fct_us), percentile_or_nan(fct_us, 50),
               percentile_or_nan(fct_us, 95), percentile_or_nan(fct_us, 99),
               none ? nan : fct_us.back()});
}

void emit_traffic_result(RunContext& ctx, transport::Scheme scheme,
                         const exp::TrafficResult& result) {
  ctx.metrics.scalar("transport", scheme_token(scheme));
  ctx.metrics.scalar("flow_count", result.flow_count);
  ctx.metrics.scalar("sim_events", result.sim_events);
  ctx.metrics.scalar("queue_drops", result.queue_drops);
  emit_solver_health(ctx, result.solver_health);

  if (!result.flow_rates_bps.empty()) {
    MetricTable& summary = ctx.metrics.table(
        "throughput", {"total_gbps", "optimal_gbps", "fraction", "jain_index",
                       "min_flow_mbps", "median_flow_mbps", "max_flow_mbps"});
    std::vector<double> rates = result.flow_rates_bps;
    std::sort(rates.begin(), rates.end());
    summary.add_row({result.total_goodput_bps / 1e9, result.optimal_bps / 1e9,
                     result.total_goodput_bps / result.optimal_bps,
                     result.jain_index, rates.front() / 1e6,
                     stats::percentile(rates, 50) / 1e6, rates.back() / 1e6});
    MetricTable& flows = ctx.metrics.table("flow_rates", {"rank", "rate_mbps"});
    for (std::size_t i = 0; i < rates.size(); ++i) {
      flows.add_row({static_cast<std::int64_t>(i), rates[i] / 1e6});
    }
  }
  if (result.completed + result.incomplete > 0) {
    emit_fct_table(ctx, result.completed, result.incomplete, result.fct_us);
  }
}

void run_traffic(RunContext& ctx, const Knobs& k,
                 exp::TrafficPattern pattern) {
  exp::TrafficOptions options;
  apply_thread_context(ctx, k, options);
  options.scheme = scheme_for(ctx);
  const Fabric fabric = read_fabric(k);
  options.topology = fabric.leaf_spine;
  options.jellyfish = fabric.jellyfish;
  options.k_paths = fabric.k_paths;
  options.core_buffer_bytes = kb_to_bytes(k, "core_buffer_kb");
  options.pattern = pattern;
  if (k.declares("fanin")) {
    // Computed default: the declared fan-in, capped at the other hosts.
    options.incast_fanin = k.given("fanin")
                               ? k.integer("fanin")
                               : std::min(k.integer("fanin"), fabric.hosts - 1);
  }
  options.flow_size_bytes = kb_to_bytes(k, "flow_kb");
  options.alpha = k.real("alpha");
  options.warmup = k.ms("warmup_ms");
  options.measure = k.ms("measure_ms");
  options.horizon = k.ms("horizon_ms");
  options.seed = k.seed("seed");
  const Fidelity fidelity = read_fidelity(k, options.scheme);
  emit_traffic_result(
      ctx, options.scheme,
      fidelity.flow ? exp::run_traffic_experiment_flow(
                          options, fidelity.resolve_seconds,
                          ctx.solver_threads, fidelity.incremental)
                    : exp::run_traffic_experiment(options));
}

/// Declared knobs of the three traffic families, around their own.
std::vector<ParamSpec> traffic_params(const exp::Scale& s,
                                      const std::vector<ParamSpec>& own) {
  return merge_params({topology_params(s, true), fidelity_params(),
                       {transport_param(),
                        {"core_buffer_kb", "0",
                         "core per-port buffer KB (0 = edge buffer)"}},
                       own});
}

// ---------------------------------------------------------------------------
// FCT sweeps over a measured trace (web-search / data-mining).
// ---------------------------------------------------------------------------

void run_fct_sweep(RunContext& ctx, const Knobs& k) {
  MetricTable& table = ctx.metrics.table(
      "fct_sweep", {"load", "completed", "incomplete", "mean_norm_fct",
                    "p50_norm_fct", "p95_norm_fct", "p99_norm_fct"});
  MetricTable& bins = ctx.metrics.table(
      "fct_by_size", {"load", "bin_bdps", "count", "mean_norm_fct"});

  exp::DynamicWorkloadOptions options;
  apply_thread_context(ctx, k, options);
  options.scheme = scheme_for(ctx);
  const Fidelity fidelity = read_fidelity(k, options.scheme);
  const Fabric fabric = read_fabric(k);
  options.topology = fabric.leaf_spine;
  options.jellyfish = fabric.jellyfish;
  options.k_paths = fabric.k_paths;
  options.sizes = &distribution_param(ctx, k);
  options.flow_count = k.integer("flows");
  options.alpha = k.real("alpha");
  options.seed = k.seed("seed");
  options.horizon = k.ms("horizon_ms");
  num::SolverHealth health;
  for (const double load : loads_param(k)) {
    options.load = load;
    const exp::DynamicWorkloadResult result =
        fidelity.flow
            ? exp::run_dynamic_workload_flow(options, fidelity.resolve_seconds,
                                             fidelity.incremental)
            : exp::run_dynamic_workload(options);
    health.merge(result.solver_health);

    // Normalized FCT = measured FCT / oracle-ideal FCT = ideal_rate / rate.
    std::vector<double> norms;
    std::vector<std::vector<double>> by_bin(5);
    for (const auto& flow : result.flows) {
      const double norm = flow.ideal_rate_bps / flow.rate_bps;
      norms.push_back(norm);
      const int bin = exp::bdp_bin(static_cast<double>(flow.size_bytes),
                                   result.bdp_bytes);
      if (bin >= 0) by_bin[static_cast<std::size_t>(bin)].push_back(norm);
    }
    table.add_row({load, static_cast<std::int64_t>(result.flows.size()),
                   result.incomplete,
                   norms.empty() ? std::numeric_limits<double>::quiet_NaN()
                                 : stats::mean(norms),
                   percentile_or_nan(norms, 50), percentile_or_nan(norms, 95),
                   percentile_or_nan(norms, 99)});
    for (std::size_t b = 0; b < by_bin.size(); ++b) {
      if (by_bin[b].empty()) continue;
      bins.add_row({load, exp::kBdpBinLabels[b],
                    static_cast<std::int64_t>(by_bin[b].size()),
                    stats::mean(by_bin[b])});
    }
  }
  emit_solver_health(ctx, health);
}

// ---------------------------------------------------------------------------
// Oversubscribed-fabric family: oversub-fabric and background-burst.
// ---------------------------------------------------------------------------

void run_oversub_fabric_scenario(RunContext& ctx, const Knobs& k) {
  exp::OversubFabricOptions options;
  apply_thread_context(ctx, k, options);
  options.scheme = scheme_for(ctx);
  options.topology = read_fabric(k).leaf_spine;
  options.core_buffer_bytes = kb_to_bytes(k, "core_buffer_kb");
  options.alpha = k.real("alpha");
  options.shuffle_flow_bytes = kb_to_bytes(k, "shuffle_kb");
  options.warmup = k.ms("warmup_ms");
  options.measure = k.ms("measure_ms");
  options.horizon = k.ms("horizon_ms");
  options.seed = k.seed("seed");
  const exp::OversubFabricResult result = exp::run_oversub_fabric(options);

  ctx.metrics.scalar("transport", scheme_token(options.scheme));
  ctx.metrics.scalar("oversubscription", result.oversubscription);
  ctx.metrics.scalar("sim_events", result.sim_events);
  ctx.metrics.scalar("queue_drops", result.queue_drops);

  MetricTable& summary = ctx.metrics.table(
      "core_summary", {"oversub_ratio", "core_links", "util_mean", "util_min",
                       "util_max", "price_convergence_us"});
  summary.add_row({result.oversubscription,
                   static_cast<std::int64_t>(result.core_links.size()),
                   result.core_util_mean, result.core_util_min,
                   result.core_util_max, result.price_convergence_us});

  MetricTable& per_link =
      ctx.metrics.table("core_utilization", {"link", "utilization", "price"});
  for (const auto& stats : result.core_links) {
    per_link.add_row({stats.name, stats.utilization, stats.price});
  }

  MetricTable& background =
      ctx.metrics.table("background", {"flows", "goodput_gbps", "jain_index"});
  background.add_row({result.background_flows,
                      result.background_goodput_bps / 1e9,
                      result.background_jain});

  emit_fct_table(ctx, result.shuffle_completed, result.shuffle_incomplete,
                 result.shuffle_fct_us);
}

void run_background_burst_scenario(RunContext& ctx, const Knobs& k) {
  exp::BackgroundBurstOptions options;
  apply_thread_context(ctx, k, options);
  options.scheme = scheme_for(ctx);
  options.topology = read_fabric(k).leaf_spine;
  options.core_buffer_bytes = kb_to_bytes(k, "core_buffer_kb");
  options.alpha = k.real("alpha");
  options.background_load = k.real("background_load");
  options.burst_fanin = k.integer("fanin");
  options.burst_bytes = kb_to_bytes(k, "burst_kb");
  options.burst_interval = k.ms("burst_interval_ms");
  options.num_bursts = k.integer("bursts");
  options.warmup = k.ms("warmup_ms");
  options.horizon = k.ms("horizon_ms");
  options.seed = k.seed("seed");
  const exp::BackgroundBurstResult result = exp::run_background_burst(options);

  ctx.metrics.scalar("transport", scheme_token(options.scheme));
  ctx.metrics.scalar("oversubscription", result.oversubscription);
  ctx.metrics.scalar("sim_events", result.sim_events);
  ctx.metrics.scalar("queue_drops", result.queue_drops);

  MetricTable& bursts = ctx.metrics.table(
      "bursts", {"burst", "start_ms", "completed", "incomplete", "fct_p50_us",
                 "fct_max_us", "background_during_gbps",
                 "background_quiet_gbps", "throughput_ratio"});
  for (const auto& stats : result.bursts) {
    bursts.add_row({stats.index, stats.start_ms, stats.completed,
                    stats.incomplete, stats.fct_p50_us, stats.fct_max_us,
                    stats.background_during_bps / 1e9,
                    stats.background_quiet_bps / 1e9,
                    stats.background_quiet_bps > 0
                        ? stats.background_during_bps /
                              stats.background_quiet_bps
                        : std::numeric_limits<double>::quiet_NaN()});
  }

  MetricTable& summary = ctx.metrics.table(
      "burst_summary",
      {"bursts", "flows", "completed", "incomplete", "fct_p50_us", "fct_p99_us",
       "fct_max_us", "background_flows", "background_goodput_gbps"});
  std::vector<double> fcts = result.burst_fct_us;
  std::sort(fcts.begin(), fcts.end());
  summary.add_row({static_cast<std::int64_t>(result.bursts.size()),
                   result.burst_flows, result.burst_completed,
                   result.burst_incomplete, percentile_or_nan(fcts, 50),
                   percentile_or_nan(fcts, 99),
                   fcts.empty() ? std::numeric_limits<double>::quiet_NaN()
                                : fcts.back(),
                   result.background_flows,
                   result.background_goodput_bps / 1e9});
}

// ---------------------------------------------------------------------------
// sensitivity (Fig. 6): one semi-dynamic point at explicit NUMFabric control
// parameters.  One run = one grid point; the Fig. 6 panels are `--sweep`
// grids over dt_us / interval_us / alpha x slowdown (see bench/fig6).
// ---------------------------------------------------------------------------

void run_sensitivity(RunContext& ctx, const Knobs& k) {
  exp::SemiDynamicOptions options = read_population(ctx, k);
  options.convergence.timeout = k.ms("timeout_ms");
  transport::NumFabricConfig& config = options.fabric.numfabric;
  const double dt_us = k.real("dt_us");
  config.dt_slack = static_cast<sim::TimeNs>(dt_us * sim::kMicrosecond);
  const double interval_us = k.real("interval_us");
  config.price_update_interval =
      static_cast<sim::TimeNs>(interval_us * sim::kMicrosecond);
  config.eta = k.real("eta");
  config.beta = k.real("beta");
  const double slowdown = k.real("slowdown");
  config = config.slowed_down(slowdown);

  const exp::SemiDynamicResult result = exp::run_semi_dynamic(options);
  MetricTable& table = ctx.metrics.table(
      "sensitivity",
      {"dt_us", "interval_us", "alpha", "eta", "beta", "slowdown",
       "events_measured", "events_converged", "converged_fraction",
       "median_us", "p95_us"});
  table.add_row(
      {dt_us, interval_us, options.alpha, config.eta, config.beta, slowdown,
       result.events_measured, result.events_converged,
       result.events_measured > 0
           ? static_cast<double>(result.events_converged) /
                 result.events_measured
           : 0.0,
       percentile_or_nan(result.convergence_times_us, 50),
       percentile_or_nan(result.convergence_times_us, 95)});
  emit_solver_health(ctx, result.solver_health);
}

// ---------------------------------------------------------------------------
// trace-replay: external workload trace in, FCT metrics out.
// ---------------------------------------------------------------------------

void run_trace_replay_scenario(RunContext& ctx, const Knobs& k) {
  exp::TraceReplayOptions options;
  apply_thread_context(ctx, k, options);
  options.scheme = ctx.scheme;
  options.topology = read_fabric(k).leaf_spine;
  options.alpha = k.real("alpha");
  options.horizon = k.ms("horizon_ms");
  const Fidelity fidelity = read_fidelity(k, options.scheme);
  const std::string path = k.text("trace");
  options.trace =
      path.empty() ? workload::example_trace() : workload::load_trace_csv(path);
  const exp::TraceReplayResult result =
      fidelity.flow
          ? exp::run_trace_replay_flow(options, fidelity.resolve_seconds,
                                       ctx.solver_threads,
                                       fidelity.incremental)
          : exp::run_trace_replay(options);

  ctx.metrics.scalar("transport", scheme_token(ctx.scheme));
  ctx.metrics.scalar("trace", path.empty() ? "<builtin>" : path);
  ctx.metrics.scalar("sim_events", result.sim_events);
  emit_solver_health(ctx, result.solver_health);

  std::vector<double> fcts;
  for (const auto& flow : result.flows) {
    if (flow.completed) fcts.push_back(flow.fct_seconds * 1e6);
  }
  emit_fct_table(ctx, result.completed, result.incomplete, std::move(fcts));
  MetricTable& flows = ctx.metrics.table(
      "flows",
      {"src", "dst", "size_bytes", "arrival_ms", "completed", "fct_us"});
  for (const auto& flow : result.flows) {
    flows.add_row({flow.src, flow.dst,
                   static_cast<std::int64_t>(flow.size_bytes),
                   flow.arrival_seconds * 1e3, flow.completed ? 1 : 0,
                   flow.completed ? flow.fct_seconds * 1e6
                                  : std::numeric_limits<double>::quiet_NaN()});
  }
}

// ---------------------------------------------------------------------------
// mega-fct: >= 10^5 concurrent flows through the flow-fluid engine on a
// virtual (index-arithmetic) leaf-spine.  Flow-fidelity only by construction:
// the packet substrate cannot represent this scale.
// ---------------------------------------------------------------------------

void run_mega_fct_scenario(RunContext& ctx, const Knobs& k) {
  const transport::Scheme scheme = scheme_for(ctx);
  const Fidelity fidelity = read_fidelity(k, scheme);
  // Unlike the dual-fidelity scenarios this one declares flow as its
  // default; only an explicit fidelity=packet lands here.
  if (!fidelity.flow) {
    throw std::invalid_argument(
        "mega-fct is flow-fidelity only (a packet run at 10^5+ concurrent "
        "flows is the problem this scenario exists to avoid); drop "
        "fidelity=packet");
  }
  exp::MegaFctOptions options;
  const Fabric fabric = read_fabric(k);
  options.jellyfish = fabric.jellyfish;
  options.k_paths = fabric.k_paths;
  if (!fabric.jellyfish) {
    // The virtual fabric's rates are in Mbps.
    const net::LeafSpineOptions& topo = fabric.leaf_spine;
    options.fabric = {.hosts_per_leaf = topo.hosts_per_leaf,
                      .leaves = topo.num_leaves,
                      .spines = topo.num_spines,
                      .host_rate = topo.host_rate_bps / 1e6,
                      .leaf_spine_rate = topo.spine_rate_bps / 1e6};
  }
  options.concurrent = k.integer("concurrent");
  options.sizes = &distribution_param(ctx, k);
  options.alpha = k.real("alpha");
  options.resolve_interval_seconds = fidelity.resolve_seconds;
  options.horizon_seconds = k.real("horizon_s");
  options.solver_tolerance = k.real("tolerance");
  options.solver_threads = ctx.solver_threads;
  options.incremental = fidelity.incremental;
  options.seed = k.seed("seed");
  const exp::MegaFctResult result = exp::run_mega_fct(options);

  ctx.metrics.scalar("transport", scheme_token(scheme));
  ctx.metrics.scalar("hosts", result.hosts);
  ctx.metrics.scalar("links", result.links);
  ctx.metrics.scalar("flow_count", options.concurrent);
  ctx.metrics.scalar("peak_active",
                     static_cast<std::int64_t>(result.sim.peak_active));
  ctx.metrics.scalar("epochs", result.sim.epochs);
  ctx.metrics.scalar("resolves", result.sim.resolves);
  ctx.metrics.scalar("solver_sweeps", result.sim.solver_sweeps);
  ctx.metrics.scalar("solver_relaxations", result.sim.solver_relaxations);
  ctx.metrics.scalar("end_ms", result.sim.end_seconds * 1e3);
  emit_solver_health(ctx, result.sim.solver_health);

  std::vector<double> fct_us;
  fct_us.reserve(result.sim.fct_seconds.size());
  for (const double fct : result.sim.fct_seconds) {
    if (fct >= 0) fct_us.push_back(fct * 1e6);
  }
  emit_fct_table(ctx, result.sim.completed, result.sim.incomplete,
                 std::move(fct_us));
}

// ---------------------------------------------------------------------------
// The catalog.
// ---------------------------------------------------------------------------

using Body = void (*)(RunContext&, const Knobs&);

/// A scenario's registry entry, with a body that takes its knobs.
struct Declared {
  std::string name;
  std::string figure;  // paper figure/table ("" for exploratory scenarios)
  std::string description;
  std::vector<ParamSpec> params;
  Body body;
};

/// The two trace-driven FCT sweeps differ only in their default workload.
Declared fct_sweep_scenario(const exp::Scale& s, const std::string& workload,
                            const std::string& sizes) {
  return {.name = workload + "-fct", .figure = "",
          .description = "normalized-FCT sweep over loads, " + sizes +
                         " flow sizes, any transport",
          .params = merge_params(
              {topology_params(s, true), fidelity_params(),
               {transport_param(),
                {"workload", workload, "websearch | enterprise | datamining"},
                {"loads", "0.2,0.4,0.6,0.8", "offered loads to sweep"},
                {"load", "", "single offered load (overrides loads)"},
                {"flows", std::to_string(s.dynamic_flow_count / 2),
                 "Poisson arrivals per load"},
                {"alpha", "1", "alpha-fairness of the NUM objective"},
                {"horizon_ms", "20000", "hard stop for stragglers"},
                {"seed", "13", "workload RNG seed"}}}),
          .body = run_fct_sweep};
}

/// Every scenario's declaration at one scale: quick for --describe and
/// ordinary runs, full under --full.
std::vector<Declared> catalog(const exp::Scale& s) {
  // Control-parameter defaults are NUMFabric's own (Table 2).
  const transport::NumFabricConfig numfabric;
  return {
      {.name = "convergence", .figure = "Fig. 4a",
       .description = "semi-dynamic convergence-time CDF across transports",
       .params = merge_params(
           {topology_params(s),
            population_params(s, 1,
                              "random host-pair paths (full scale: 1000)",
                              {"events", std::to_string(s.num_events),
                               "measured network events (full scale: 100)"}),
            {{"alpha", "1", "alpha-fairness of the NUM objective"},
             {"seed", "1", "workload RNG seed"},
             {"timeout_ms", millis_text(s.convergence_timeout),
              "per-event convergence verdict timeout"},
             {"transports", "<--transport>",
              "comma list of schemes to compare"}}}),
       .body = run_convergence},

      {.name = "rate-timeseries", .figure = "Fig. 4b,c",
       .description = "rate trace of one tracked flow across network events",
       .params = merge_params(
           {topology_params(s),
            population_params(s, 2, "random host-pair paths (full scale: 500)",
                              {"events", "8", "network events to trace"}),
            {{"alpha", "1", "alpha-fairness of the NUM objective"},
             {"seed", "7", "workload RNG seed"},
             {"sample_us", "20", "trace sample interval"},
             {"event_interval_ms", "4", "fixed gap between network events"}}}),
       .body = run_rate_timeseries},

      {.name = "dynamic-deviation", .figure = "Fig. 5",
       .description =
           "deviation from fluid-oracle rates under Poisson arrivals, by "
           "BDP-relative size bin",
       .params = merge_params(
           {topology_params(s),
            {{"workload", "websearch", "websearch | enterprise | datamining"},
             {"load", "0.6", "offered load, fraction of host NIC capacity"},
             {"flows", std::to_string(s.dynamic_flow_count),
              "number of Poisson arrivals"},
             {"alpha", "1", "alpha-fairness of the NUM objective"},
             {"horizon_ms", "20000", "hard stop for stragglers"},
             {"seed", "11", "workload RNG seed"},
             {"transports", "<--transport>",
              "comma list of schemes to compare"}}}),
       .body = run_dynamic_deviation},

      {.name = "fct-vs-pfabric", .figure = "Fig. 7",
       .description =
           "mean normalized FCT vs load: FCT-min utility against pFabric "
           "(web-search trace)",
       .params = merge_params(
           {topology_params(s),
            {{"loads",
              s.full ? "0.2,0.3,0.4,0.5,0.6,0.7,0.8" : "0.2,0.4,0.6,0.8",
              "offered loads to sweep"},
             {"load", "", "single offered load (overrides loads)"},
             {"flows", std::to_string(s.dynamic_flow_count),
              "Poisson arrivals per load"},
             {"epsilon", "0.125", "FCT-utility exponent (Table 1 row 3)"},
             {"slowdown", "2", "control-loop slowdown (§6.2)"},
             {"seed", "5", "workload RNG seed"}}}),
       .body = run_fct_vs_pfabric},

      {.name = "resource-pooling", .figure = "Fig. 8",
       .description =
           "multipath sub-flows with and without the pooling (aggregate) "
           "utility on an all-10G leaf-spine",
       .params = {{"hosts_per_leaf", std::to_string(s.pooling_hosts_per_leaf),
                   "hosts per leaf (full scale: 16)"},
                  {"leaves", std::to_string(s.pooling_leaves),
                   "leaf switches (full scale: 8)"},
                  {"spines", std::to_string(s.pooling_spines),
                   "spine switches (full scale: 16)"},
                  {"spine_gbps", "10", "spine link rate (Fig. 8: all-10G)"},
                  {"subflows", s.full ? "1,2,3,4,5,6,7,8" : "1,2,4,8",
                   "sub-flow counts to sweep"},
                  {"warmup_ms", millis_text(s.warmup),
                   "settling time before measurement"},
                  {"measure_ms", millis_text(s.measure),
                   "goodput measurement window"},
                  {"seed", "2", "permutation RNG seed"}},
       .body = run_resource_pooling},

      // Measurement windows track exp::Scale, matching the seed fig9 bench.
      {.name = "bwfunc-sweep", .figure = "Fig. 9",
       .description =
           "bandwidth-function utilities vs the BwE water-filling allocation "
           "over a capacity sweep",
       .params = {{"capacities_gbps", "5,10,15,20,25,30,35",
                   "bottleneck capacities to sweep"},
                  {"alpha", "5", "derived-utility steepness (§6.3)"},
                  {"slowdown", "4",
                   "control-loop slowdown for extreme alphas"},
                  {"warmup_ms", millis_text(s.warmup),
                   "settling time (full scale: 10)"},
                  {"measure_ms", millis_text(s.measure),
                   "measurement window (full scale: 20)"}},
       .body = run_bwfunc_sweep},

      {.name = "bwfunc-pooling", .figure = "Fig. 10",
       .description =
           "bandwidth functions composed with resource pooling; middle link "
           "steps 5 -> 17 Gbps mid-run",
       .params = {{"alpha", "5", "derived-utility steepness"},
                  {"slowdown", "4", "control-loop slowdown"},
                  {"middle_before_gbps", "5",
                   "middle link rate before the step"},
                  {"middle_after_gbps", "17",
                   "middle link rate after the step"},
                  {"switch_ms", "10", "when the middle link steps"},
                  {"end_ms", "20", "end of the run"}},
       .body = run_bwfunc_pooling},

      {.name = "incast", .figure = "",
       .description =
           "synchronized fan-in burst: `fanin` senders to one receiver "
           "(FCT mode; flow_kb=0 for long-running rate mode)",
       .params = traffic_params(
           s, {{"fanin", "16", "concurrent senders"},
               {"flow_kb", "64", "KB per sender (0 = long-running)"},
               {"alpha", "1", "alpha-fairness of the NUM objective"},
               {"warmup_ms", millis_text(s.warmup),
                "rate mode: settling time"},
               {"measure_ms", millis_text(s.measure),
                "rate mode: measurement window"},
               {"horizon_ms", "5000", "FCT mode: hard stop"},
               {"seed", "1", "sender/receiver selection seed"}}),
       .body = [](RunContext& ctx, const Knobs& k) {
         run_traffic(ctx, k, exp::TrafficPattern::kIncast);
       }},

      {.name = "permutation", .figure = "",
       .description =
           "random perfect-matching traffic, long-running flows: throughput "
           "fraction and Jain fairness",
       .params = traffic_params(
           s, {{"flow_kb", "0", "KB per flow (0 = long-running)"},
               {"alpha", "1", "alpha-fairness of the NUM objective"},
               {"warmup_ms", millis_text(s.warmup), "settling time"},
               {"measure_ms", millis_text(s.measure), "measurement window"},
               {"horizon_ms", "5000", "FCT mode: hard stop"},
               {"seed", "1", "matching RNG seed"}}),
       .body = [](RunContext& ctx, const Knobs& k) {
         run_traffic(ctx, k, exp::TrafficPattern::kPermutation);
       }},

      {.name = "shuffle", .figure = "",
       .description =
           "all-to-all shuffle wave: every host pair transfers flow_kb, "
           "completion times reported",
       .params = traffic_params(
           s, {{"flow_kb", "250", "KB per host pair (0 = long-running)"},
               {"alpha", "1", "alpha-fairness of the NUM objective"},
               {"warmup_ms", millis_text(s.warmup),
                "rate mode: settling time"},
               {"measure_ms", millis_text(s.measure),
                "rate mode: measurement window"},
               {"horizon_ms", "5000", "hard stop"},
               {"seed", "1", "RNG seed"}}),
       .body = [](RunContext& ctx, const Knobs& k) {
         run_traffic(ctx, k, exp::TrafficPattern::kAllToAll);
       }},

      fct_sweep_scenario(s, "websearch", "web-search"),
      fct_sweep_scenario(s, "datamining", "data-mining (VL2-style)"),

      {.name = "oversub-fabric", .figure = "",
       .description =
           "permutation background + all-to-all shuffle wave on a contended "
           "core: core-link utilization, xWI price re-convergence, wave FCTs",
       .params = merge_params(
           {topology_params(s),
            {transport_param(),
             {"core_buffer_kb", "0",
              "core per-port buffer KB (0 = edge buffer)"},
             {"shuffle_kb", "50", "KB per host pair in the shuffle wave"},
             {"alpha", "1", "alpha-fairness of the NUM objective"},
             {"warmup_ms", "2",
              "background settling time; the wave starts here"},
             {"measure_ms", "4",
              "utilization / goodput window after the wave"},
             {"horizon_ms", "200", "hard stop for wave stragglers"},
             {"seed", "1", "workload RNG seed"}}}),
       .body = run_oversub_fabric_scenario},

      {.name = "background-burst", .figure = "",
       .description =
           "long-running background flows plus periodic synchronized incast "
           "bursts: burst FCTs vs background-throughput interference",
       .params = merge_params(
           {topology_params(s),
            {transport_param(),
             {"core_buffer_kb", "0",
              "core per-port buffer KB (0 = edge buffer)"},
             {"background_load", "0.5",
              "fraction of the host permutation kept as background flows"},
             {"fanin", "8", "concurrent senders per burst"},
             {"burst_kb", "20", "KB per sender per burst"},
             {"burst_interval_ms", "1", "gap between synchronized bursts"},
             {"bursts", "4", "number of bursts"},
             {"alpha", "1", "alpha-fairness of the NUM objective"},
             {"warmup_ms", "2",
              "background settling time (>= burst_interval_ms / 2)"},
             {"horizon_ms", "500", "hard stop for burst stragglers"},
             {"seed", "1", "workload RNG seed"}}}),
       .body = run_background_burst_scenario},

      {.name = "sensitivity", .figure = "Fig. 6",
       .description =
           "one semi-dynamic convergence point at explicit NUMFabric control "
           "parameters (grid it with --sweep)",
       .params = merge_params(
           {topology_params(s),
            population_params(s, 4,
                              "random host-pair paths (1/4 of convergence)",
                              {"events", s.full ? "30" : "4",
                               "measured network events (full scale: 30)"}),
            {{"timeout_ms", millis_text(s.convergence_timeout),
              "per-event convergence verdict timeout"},
             {"alpha", "1", "alpha-fairness of the NUM objective"},
             {"dt_us", number(sim::to_micros(numfabric.dt_slack)),
              "Swift delay slack d_t (Table 2: 6 us)"},
             {"interval_us",
              number(sim::to_micros(numfabric.price_update_interval)),
              "xWI price update interval (Table 2: 30 us)"},
             {"eta", number(numfabric.eta),
              "xWI under-utilization gain (Eq. 10)"},
             {"beta", number(numfabric.beta),
              "xWI price averaging factor (Eq. 11)"},
             {"slowdown", "1", "control-loop slowdown factor (§6.2)"},
             {"seed", "21", "workload RNG seed"}}}),
       .body = run_sensitivity},

      {.name = "trace-replay", .figure = "",
       .description =
           "replay an external arrival/size/src/dst trace CSV and report "
           "flow completion times",
       .params = merge_params(
           {topology_params(s), fidelity_params(),
            {{"trace", "",
              "trace CSV path (arrival_s,size_bytes,src,dst); empty = "
              "built-in demo trace"},
             {"alpha", "1", "alpha-fairness of the NUM objective"},
             {"horizon_ms", "20000", "hard stop for stragglers"}}}),
       .body = run_trace_replay_scenario},

      {.name = "mega-fct", .figure = "",
       .description =
           "10^5-10^6 concurrent flows through the flow-fluid engine on a "
           "virtual leaf-spine (flow fidelity only)",
       .params =
           {{"fidelity", "flow",
             "flow (this scenario has no packet mode; fidelity=packet "
             "is rejected)"},
            {"resolve_us", "1000",
             "epoch-grid re-solve period in us (must be > 0 at this "
             "scale)"},
            {"incremental", "on",
             "on | off — incremental (worklist) NUM re-solves; same "
             "tolerance as full solves but not bit-identical"},
            {"topology", "32x32x8",
             "virtual fabric shape: HxLxS (hosts_per_leaf x leaves x "
             "spines) or jellyfish:switches,ports,hosts"},
            {"host_gbps", number(kClassic.host_gbps),
             "host NIC rate (preset=modern default: 400)"},
            {"spine_gbps", number(kClassic.spine_gbps),
             "leaf-to-spine / switch-to-switch link rate "
             "(preset=modern: 1600)"},
            {"preset", "classic",
             "parameter preset: classic or modern (see topology "
             "scenarios)"},
            {"jf_seed", "1",
             "jellyfish only: random-regular-graph wiring seed"},
            {"k_paths", "8",
             "jellyfish only: k-shortest paths per switch pair"},
            {"concurrent", "100000", "concurrent flows, all at t = 0"},
            {"workload", "websearch", "websearch | enterprise | datamining"},
            {"alpha", "1", "alpha-fairness of the NUM objective"},
            {"horizon_s", "30", "simulated-time hard stop"},
            {"tolerance", "1e-5",
             "solver price tolerance (grid FCTs are quantized to "
             "resolve_us, so 1e-8 precision only buys sweeps)"},
            {"transport", "<--transport>",
             "scheme label for the run (numfabric or dgd)"},
            {"seed", "1", "workload RNG seed"}},
       .body = run_mega_fct_scenario},
  };
}

}  // namespace

void register_builtin_scenarios() {
  ScenarioRegistry& registry = ScenarioRegistry::global();
  if (!registry.empty()) return;  // idempotent
  std::vector<Declared> quick = catalog(exp::quick_scale());
  for (std::size_t i = 0; i < quick.size(); ++i) {
    // Each run reads its knobs through the declarations at its own scale
    // (catalog() lists the scenarios in the same order at every scale).
    registry.add(Scenario{
        .name = quick[i].name,
        .description = quick[i].description,
        .figure = quick[i].figure,
        .params = quick[i].params,
        .run = [i](RunContext& ctx) {
          const Declared declared = std::move(catalog(
              ctx.full_scale ? exp::full_scale() : exp::quick_scale())[i]);
          declared.body(ctx,
                        Knobs(declared.name, declared.params, ctx.options));
        }});
  }
}

}  // namespace numfabric::app
