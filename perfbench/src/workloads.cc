#include "workloads.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "exp/common.h"
#include "exp/dynamic_workload.h"
#include "exp/flow_fidelity.h"
#include "flowsim/flow_sim_engine.h"
#include "flowsim/virtual_fabric.h"
#include "net/routing.h"
#include "net/topology.h"
#include "num/fluid_fct_oracle.h"
#include "num/utility.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/substrate_stats.h"
#include "transport/fabric.h"
#include "workload/scenarios.h"
#include "workload/size_distribution.h"

namespace perfbench {
namespace {

using namespace numfabric;

// Simulated-time slicing of the packet run.  The outer 5 ms slice is the
// runner's loop (its completion check sits on these boundaries, so it fixes
// where the run stops); each outer slice is executed as fixed sub-slices so
// the traced run has enough run_until samples for a p99.  run_until(a) then
// run_until(b) executes exactly the events run_until(b) would.
constexpr sim::TimeNs kRunnerSlice = sim::millis(5);
constexpr sim::TimeNs kSubSlice = sim::micros(25);

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// `websearch-fct load=0.6 flows=600 topology=8x4x2 --transport=numfabric`.
exp::DynamicWorkloadOptions packet_options(std::uint64_t seed) {
  exp::DynamicWorkloadOptions options;
  options.scheme = transport::Scheme::kNumFabric;
  options.topology.hosts_per_leaf = 8;
  options.topology.num_leaves = 4;
  options.topology.num_spines = 2;
  options.topology.host_rate_bps = 10e9;
  options.topology.spine_rate_bps = 40e9;
  options.topology.link_delay = sim::micros(2);
  options.topology.core_link_delay = sim::micros(2);
  options.sizes = &workload::websearch_distribution();
  options.load = 0.6;
  options.flow_count = info(WorkloadKind::kPacketWebsearch).flows;
  options.alpha = 1.0;
  options.solver_threads = 1;
  options.seed = seed;
  options.horizon = sim::seconds(20);
  return options;
}

/// `websearch-fct fidelity=flow resolve_us=0 topology=jellyfish:32,8,256
/// load=0.6 flows=2500`.
exp::DynamicWorkloadOptions jellyfish_options(std::uint64_t seed) {
  exp::DynamicWorkloadOptions options;
  options.jellyfish = net::JellyfishOptions{.switches = 32,
                                            .ports = 8,
                                            .hosts = 256,
                                            .seed = 1,
                                            .host_rate_bps = 10e9,
                                            .switch_rate_bps = 40e9,
                                            .link_delay = sim::micros(2)};
  options.k_paths = 8;
  options.sizes = &workload::websearch_distribution();
  options.load = 0.6;
  options.flow_count = info(WorkloadKind::kFlowChurnJellyfish).flows;
  options.alpha = 1.0;
  options.solver_threads = 1;
  options.seed = seed;
  options.horizon = sim::seconds(20);
  return options;
}

/// `mega-fct concurrent=100000` (32x32x8 virtual leaf-spine, resolve_us=1000,
/// tolerance=1e-5, incremental on).
exp::MegaFctOptions mega_options(std::uint64_t seed) {
  exp::MegaFctOptions options;
  options.concurrent = info(WorkloadKind::kMegaFct100k).flows;
  options.sizes = &workload::websearch_distribution();
  options.alpha = 1.0;
  options.resolve_interval_seconds = 1e-3;
  options.horizon_seconds = 30.0;
  options.solver_tolerance = 1e-5;
  options.solver_threads = 1;
  options.incremental = true;
  options.seed = seed;
  return options;
}

/// The FlowSimOptions the flow-fidelity runners build.
flowsim::FlowSimOptions engine_options(double resolve_interval_seconds,
                                       double horizon_seconds, int threads,
                                       bool incremental, double tolerance) {
  flowsim::FlowSimOptions options;
  options.resolve_interval_seconds = resolve_interval_seconds;
  options.horizon_seconds = horizon_seconds;
  options.solver.tolerance = tolerance;
  options.solver.policy = num::ExecutionPolicy::parallel(threads);
  options.solver.incremental = incremental;
  return options;
}

void add_substrate_delta(const sim::SubstrateStats& before, Outcome& outcome) {
  const sim::SubstrateStats d = sim::substrate_stats() - before;
  Counts& c = outcome.counts;
  c.events_fired = d.events_fired;
  c.events_scheduled = d.events_scheduled;
  c.events_cancelled = d.events_cancelled;
  c.packets_forwarded = d.packets_forwarded;
  c.bytes_forwarded = d.bytes_forwarded;
  c.packets_dropped = d.packets_dropped;
  c.control_ticks = d.control_ticks;
  c.links_swept = d.links_swept;
  c.solver_solves = d.solver_solves;
  c.solver_sweeps = d.solver_sweeps;
  c.solver_relaxations = d.solver_relaxations;
  outcome.allocs.substrate = d.allocs_total();
  outcome.allocs.workspace = d.allocs_solver_workspace;
}

void add_engine_result(const flowsim::FlowSimResult& result, Outcome& outcome) {
  outcome.counts.epochs = result.epochs;
  outcome.counts.resolves = result.resolves;
  outcome.counts.peak_active = result.peak_active;
}

/// Completed flows of a dynamic-workload result, as FlowRows.
std::vector<FlowRow> dynamic_rows(const exp::DynamicWorkloadResult& result) {
  std::vector<FlowRow> rows;
  rows.reserve(result.flows.size());
  for (const auto& flow : result.flows) {
    rows.push_back({flow.size_bytes, flow.fct_seconds, flow.ideal_rate_bps});
  }
  return rows;
}

/// Completed flows of a mega-fct run: raw engine FCTs, as the scenario emits.
std::vector<FlowRow> mega_rows(const std::vector<double>& fct_seconds,
                               const std::vector<std::uint64_t>& size_bytes) {
  std::vector<FlowRow> rows;
  rows.reserve(fct_seconds.size());
  for (std::size_t i = 0; i < fct_seconds.size(); ++i) {
    if (fct_seconds[i] < 0) continue;
    const double bits = static_cast<double>(size_bytes[i]) * 8.0;
    rows.push_back({size_bytes[i], fct_seconds[i], bits / fct_seconds[i]});
  }
  return rows;
}

// ---------------------------------------------------------------------------
// packet-websearch: exp::run_dynamic_workload's calls, in its order.
// ---------------------------------------------------------------------------

class PacketWebsearch final : public Workload {
 public:
  explicit PacketWebsearch(std::uint64_t seed)
      : options_(packet_options(seed)), utility_(options_.alpha) {}

  void setup(Tracer& tracer) override {
    before_ = sim::substrate_stats();
    const std::int64_t start = now_ns();
    Scope phase(tracer, "setup");
    traced(tracer, "net.fabric/construct", [&] {
      sim_ = std::make_unique<sim::Simulator>();
      transport::FabricOptions fabric_options = options_.fabric;
      fabric_options.scheme = options_.scheme;
      fabric_ = std::make_unique<transport::Fabric>(*sim_, fabric_options);
      topo_ = std::make_unique<net::Topology>(*sim_);
    });
    built_ = traced(tracer, "net.fabric/plan_fabric", [&] {
      return exp::plan_fabric(options_.topology, options_.jellyfish,
                              options_.k_paths);
    });
    traced(tracer, "net.fabric/materialize_fabric", [&] {
      exp::materialize_fabric(built_, *topo_, fabric_->queue_factory());
    });
    traced(tracer, "net.fabric/attach_agents",
           [&] { fabric_->attach_agents(*topo_); });
    indexer_.emplace(traced(tracer, "net.fabric/link_indexer",
                            [&] { return exp::LinkIndexer(*topo_); }));

    sim::Rng rng(options_.seed);
    const auto arrivals = traced(tracer, "workload.draw/poisson_flows", [&] {
      return workload::poisson_flows(built_.mat.hosts, built_.host_rate_bps,
                                     options_.load, *options_.sizes,
                                     options_.flow_count, rng);
    });
    attempted_ = static_cast<int>(arrivals.size());
    fabric_->set_on_complete([this](transport::Flow&) { ++completed_; });

    fluid_flows_.reserve(arrivals.size());
    flows_.reserve(arrivals.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const auto& arrival = arrivals[i];
      transport::FlowSpec spec;
      spec.src = arrival.pair.src;
      spec.dst = arrival.pair.dst;
      spec.size_bytes = arrival.size_bytes;
      spec.start_time = arrival.arrival;
      spec.utility = &utility_;
      const auto& paths = traced(
          tracer, "net.paths/pair_paths",
          [&]() -> const std::vector<std::vector<int>>& {
            return exp::pair_paths(built_, built_.host_node.at(arrival.pair.src),
                                   built_.host_node.at(arrival.pair.dst));
          });
      ++path_calls_;
      const auto& picked =
          paths[net::ecmp_index(paths.size(), static_cast<net::FlowId>(i + 1))];
      spec.path = traced(tracer, "net.paths/to_packet_path",
                         [&] { return exp::to_packet_path(built_, picked); });

      num::FluidFlow fluid;
      fluid.arrival_seconds = sim::to_seconds(arrival.arrival);
      fluid.size_bytes = static_cast<double>(arrival.size_bytes);
      fluid.links = picked;
      fluid.utility = &utility_;
      fluid_flows_.push_back(std::move(fluid));

      flows_.push_back(traced(tracer, "transport.add_flow/add_flow", [&] {
        return fabric_->add_flow(std::move(spec));
      }));
    }
    setup_s_ = seconds_between(start, now_ns());
  }

  Outcome run(Tracer& tracer) override {
    Outcome outcome;
    const std::int64_t start = now_ns();
    const std::uint64_t solver_ns = sim::substrate_stats().solver_wall_ns;
    {
      Scope phase(tracer, "run");
      while (completed_ < attempted_ && sim_->now() < options_.horizon &&
             sim_->pending()) {
        const sim::TimeNs slice_end =
            std::min(sim_->now() + kRunnerSlice, options_.horizon);
        while (sim_->now() < slice_end) {
          const sim::TimeNs until = std::min(sim_->now() + kSubSlice, slice_end);
          traced(tracer, "sim.run_until/slice", [&] { sim_->run_until(until); });
          ++outcome.counts.slices;
        }
      }

      num::NumSolverOptions solver_options;
      solver_options.tolerance = 1e-8;
      solver_options.policy =
          num::ExecutionPolicy::parallel(options_.solver_threads);
      const num::FluidFctResult oracle =
          traced(tracer, "num.oracle/fluid_fct_oracle", [&] {
            return num::fluid_fct_oracle(fluid_flows_, indexer_->capacities(),
                                         solver_options);
          });
      outcome.counts.oracle_solves = oracle.solves;

      // Ideal rates carry the base-RTT charge run_dynamic_workload applies.
      const double latency = sim::to_seconds(built_.base_rtt);
      outcome.completed.reserve(flows_.size());
      for (std::size_t i = 0; i < flows_.size(); ++i) {
        if (!flows_[i]->completed()) continue;
        FlowRow row;
        row.size_bytes = flows_[i]->spec().size_bytes;
        row.fct_seconds = sim::to_seconds(flows_[i]->fct());
        row.ideal_rate_bps = static_cast<double>(row.size_bytes) * 8.0 /
                             (oracle.fct_seconds[i] + latency);
        outcome.completed.push_back(row);
      }
    }
    outcome.run_s = seconds_between(start, now_ns());
    outcome.setup_s = setup_s_;
    outcome.attempted = attempted_;
    outcome.solver_s =
        static_cast<double>(sim::substrate_stats().solver_wall_ns - solver_ns) *
        1e-9;
    outcome.counts.path_calls = path_calls_;
    add_substrate_delta(before_, outcome);
    return outcome;
  }

 private:
  const exp::DynamicWorkloadOptions options_;
  const num::AlphaFairUtility utility_;
  sim::SubstrateStats before_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<transport::Fabric> fabric_;
  std::unique_ptr<net::Topology> topo_;
  exp::BuiltFabric built_;
  std::optional<exp::LinkIndexer> indexer_;
  std::vector<num::FluidFlow> fluid_flows_;
  std::vector<const transport::Flow*> flows_;
  int attempted_ = 0;
  int completed_ = 0;
  std::int64_t path_calls_ = 0;
  double setup_s_ = 0;
};

// ---------------------------------------------------------------------------
// Flow workloads: a FlowSimEngine stepped epoch by epoch.
// ---------------------------------------------------------------------------

class FlowWorkload : public Workload {
 public:
  Outcome run(Tracer& tracer) override {
    Outcome outcome;
    const std::int64_t start = now_ns();
    const std::uint64_t solver_ns = sim::substrate_stats().solver_wall_ns;
    {
      Scope phase(tracer, "run");
      for (bool more = true; more;) {
        const std::int64_t resolves = engine_->result().resolves;
        const int span = tracer.open("flowsim.step/step");
        more = engine_->step();
        tracer.close(span);
        if (engine_->result().resolves > resolves) {
          tracer.rename(span, kResolveStepSpan);
        }
        ++outcome.counts.steps;
      }
      outcome.completed = rows(engine_->result());
    }
    outcome.run_s = seconds_between(start, now_ns());
    outcome.setup_s = setup_s_;
    outcome.attempted = static_cast<int>(sizes_.size());
    outcome.solver_s =
        static_cast<double>(sim::substrate_stats().solver_wall_ns - solver_ns) *
        1e-9;
    // Every solve of a flow run happens inside step().
    outcome.solver_in_steps_s = outcome.solver_s;
    outcome.counts.path_calls = path_calls_;
    add_substrate_delta(before_, outcome);
    add_engine_result(engine_->result(), outcome);
    return outcome;
  }

 protected:
  /// The runner's result rows for the engine's result.
  virtual std::vector<FlowRow> rows(const flowsim::FlowSimResult& result) = 0;

  void build_engine(Tracer& tracer, std::vector<flowsim::FlowSimFlow> flows,
                    std::vector<double> capacities,
                    const flowsim::FlowSimOptions& options) {
    engine_ = traced(tracer, "flowsim.build/FlowSimEngine", [&] {
      return std::make_unique<flowsim::FlowSimEngine>(
          std::move(flows), std::move(capacities), options);
    });
  }

  sim::SubstrateStats before_;
  std::unique_ptr<flowsim::FlowSimEngine> engine_;
  std::vector<std::uint64_t> sizes_;  // per flow, draw order
  std::int64_t path_calls_ = 0;
  double setup_s_ = 0;
};

/// flow-churn-jellyfish: exp::run_dynamic_workload_flow's calls with
/// resolve_interval 0 (the exact fluid system, one incremental re-solve per
/// arrival or departure).
class FlowChurnJellyfish final : public FlowWorkload {
 public:
  explicit FlowChurnJellyfish(std::uint64_t seed)
      : options_(jellyfish_options(seed)), utility_(options_.alpha) {}

  void setup(Tracer& tracer) override {
    before_ = sim::substrate_stats();
    const std::int64_t start = now_ns();
    Scope phase(tracer, "setup");
    traced(tracer, "net.fabric/construct", [&] {
      sim_ = std::make_unique<sim::Simulator>();
      topo_ = std::make_unique<net::Topology>(*sim_);
    });
    built_ = traced(tracer, "net.fabric/plan_fabric", [&] {
      return exp::plan_fabric(options_.topology, options_.jellyfish,
                              options_.k_paths);
    });
    traced(tracer, "net.fabric/materialize_fabric", [&] {
      exp::materialize_fabric(built_, *topo_, net::drop_tail_factory());
    });
    std::vector<double> capacities =
        traced(tracer, "net.fabric/graph_capacities",
               [&] { return exp::graph_capacities(built_.graph); });

    sim::Rng rng(options_.seed);
    const auto arrivals = traced(tracer, "workload.draw/poisson_flows", [&] {
      return workload::poisson_flows(built_.mat.hosts, built_.host_rate_bps,
                                     options_.load, *options_.sizes,
                                     options_.flow_count, rng);
    });

    std::vector<flowsim::FlowSimFlow> flows;
    flows.reserve(arrivals.size());
    sizes_.reserve(arrivals.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const auto& arrival = arrivals[i];
      const auto& paths = traced(
          tracer, "net.paths/pair_paths",
          [&]() -> const std::vector<std::vector<int>>& {
            return exp::pair_paths(built_, built_.host_node.at(arrival.pair.src),
                                   built_.host_node.at(arrival.pair.dst));
          });
      ++path_calls_;
      flowsim::FlowSimFlow flow;
      flow.arrival_seconds = sim::to_seconds(arrival.arrival);
      flow.size_bytes = static_cast<double>(arrival.size_bytes);
      flow.links =
          paths[net::ecmp_index(paths.size(), static_cast<net::FlowId>(i + 1))];
      flow.utility = &utility_;
      flows.push_back(std::move(flow));
      sizes_.push_back(arrival.size_bytes);
    }
    build_engine(tracer, std::move(flows), std::move(capacities),
                 engine_options(info(WorkloadKind::kFlowChurnJellyfish)
                                    .resolve_interval_seconds,
                                sim::to_seconds(options_.horizon),
                                options_.solver_threads, /*incremental=*/true,
                                1e-8));
    setup_s_ = seconds_between(start, now_ns());
  }

 protected:
  // Exact mode: the engine's FCTs are the exact fluid system, so they are
  // also the ideal side; both get the base-RTT charge.
  std::vector<FlowRow> rows(const flowsim::FlowSimResult& result) override {
    const double latency = sim::to_seconds(built_.base_rtt);
    std::vector<FlowRow> out;
    out.reserve(sizes_.size());
    for (std::size_t i = 0; i < sizes_.size(); ++i) {
      if (result.fct_seconds[i] < 0) continue;
      const double bits = static_cast<double>(sizes_[i]) * 8.0;
      out.push_back({sizes_[i], result.fct_seconds[i] + latency,
                     bits / (result.fct_seconds[i] + latency)});
    }
    return out;
  }

 private:
  const exp::DynamicWorkloadOptions options_;
  const num::AlphaFairUtility utility_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::Topology> topo_;
  exp::BuiltFabric built_;
};

/// mega-fct-100k: exp::run_mega_fct's calls — 10^5 flows arriving at t = 0
/// on the index-arithmetic leaf-spine, re-solved on a 1 ms grid.
class MegaFct final : public FlowWorkload {
 public:
  explicit MegaFct(std::uint64_t seed)
      : options_(mega_options(seed)), utility_(options_.alpha) {}

  void setup(Tracer& tracer) override {
    before_ = sim::substrate_stats();
    const std::int64_t start = now_ns();
    Scope phase(tracer, "setup");
    sim::Rng rng(options_.seed);
    const flowsim::VirtualLeafSpine& fabric = options_.fabric;
    const auto batch = traced(tracer, "workload.draw/batch_index_flows", [&] {
      return workload::batch_index_flows(fabric.hosts(), options_.concurrent,
                                         *options_.sizes, rng);
    });

    std::vector<flowsim::FlowSimFlow> flows;
    flows.reserve(batch.size());
    sizes_.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      flowsim::FlowSimFlow flow;
      flow.arrival_seconds = 0.0;
      flow.size_bytes = static_cast<double>(batch[i].size_bytes);
      flow.links = traced(tracer, "net.paths/VirtualLeafSpine::path", [&] {
        return fabric.path(batch[i].src, batch[i].dst,
                           static_cast<std::uint64_t>(i + 1));
      });
      ++path_calls_;
      flow.utility = &utility_;
      flows.push_back(std::move(flow));
      sizes_.push_back(batch[i].size_bytes);
    }
    std::vector<double> capacities =
        traced(tracer, "net.fabric/VirtualLeafSpine::capacities",
               [&] { return fabric.capacities(); });
    build_engine(tracer, std::move(flows), std::move(capacities),
                 engine_options(options_.resolve_interval_seconds,
                                options_.horizon_seconds,
                                options_.solver_threads, options_.incremental,
                                options_.solver_tolerance));
    setup_s_ = seconds_between(start, now_ns());
  }

 protected:
  std::vector<FlowRow> rows(const flowsim::FlowSimResult& result) override {
    return mega_rows(result.fct_seconds, sizes_);
  }

 private:
  const exp::MegaFctOptions options_;
  const num::AlphaFairUtility utility_;
};

}  // namespace

const std::vector<WorkloadInfo>& all_workloads() {
  static const std::vector<WorkloadInfo> kWorkloads = {
      {"packet-websearch", WorkloadKind::kPacketWebsearch, 600, 0.0, 8},
      {"flow-churn-jellyfish", WorkloadKind::kFlowChurnJellyfish, 2500, 0.0, 8},
      {"mega-fct-100k", WorkloadKind::kMegaFct100k, 100000, 1e-3, 1},
  };
  return kWorkloads;
}

std::uint64_t instance_seed(std::uint64_t seed, int instance) {
  return seed + static_cast<std::uint64_t>(instance) * 1'000'003u;
}

std::optional<WorkloadInfo> find_workload(std::string_view name) {
  for (const WorkloadInfo& w : all_workloads()) {
    if (name == w.name) return w;
  }
  return std::nullopt;
}

const WorkloadInfo& info(WorkloadKind kind) {
  for (const WorkloadInfo& w : all_workloads()) {
    if (w.kind == kind) return w;
  }
  throw std::logic_error("perfbench: unknown workload kind");
}

std::unique_ptr<Workload> make_workload(WorkloadKind kind, std::uint64_t seed) {
  switch (kind) {
    case WorkloadKind::kPacketWebsearch:
      return std::make_unique<PacketWebsearch>(seed);
    case WorkloadKind::kFlowChurnJellyfish:
      return std::make_unique<FlowChurnJellyfish>(seed);
    case WorkloadKind::kMegaFct100k:
      return std::make_unique<MegaFct>(seed);
  }
  throw std::logic_error("perfbench: unknown workload kind");
}

Outcome run_runner(WorkloadKind kind, std::uint64_t seed, bool incremental) {
  Outcome outcome;
  outcome.attempted = info(kind).flows;
  const sim::SubstrateStats before = sim::substrate_stats();
  const std::int64_t start = now_ns();
  switch (kind) {
    case WorkloadKind::kPacketWebsearch:
      outcome.completed =
          dynamic_rows(exp::run_dynamic_workload(packet_options(seed)));
      break;
    case WorkloadKind::kFlowChurnJellyfish:
      outcome.completed = dynamic_rows(exp::run_dynamic_workload_flow(
          jellyfish_options(seed), info(kind).resolve_interval_seconds,
          incremental));
      break;
    case WorkloadKind::kMegaFct100k: {
      exp::MegaFctOptions options = mega_options(seed);
      options.incremental = incremental;
      const exp::MegaFctResult result = exp::run_mega_fct(options);
      outcome.completed = mega_rows(result.sim.fct_seconds, result.size_bytes);
      add_engine_result(result.sim, outcome);
      break;
    }
  }
  outcome.run_s = seconds_between(start, now_ns());
  add_substrate_delta(before, outcome);
  return outcome;
}

}  // namespace perfbench
