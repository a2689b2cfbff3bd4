// Micro-benchmarks (google-benchmark) of the substrate primitives that bound
// simulation scale: event queue ops, WFQ enqueue/dequeue, the NUM oracle and
// the water-filler.  These are the "how fast can the simulator go" numbers
// quoted in README.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "exp/common.h"
#include "flowsim/flow_sim_engine.h"
#include "flowsim/virtual_fabric.h"
#include "net/drop_tail_queue.h"
#include "net/fabric_graph.h"
#include "net/link.h"
#include "net/node.h"
#include "net/routing.h"
#include "net/topology.h"
#include "net/wfq_queue.h"
#include "num/num_solver.h"
#include "num/utility.h"
#include "num/waterfill.h"
#include "num/xwi_fluid.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "transport/control_plane.h"
#include "workload/scenarios.h"
#include "workload/size_distribution.h"

namespace {

using namespace numfabric;

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue queue;
  sim::TimeNs t = 0;
  int sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) queue.push(t += 7, [&sink] { ++sink; });
    while (!queue.empty()) queue.pop().action();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueuePushPop);

void BM_EventQueueCancelChurn(benchmark::State& state) {
  // The transports' dominant cancellation shape: every ACK pushes the RTO
  // timer out, i.e. cancel-the-old + push-a-new far-future event, and only
  // the last survivor of a burst ever fires.
  sim::EventQueue queue;
  sim::TimeNs t = 0;
  int sink = 0;
  for (auto _ : state) {
    sim::EventId pending = sim::kNoEvent;
    for (int i = 0; i < 64; ++i) {
      if (pending != sim::kNoEvent) queue.cancel(pending);
      pending = queue.push(t + 1'000'000, [&sink] { ++sink; });
      ++t;
    }
    while (!queue.empty()) queue.pop().action();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueCancelChurn);

void BM_SimulatorSelfScheduling(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int remaining = 4096;
    std::function<void()> tick = [&] {
      if (--remaining > 0) sim.schedule_in(10, tick);
    };
    sim.schedule_in(10, tick);
    sim.run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_SimulatorSelfScheduling);

void BM_WfqEnqueueDequeue(benchmark::State& state) {
  const int num_flows = static_cast<int>(state.range(0));
  net::WfqQueue queue(1 << 30);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    for (int i = 0; i < num_flows; ++i) {
      net::Packet p;
      p.flow = static_cast<net::FlowId>(i);
      p.type = net::PacketType::kData;
      p.size = 1500;
      p.seq = seq++;
      p.virtual_packet_len = 1500.0 / (1.0 + i);
      queue.enqueue(std::move(p));
    }
    for (int i = 0; i < num_flows; ++i) benchmark::DoNotOptimize(queue.dequeue());
  }
  state.SetItemsProcessed(state.iterations() * num_flows * 2);
}
BENCHMARK(BM_WfqEnqueueDequeue)->Arg(16)->Arg(256);

void BM_WfqFlowChurn(benchmark::State& state) {
  // Short flows arriving and dying at a high rate: every burst is 32
  // brand-new flows of two packets each.  The second packet pushes each
  // flow's finish tag ahead of the virtual clock, so the clock advances and
  // earlier flows' state becomes idle — exactly the churn
  // garbage_collect_idle_flows exists for.  Per-flow scheduler state
  // accumulates to the GC interval's high-water mark, then gets swept.
  net::WfqQueue queue(1 << 30);
  std::uint64_t seq = 0;
  net::FlowId next_flow = 1;
  for (auto _ : state) {
    for (int i = 0; i < 32; ++i) {
      const net::FlowId flow = next_flow++;
      for (int k = 0; k < 2; ++k) {
        net::Packet p;
        p.flow = flow;
        p.type = net::PacketType::kData;
        p.size = 1500;
        p.seq = seq++;
        p.virtual_packet_len = 1500.0;
        queue.enqueue(std::move(p));
      }
    }
    for (int i = 0; i < 64; ++i) benchmark::DoNotOptimize(queue.dequeue());
  }
  state.SetItemsProcessed(state.iterations() * 64 * 2);
}
BENCHMARK(BM_WfqFlowChurn);

num::NumProblem make_problem(int flows, int links, sim::Rng& rng,
                             std::vector<std::unique_ptr<num::AlphaFairUtility>>& store) {
  num::NumProblem problem;
  problem.capacities.resize(static_cast<std::size_t>(links));
  for (auto& c : problem.capacities) c = rng.uniform(1'000.0, 40'000.0);
  for (int i = 0; i < flows; ++i) {
    store.push_back(std::make_unique<num::AlphaFairUtility>(1.0));
    problem.utilities.push_back(store.back().get());
    std::vector<int> path;
    const int hops = static_cast<int>(rng.uniform_int(2, 4));
    for (int h = 0; h < hops; ++h) {
      const int link = static_cast<int>(rng.index(static_cast<std::size_t>(links)));
      if (std::find(path.begin(), path.end(), link) == path.end()) {
        path.push_back(link);
      }
    }
    problem.flow_links.push_back(std::move(path));
  }
  return problem;
}

void BM_NumSolver(benchmark::State& state) {
  sim::Rng rng(1);
  std::vector<std::unique_ptr<num::AlphaFairUtility>> store;
  const auto problem = make_problem(static_cast<int>(state.range(0)),
                                    static_cast<int>(state.range(0)) / 3 + 2, rng,
                                    store);
  // Compile once, cold-solve per iteration (reset() drops the warm start but
  // keeps the buffers) — the measured loop is pure solver arithmetic.
  const num::CsrProblem csr = num::CsrProblem::compile(problem);
  num::NumWorkspace workspace;
  std::int64_t sweeps = 0;
  for (auto _ : state) {
    workspace.reset();
    sweeps += num::solve(csr, workspace).sweeps;
    benchmark::DoNotOptimize(workspace.rates().data());
  }
  state.SetItemsProcessed(sweeps);  // Gauss-Seidel sweeps/sec
}
BENCHMARK(BM_NumSolver)->Arg(50)->Arg(400);

// Wave-parallel execution of the same solve.  The conflict-graph width caps
// usable parallelism, so this uses a sparser problem (links == flows) whose
// wave layers are wide enough to chunk; results are bit-identical to serial
// for every thread count (locked by CsrSolverTest).
void BM_NumSolverParallel(benchmark::State& state) {
  sim::Rng rng(1);
  std::vector<std::unique_ptr<num::AlphaFairUtility>> store;
  const auto problem = make_problem(static_cast<int>(state.range(0)),
                                    static_cast<int>(state.range(0)), rng, store);
  const num::CsrProblem csr = num::CsrProblem::compile(problem);
  num::NumWorkspace workspace;
  num::NumSolverOptions options;
  options.policy =
      num::ExecutionPolicy::parallel(static_cast<int>(state.range(1)));
  std::int64_t sweeps = 0;
  for (auto _ : state) {
    workspace.reset();
    sweeps += num::solve(csr, workspace, options).sweeps;
    benchmark::DoNotOptimize(workspace.rates().data());
  }
  state.SetItemsProcessed(sweeps);  // Gauss-Seidel sweeps/sec
}
BENCHMARK(BM_NumSolverParallel)
    ->Args({400, 1})
    ->Args({400, 2})
    ->Args({400, 8});

void BM_Waterfill(benchmark::State& state) {
  sim::Rng rng(2);
  std::vector<std::unique_ptr<num::AlphaFairUtility>> store;
  const auto num_problem = make_problem(static_cast<int>(state.range(0)),
                                        static_cast<int>(state.range(0)) / 3 + 2,
                                        rng, store);
  num::WaterfillProblem problem;
  problem.flow_links = num_problem.flow_links;
  problem.capacities = num_problem.capacities;
  problem.weights.assign(num_problem.utilities.size(), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(num::weighted_max_min(problem));
  }
  // flow allocations/sec
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Waterfill)->Arg(50)->Arg(400);

void BM_XwiFluid(benchmark::State& state) {
  sim::Rng rng(3);
  std::vector<std::unique_ptr<num::AlphaFairUtility>> store;
  const auto problem = make_problem(100, 30, rng, store);
  std::int64_t iterations = 0;
  for (auto _ : state) {
    const num::XwiFluidResult result = num::xwi_fluid_solve(problem);
    iterations += result.iterations;
    benchmark::DoNotOptimize(result.rates.data());
  }
  state.SetItemsProcessed(iterations);  // xWI price iterations/sec
}
BENCHMARK(BM_XwiFluid);

// A topology of `num_links` xWI-controlled links (as host pairs) wired into
// one batched ControlPlane.
struct ControlPlaneRig {
  sim::Simulator sim;
  net::Topology topo{sim};
  std::unique_ptr<transport::ControlPlane> plane;

  explicit ControlPlaneRig(int num_links) {
    for (int i = 0; i < num_links / 2; ++i) {
      net::Host* a = topo.add_host("a");
      net::Host* b = topo.add_host("b");
      topo.connect(a, b, 10e9, sim::micros(1), [] {
        return std::make_unique<net::DropTailQueue>(1'000'000);
      });
    }
    plane = transport::ControlPlane::attach(
        sim, transport::ControlPlane::Params{}, topo);
  }
};

// Price-tick cost vs link count: one synchronized 30 us interval advances
// all links' xWI price state with ONE timer event plus a sweep of the SoA
// arrays in slot order.  before_ns in BENCH_core.json records the cost with
// one timer event, virtual update and reschedule per link per interval.
void BM_ControlPlaneTick(benchmark::State& state) {
  const int num_links = static_cast<int>(state.range(0));
  ControlPlaneRig rig(num_links);
  for (auto _ : state) {
    rig.sim.run_until(rig.sim.now() + sim::micros(30));
  }
  state.SetItemsProcessed(state.iterations() * num_links);
}
BENCHMARK(BM_ControlPlaneTick)->Arg(16)->Arg(128)->Arg(1024);

// Data-path hook + tick churn: a saturated 10G link forwards 64-packet data
// bursts while the 30 us price tick runs.  Exercises the per-packet
// enqueue/dequeue hook (batched: index-addressed SoA writes; legacy
// before_ns: two virtual calls per packet) together with the tick machinery.
void BM_PriceTickChurn(benchmark::State& state) {
  ControlPlaneRig rig(2);
  net::Link* link = rig.topo.links()[0].get();
  std::uint64_t seq = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      net::Packet p;
      p.flow = 1;
      p.type = net::PacketType::kData;
      p.size = 1500;
      p.seq = seq++;
      p.normalized_residual = 0.01;
      link->send(std::move(p));
    }
    // 64 * 1500 B at 10 Gbps = 76.8 us of serialization: drain past it.
    rig.sim.run_until(rig.sim.now() + sim::micros(80));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_PriceTickChurn);

// The fluid-FCT oracle's dominant cost: re-solving the NUM problem after a
// small active-set change.  Exactly the oracle's production shape now: the
// departure is a set_active row patch on the compiled problem, the re-solve
// warm-starts from the base optimum in a reused workspace (allocation-free).
// before_ns tracks the legacy path — rebuild the NumProblem minus one flow,
// cold restart at 1.0 everywhere, allocate everything per solve.
void BM_NumSolverWarmStart(benchmark::State& state) {
  sim::Rng rng(7);
  std::vector<std::unique_ptr<num::AlphaFairUtility>> store;
  const auto base = make_problem(static_cast<int>(state.range(0)),
                                 static_cast<int>(state.range(0)) / 3 + 2, rng,
                                 store);
  num::CsrProblem csr = num::CsrProblem::compile(base);
  num::NumWorkspace workspace;
  const num::SolveStats base_stats = num::solve(csr, workspace);
  benchmark::DoNotOptimize(base_stats.sweeps);
  const std::vector<double> base_prices(workspace.prices().begin(),
                                        workspace.prices().end());
  num::NumSolverOptions options;
  std::size_t drop = 0;
  std::int64_t sweeps = 0;
  for (auto _ : state) {
    // One flow leaves; the rest of the problem (and its prices) barely move.
    csr.set_active(drop, false);
    options.initial_prices = base_prices;
    sweeps += num::solve(csr, workspace, options).sweeps;
    benchmark::DoNotOptimize(workspace.rates().data());
    csr.set_active(drop, true);
    drop = (drop + 1) % csr.num_flows();
  }
  state.SetItemsProcessed(sweeps);  // Gauss-Seidel sweeps/sec
}
BENCHMARK(BM_NumSolverWarmStart)->Arg(50)->Arg(400);

// One grid epoch of the flow-fluid engine at 10^3 / 10^5 concurrent flows:
// a warm NUM re-solve on the virtual leaf-spine plus an O(active) analytic
// advance of remaining bytes.  The flow set is compiled once outside the
// timed loop; reset() replays the identical workload whenever a run drains,
// so the loop meters steady-state per-epoch cost — the number that bounds
// mega-fct wall time.
void BM_FlowSimEpoch(benchmark::State& state) {
  const int num_flows = static_cast<int>(state.range(0));
  const flowsim::VirtualLeafSpine fabric{.hosts_per_leaf = 32,
                                         .leaves = 32,
                                         .spines = 8,
                                         .host_rate = 10e3,
                                         .leaf_spine_rate = 40e3};
  static num::AlphaFairUtility utility(1.0);
  sim::Rng rng(11);
  const auto draws = workload::batch_index_flows(
      fabric.hosts(), num_flows, workload::websearch_distribution(), rng);
  std::vector<flowsim::FlowSimFlow> flows(draws.size());
  for (std::size_t i = 0; i < draws.size(); ++i) {
    flows[i] = {0.0, static_cast<double>(draws[i].size_bytes),
                fabric.path(draws[i].src, draws[i].dst, i + 1), &utility};
  }
  flowsim::FlowSimOptions options;
  options.resolve_interval_seconds = 1e-3;
  // Match the mega-fct scenario's solver configuration (grid-quantized FCTs
  // don't benefit from tighter prices — see MegaFctOptions::solver_tolerance).
  options.solver.tolerance = 1e-5;
  options.solver.incremental = true;
  flowsim::FlowSimEngine engine(std::move(flows), fabric.capacities(), options);
  std::int64_t epochs = 0;
  for (auto _ : state) {
    if (engine.finished()) engine.reset();
    engine.step();
    ++epochs;
  }
  state.SetItemsProcessed(epochs);  // epochs/sec
}
BENCHMARK(BM_FlowSimEpoch)->Arg(1000)->Arg(100000);

// Same steady-state epoch cost on a jellyfish: the path table comes from
// k-shortest-paths over the random regular graph (VirtualFabric::from_graph)
// instead of the closed-form leaf-spine enumeration, but the per-epoch work
// must stay the same shape — warm re-solve + O(active) advance.
void BM_FlowSimEpochJellyfish(benchmark::State& state) {
  const int num_flows = static_cast<int>(state.range(0));
  net::JellyfishOptions jf;
  jf.switches = 64;
  jf.ports = 8;
  jf.hosts = 1024;
  jf.seed = 5;
  jf.host_rate_bps = 10e9;
  jf.switch_rate_bps = 40e9;
  const flowsim::VirtualFabric fabric =
      flowsim::VirtualFabric::from_graph(net::make_jellyfish(jf), 8);
  static num::AlphaFairUtility utility(1.0);
  sim::Rng rng(11);
  const auto draws = workload::batch_index_flows(
      fabric.hosts(), num_flows, workload::websearch_distribution(), rng);
  std::vector<flowsim::FlowSimFlow> flows(draws.size());
  for (std::size_t i = 0; i < draws.size(); ++i) {
    flows[i] = {0.0, static_cast<double>(draws[i].size_bytes),
                fabric.path(draws[i].src, draws[i].dst, i + 1), &utility};
  }
  flowsim::FlowSimOptions options;
  options.resolve_interval_seconds = 1e-3;
  options.solver.tolerance = 1e-5;
  options.solver.incremental = true;
  flowsim::FlowSimEngine engine(std::move(flows), fabric.capacities(),
                                options);
  std::int64_t epochs = 0;
  for (auto _ : state) {
    if (engine.finished()) engine.reset();
    engine.step();
    ++epochs;
  }
  state.SetItemsProcessed(epochs);  // epochs/sec
}
BENCHMARK(BM_FlowSimEpochJellyfish)->Arg(1000)->Arg(100000);

// Churn-shaped epoch: a steady ~2k-flow active sliver drawn from a much
// larger compiled flow set (10^5 / 10^6 flows), with ~8 arrivals and ~8
// departures per 1 ms epoch.  This is the mega-fct steady state: per-epoch
// cost should track the churn (the handful of flows entering and leaving),
// not the compiled history sitting inactive in the CSR rows.
void BM_FlowSimChurnEpoch(benchmark::State& state) {
  const int num_flows = static_cast<int>(state.range(0));
  const flowsim::VirtualLeafSpine fabric{.hosts_per_leaf = 32,
                                         .leaves = 32,
                                         .spines = 8,
                                         .host_rate = 10e3,
                                         .leaf_spine_rate = 40e3};
  static num::AlphaFairUtility utility(1.0);
  const int kSliver = 2048;    // concurrently-active steady state
  const double kGap = 125e-6;  // one arrival per 125 us ~ 8 per epoch
  const double kBytes = 1.5e8;  // ~250 epochs of life at fair share
  sim::Rng rng(13);
  std::vector<flowsim::FlowSimFlow> flows(num_flows);
  for (int i = 0; i < num_flows; ++i) {
    const int src = static_cast<int>(rng.uniform_int(0, fabric.hosts() - 1));
    int dst = static_cast<int>(rng.uniform_int(0, fabric.hosts() - 2));
    if (dst >= src) ++dst;
    // The initial sliver arrives at t=0 with sizes staggered so departures
    // trickle from the first epoch on; later flows arrive one per 125 us at
    // full size, replacing the departed.
    const bool initial = i < kSliver;
    const double arrival = initial ? 0.0 : kGap * (i - kSliver + 1);
    const double bytes = initial ? kBytes * (i + 1) / kSliver : kBytes;
    flows[i] = {arrival, bytes, fabric.path(src, dst, i + 1), &utility};
  }
  flowsim::FlowSimOptions options;
  options.resolve_interval_seconds = 1e-3;
  options.solver.tolerance = 1e-5;
  options.solver.incremental = true;  // the mega-fct default at this scale
  flowsim::FlowSimEngine engine(std::move(flows), fabric.capacities(),
                                options);
  for (int i = 0; i < 16; ++i) engine.step();  // establish the sliver, warm
  std::int64_t epochs = 0;
  for (auto _ : state) {
    if (engine.finished()) engine.reset();
    engine.step();
    ++epochs;
  }
  state.SetItemsProcessed(epochs);  // epochs/sec
}
BENCHMARK(BM_FlowSimChurnEpoch)->Arg(100000)->Arg(1000000);

// Yen's k-shortest-paths over a jellyfish, the routing cost the fabric zoo
// adds: one ordered host pair per iteration, cycling sources so the metered
// mix covers distinct pair distances rather than one cached pair.
void BM_KShortestPaths(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const net::FabricGraph graph = net::make_jellyfish(
      {.switches = 64, .ports = 8, .hosts = 128, .seed = 5});
  const int first_host = 64;  // switches precede hosts
  const int dst = first_host + 127;
  int src = first_host;
  std::int64_t pairs = 0;
  for (auto _ : state) {
    const auto paths = net::k_shortest_paths(graph, src, dst, k);
    benchmark::DoNotOptimize(paths.size());
    if (++src == dst) src = first_host;
    ++pairs;
  }
  state.SetItemsProcessed(pairs);  // pairs/sec
}
BENCHMARK(BM_KShortestPaths)->Arg(4)->Arg(16);

// Jellyfish path set-up as the flow-churn workload runs it: exp::pair_paths
// over 2,500 drawn host pairs of one jellyfish:32,8,256 wiring (k = 8),
// from an empty cache each iteration, so every switch-pair entry the pairs
// need is filled inside the timed region.
void BM_JellyfishPairPaths(benchmark::State& state) {
  const exp::BuiltFabric planned =
      exp::plan_fabric(net::LeafSpineOptions{},
                       net::JellyfishOptions{
                           .switches = 32, .ports = 8, .hosts = 256, .seed = 1},
                       8);
  const int first_host = 32;  // switches precede hosts
  sim::Rng rng(2500);
  std::vector<std::pair<int, int>> pairs(2500);
  for (auto& [src, dst] : pairs) {
    src = first_host + static_cast<int>(rng.uniform_int(0, 255));
    dst = first_host + static_cast<int>(rng.uniform_int(0, 254));
    if (dst >= src) ++dst;
  }
  for (auto _ : state) {
    exp::BuiltFabric fabric = planned;
    for (const auto& [src, dst] : pairs) {
      benchmark::DoNotOptimize(exp::pair_paths(fabric, src, dst).size());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pairs.size()));  // pairs/s
}
BENCHMARK(BM_JellyfishPairPaths);

}  // namespace

BENCHMARK_MAIN();
