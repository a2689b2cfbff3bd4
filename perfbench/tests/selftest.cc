// The benchmark's own tests.
//
//  * Equivalence: each workload's layer-call assembly gives exactly the
//    results of the runner numfabric_run calls for it
//    (exp::run_dynamic_workload, exp::run_dynamic_workload_flow,
//    exp::run_mega_fct) at the same parameters, so the benchmark measures
//    the program users run.
//  * Output check: runs pass against their reference; a perturbed reference
//    drives failed_frac to 1.
//  * Determinism: repeated runs at one seed reproduce every deterministic
//    count; a mismatch fails the run.
//
// Build and run with `python3 perfbench/run.py --selftest` (about a minute:
// every workload runs at full size).
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>

#include "check.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                     \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ++failures;                                                        \
      std::cerr << __FILE__ << ":" << __LINE__ << ": EXPECT(" #cond ")"  \
                << " failed\n";                                          \
    }                                                                    \
  } while (0)

// The seeds numfabric_run defaults to for these scenarios.
std::uint64_t default_seed(WorkloadKind kind) {
  return kind == WorkloadKind::kMegaFct100k ? 1 : 13;
}

Outcome assemble(WorkloadKind kind, std::uint64_t seed) {
  Tracer tracer(true);  // traced, so the spans cannot change results either
  auto workload = make_workload(kind, seed);
  workload->setup(tracer);
  return workload->run(tracer);
}

void test_workload(const WorkloadInfo& w) {
  std::cout << "[ RUN  ] " << w.name << "\n";
  const int failures_before = failures;
  const WorkloadKind kind = w.kind;
  const std::uint64_t seed = default_seed(kind);
  const Outcome runner = run_runner(kind, seed, /*incremental=*/true);
  const Outcome first = assemble(kind, seed);

  // Equivalence with the runner: completed counts and every FCT.
  EXPECT(first.attempted == w.flows);
  EXPECT(runner.attempted == first.attempted);
  EXPECT(runner.completed.size() == first.completed.size());
  EXPECT(runner.completed == first.completed);
  EXPECT(runner.counts.events_fired == first.counts.events_fired);
  EXPECT(runner.counts.packets_forwarded == first.counts.packets_forwarded);
  if (kind == WorkloadKind::kMegaFct100k) {
    EXPECT(runner.counts.epochs == first.counts.epochs);
    EXPECT(runner.counts.resolves == first.counts.resolves);
  }

  // Output check against the reference the benchmark uses (the runner
  // itself at packet fidelity, a full-solve runner at flow fidelity).
  const Reference reference = make_reference(
      kind, kind == WorkloadKind::kPacketWebsearch
                ? runner
                : run_runner(kind, seed, /*incremental=*/false));
  RunChecker checker(reference);
  const Verdict verdict = checker.add(first);
  EXPECT(verdict.failed == 0);
  EXPECT(verdict.reason.empty());
  if (!verdict.reason.empty()) std::cerr << "  " << verdict.reason << "\n";

  // Determinism: a repeated run reproduces every count and FCT.
  const Outcome again = assemble(kind, seed);
  EXPECT(determinism_mismatch(first, again).empty());
  EXPECT(checker.add(again).failed == 0);
  EXPECT(checker.failed_frac() == 0.0);

  // A run whose counts moved fails all its flows.
  Outcome moved = again;
  moved.counts.steps += 1;
  moved.counts.events_fired += 1;
  EXPECT(!determinism_mismatch(first, moved).empty());
  EXPECT(checker.add(moved).failed == moved.attempted);

  // A perturbed reference drives failed_frac to 1.
  Reference perturbed = reference;
  if (kind == WorkloadKind::kPacketWebsearch) {
    perturbed.events_fired += 1;
  } else {
    perturbed.summary.mean *= 1.5;
  }
  RunChecker negative(perturbed);
  negative.add(first);
  negative.add(again);
  EXPECT(negative.failed_frac() == 1.0);

  // The packet statistics are exact: any moved quantity fails.
  if (kind == WorkloadKind::kPacketWebsearch) {
    Reference summary_moved = reference;
    summary_moved.summary.p99 = std::nextafter(summary_moved.summary.p99, 10.0);
    EXPECT(check_output(summary_moved, first).failed == first.attempted);
  }
  std::cout << (failures == failures_before ? "[  OK  ] " : "[ FAIL ] ")
            << w.name << "\n";
}

void test_tail_percentile() {
  EXPECT(tail_percentile(0) == 50.0);
  EXPECT(tail_percentile(19) == 50.0);
  EXPECT(tail_percentile(40) == 75.0);
  EXPECT(tail_percentile(247) == 95.0);
  EXPECT(tail_percentile(1000) == 99.0);
  EXPECT(tail_percentile(9999) == 99.5);
  EXPECT(tail_percentile(10000) == 99.9);
}

void test_refusal() {
  Machine machine = describe_machine();
  machine.build_type = "Release";
  machine.assertions = false;
  machine.sanitized = false;
  EXPECT(machine.refusal().empty());
  machine.build_type = "Debug";
  EXPECT(!machine.refusal().empty());
  machine.build_type = "Release";
  machine.sanitized = true;
  EXPECT(!machine.refusal().empty());
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::test_tail_percentile();
  perfbench::test_refusal();
  for (const perfbench::WorkloadInfo& w : perfbench::all_workloads()) {
    perfbench::test_workload(w);
  }
  if (perfbench::failures > 0) {
    std::cerr << perfbench::failures << " expectation(s) failed\n";
    return 1;
  }
  std::cout << "all perfbench self-tests passed\n";
  return 0;
}
