// perfbench: runs one benchmark workload, times every layer call from
// outside the program, checks the outputs and prints the metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Untraced (--trace 0): end-to-end metrics.  Traced (--trace 1): alternating
// untraced and traced runs; spans from the traced ones give the per-layer
// metrics and the difference gives the tracing overhead.  The last stdout
// line is one JSON object {correct, attempted, failed, metrics}.
#include <sys/resource.h>
#include <unistd.h>

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check.h"
#include "report.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Set-up-only runs made before the measured runs: at least kSetupRuns per
// instance, and more until kSetupShare of --seconds is spent, so setup_s is a
// median of many samples even when a workload fits few full runs.
constexpr int kSetupRuns = 1;
constexpr double kSetupShare = 0.05;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0;
    } else if (key == "--trace") {
      args.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !have_workload || !have_seed || !have_seconds ||
      !have_trace) {
    return std::nullopt;
  }
  return args;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

void write_trace(const std::string& path, const std::string& workload,
                 std::uint64_t seed, const Machine& machine,
                 const Tracer& tracer) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write trace file " << path << "\n";
    return;
  }
  const std::vector<Span>& spans = tracer.spans();
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"otherData\":{\"workload\":\"" << workload << "\",\"seed\":" << seed
      << ",\"machine\":" << machine.json() << "},\n\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.rep
        << ",\"ts\":" << json_number(static_cast<double>(s.start_ns - origin) / 1e3)
        << ",\"dur\":" << json_number(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"run\":" << s.rep << ",\"workload\":\"" << workload << "\"}}";
  }
  out << "\n]}\n";
}

int run(const Args& args) {
  const std::optional<WorkloadInfo> workload = find_workload(args.workload);
  if (!workload) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const Machine machine = describe_machine();
  if (const std::string refusal = machine.refusal(); !refusal.empty()) {
    std::cerr << "perfbench: refusing to measure: " << refusal << "\n";
    return 3;
  }
  std::cout << "# machine " << machine.json() << "\n";

  // Measured work comes first, in a fresh process like a numfabric_run
  // invocation; the references for the output check run afterwards, so they
  // neither warm the heap nor count towards peak_rss_mb.
  const int instances = workload->instances;
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(args.seconds * 1e9);
  Tracer tracer(false);
  std::vector<std::vector<double>> setup_samples(
      static_cast<std::size_t>(instances));
  const std::int64_t setup_deadline =
      start + static_cast<std::int64_t>(args.seconds * kSetupShare * 1e9);
  for (int i = 0; i < kSetupRuns || now_ns() < setup_deadline; ++i) {
    for (int j = 0; j < instances; ++j) {
      auto run = make_workload(workload->kind, instance_seed(args.seed, j));
      const std::int64_t t0 = now_ns();
      run->setup(tracer);
      setup_samples[static_cast<std::size_t>(j)].push_back(
          static_cast<double>(now_ns() - t0) * 1e-9);
    }
  }

  // Batches of full runs: at least one (in a traced process one untraced
  // and one traced), then more while another batch fits before the deadline.
  std::vector<RunRecord> records;
  const int min_batches = args.trace ? 2 : 1;
  std::int64_t batch_ns = 0;
  for (int pass = 0; pass < min_batches || now_ns() + batch_ns <= deadline;
       ++pass) {
    const bool traced_pass = args.trace && pass % 2 == 1;
    tracer.set_enabled(traced_pass);
    const std::int64_t batch_start = now_ns();
    for (int j = 0; j < instances; ++j) {
      const int rep = pass * instances + j;
      tracer.set_rep(rep);
      Outcome outcome;
      {
        Scope root(tracer, "rep");
        auto run = make_workload(workload->kind, instance_seed(args.seed, j));
        run->setup(tracer);
        outcome = run->run(tracer);
      }
      setup_samples[static_cast<std::size_t>(j)].push_back(outcome.setup_s);
      records.push_back(RunRecord{pass, j, rep, traced_pass, std::move(outcome)});
    }
    batch_ns = now_ns() - batch_start;
  }
  tracer.set_enabled(false);
  const double rss_mb = peak_rss_mb();

  // Output and determinism check: one reference per instance (the runner
  // itself at packet fidelity, a full-solve runner at flow fidelity).
  const bool full_solve_reference =
      workload->kind != WorkloadKind::kPacketWebsearch;
  std::vector<RunChecker> checkers;
  for (int j = 0; j < instances; ++j) {
    checkers.emplace_back(make_reference(
        workload->kind,
        run_runner(workload->kind, instance_seed(args.seed, j),
                   /*incremental=*/!full_solve_reference)));
  }
  for (const RunRecord& r : records) {
    const Verdict verdict =
        checkers[static_cast<std::size_t>(r.instance)].add(r.outcome);
    std::cerr << "perfbench: batch " << r.batch << " instance " << r.instance
              << (r.traced ? " (traced)" : "") << ": setup " << r.outcome.setup_s
              << " s, run " << r.outcome.run_s << " s"
              << (verdict.reason.empty() ? "" : ": " + verdict.reason) << "\n";
  }

  long attempted = 0;
  long failed = 0;
  for (const RunChecker& checker : checkers) {
    attempted += checker.attempted();
    failed += checker.failed();
  }
  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);

  Metrics metrics;
  if (args.trace) {
    metrics = layer_metrics(records, tracer.spans(), failed_frac);
  } else {
    metrics = end_to_end_metrics(records, setup_samples, rss_mb, failed_frac);
  }
  if (!args.trace_out.empty()) {
    write_trace(args.trace_out, workload->name, args.seed, machine, tracer);
  }

  for (const Metric& m : metrics) {
    std::cout << "# " << m.name << " = " << json_number(m.value) << " " << m.unit
              << "\n";
  }
  std::ostringstream line;
  line << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line << (i ? ", " : "") << "\"" << metrics[i].name
         << "\": {\"value\": " << json_number(metrics[i].value)
         << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::optional<perfbench::Args> args = perfbench::parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n";
    return 2;
  }
  try {
    return perfbench::run(*args);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
