#include "report.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "stats/summary.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace perfbench {
namespace {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  return numfabric::stats::percentile(std::move(values), 50);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// A traced run's spans reduced to per-layer self time.
struct RunSpans {
  std::map<std::string, double> self_s;  // bucket -> summed self time
  double layer_s = 0;                     // self time of all layer spans
  std::size_t spans = 0;
  std::vector<double> slice_s;  // one per Simulator::run_until call
  std::vector<double> step_s;   // one per FlowSimEngine::step that re-solved
};

std::map<int, RunSpans> split_spans(const std::vector<Span>& spans) {
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::map<int, RunSpans> runs;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    RunSpans& run = runs[s.rep];
    ++run.spans;
    const char* slash = std::strchr(s.name, '/');
    if (slash == nullptr) continue;  // structural span (rep/setup/run)
    const double total = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    const double self = total - child_s[i];
    const std::string bucket(s.name, slash);
    run.self_s[bucket] += self;
    run.layer_s += self;
    if (bucket == "sim.run_until") run.slice_s.push_back(total);
    if (std::strcmp(s.name, kResolveStepSpan) == 0) run.step_s.push_back(total);
  }
  return runs;
}

}  // namespace

double tail_percentile(std::size_t samples) {
  for (const double p : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0}) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) {
      return p;
    }
  }
  return 50.0;
}

std::string Machine::json() const {
  std::ostringstream out;
  out << "{\"nproc\": " << nproc << ", \"cpu_model\": " << json_string(cpu_model)
      << ", \"compiler\": " << json_string(compiler)
      << ", \"build_type\": " << json_string(build_type)
      << ", \"assertions\": " << (assertions ? "true" : "false")
      << ", \"sanitized\": " << (sanitized ? "true" : "false") << "}";
  return out.str();
}

std::string Machine::refusal() const {
  if (sanitized) return "sanitizer build";
  if (build_type != "Release") {
    return "build type '" + build_type + "' (only Release is measured)";
  }
  if (assertions) return "assertions enabled (NDEBUG unset)";
  return "";
}

Machine describe_machine() {
  Machine machine;
  machine.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        machine.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
#if defined(__clang__)
  machine.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  machine.compiler = std::string("g++ ") + __VERSION__;
#endif
  machine.build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  machine.assertions = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(PERFBENCH_SANITIZED)
  machine.sanitized = true;
#endif
  return machine;
}

Metrics end_to_end_metrics(const std::vector<RunRecord>& records,
                           const std::vector<std::vector<double>>& setup_samples,
                           double peak_rss_mb, double failed_frac) {
  double setup_s = 0;
  for (const std::vector<double>& samples : setup_samples) {
    setup_s += median(samples);
  }
  double run_s = 0;
  double completed = 0;
  for (std::size_t j = 0; j < setup_samples.size(); ++j) {
    std::vector<double> samples;
    for (const RunRecord& r : records) {
      if (r.traced || r.instance != static_cast<int>(j)) continue;
      if (samples.empty()) {
        completed += static_cast<double>(r.outcome.completed.size());
      }
      samples.push_back(r.outcome.run_s);
    }
    run_s += median(std::move(samples));
  }
  return {
      {"setup_s", setup_s, "s"},
      {"run_s", run_s, "s"},
      {"flows_per_s", completed / run_s, "1/s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"completed_frac", 1.0 - failed_frac, "ratio"},
  };
}

Metrics layer_metrics(const std::vector<RunRecord>& records,
                      const std::vector<Span>& spans, double failed_frac) {
  const std::map<int, RunSpans> by_run = split_spans(spans);
  static const RunSpans kNoSpans;
  auto spans_of = [&](const RunRecord& r) -> const RunSpans& {
    const auto it = by_run.find(r.rep);
    return it == by_run.end() ? kNoSpans : it->second;
  };
  std::map<int, std::vector<const RunRecord*>> traced, untraced;
  for (const RunRecord& r : records) {
    (r.traced ? traced : untraced)[r.batch].push_back(&r);
  }
  // Median over batches of a per-run value summed (or, for a peak, maxed)
  // over the batch's instances.
  auto batch_median = [](const auto& batches, auto value, bool peak = false) {
    std::vector<double> totals;
    for (const auto& [batch, runs] : batches) {
      double total = 0;
      for (const RunRecord* r : runs) {
        total = peak ? std::max(total, value(*r)) : total + value(*r);
      }
      totals.push_back(total);
    }
    return median(std::move(totals));
  };
  auto per_batch = [&](auto value) { return batch_median(traced, value); };
  auto self_s = [&](const RunRecord& r, const char* bucket) {
    const auto& self = spans_of(r).self_s;
    const auto it = self.find(bucket);
    return it == self.end() ? 0.0 : it->second;
  };
  auto layer_s = [&](const char* bucket) {
    return per_batch([&](const RunRecord& r) { return self_s(r, bucket); });
  };
  auto count = [&](auto field) {
    return per_batch([&](const RunRecord& r) {
      return static_cast<double>(field(r.outcome));
    });
  };
  std::vector<double> slices, steps;
  for (const auto& [batch, runs] : traced) {
    for (const RunRecord* r : runs) {
      const RunSpans& s = spans_of(*r);
      slices.insert(slices.end(), s.slice_s.begin(), s.slice_s.end());
      steps.insert(steps.end(), s.step_s.begin(), s.step_s.end());
    }
  }
  auto pct_ms = [](const std::vector<double>& samples, double p) {
    return samples.empty() ? 0.0
                           : numfabric::stats::percentile(samples, p) * 1e3;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto run_s = [](const RunRecord& r) { return r.outcome.run_s; };
  auto setup_s = [](const RunRecord& r) { return r.outcome.setup_s; };

  const double sim_run_s = layer_s("sim.run_until");
  const double events = count([](const Outcome& o) { return o.counts.events_fired; });
  const double packets =
      count([](const Outcome& o) { return o.counts.packets_forwarded; });
  const double solves =
      count([](const Outcome& o) { return o.counts.solver_solves; });
  const double step_tail = tail_percentile(steps.size());
  const double traced_run_s = per_batch(run_s);
  const double base_run_s = batch_median(untraced, run_s);

  return {
      {"net.fabric_s", layer_s("net.fabric"), "s"},
      {"net.paths_s", layer_s("net.paths"), "s"},
      {"net.path_calls", count([](const Outcome& o) { return o.counts.path_calls; }),
       "count"},
      {"workload.draw_s", layer_s("workload.draw"), "s"},
      {"workload.flows", count([](const Outcome& o) { return o.attempted; }),
       "count"},
      {"transport.add_flow_s", layer_s("transport.add_flow"), "s"},
      {"flowsim.build_s", layer_s("flowsim.build"), "s"},
      {"sim.run_s", sim_run_s, "s"},
      {"sim.ns_per_event", ratio(sim_run_s * 1e9, events), "ns"},
      {"sim.slice_p50_ms", pct_ms(slices, 50), "ms"},
      {"sim.slice_p99_ms", pct_ms(slices, 99), "ms"},
      {"sim.slices", count([](const Outcome& o) { return o.counts.slices; }),
       "count"},
      {"sim.slice_samples", static_cast<double>(slices.size()), "count"},
      {"sim.events_fired", events, "count"},
      {"sim.events_scheduled",
       count([](const Outcome& o) { return o.counts.events_scheduled; }), "count"},
      {"sim.events_cancelled",
       count([](const Outcome& o) { return o.counts.events_cancelled; }), "count"},
      {"sim.allocs", count([](const Outcome& o) { return o.allocs.substrate; }),
       "count"},
      {"net.packets_forwarded", packets, "count"},
      {"net.bytes_forwarded",
       count([](const Outcome& o) { return o.counts.bytes_forwarded; }), "count"},
      {"net.packets_dropped",
       count([](const Outcome& o) { return o.counts.packets_dropped; }), "count"},
      {"net.ns_per_packet", ratio(sim_run_s * 1e9, packets), "ns"},
      {"transport.control_ticks",
       count([](const Outcome& o) { return o.counts.control_ticks; }), "count"},
      {"transport.links_swept",
       count([](const Outcome& o) { return o.counts.links_swept; }), "count"},
      {"num.oracle_s", layer_s("num.oracle"), "s"},
      {"num.oracle_solves",
       count([](const Outcome& o) { return o.counts.oracle_solves; }), "count"},
      {"num.solve_s", per_batch([](const RunRecord& r) { return r.outcome.solver_s; }),
       "s"},
      {"num.solves", solves, "count"},
      {"num.sweeps_per_solve",
       ratio(count([](const Outcome& o) { return o.counts.solver_sweeps; }), solves),
       "count"},
      {"num.relaxations_per_solve",
       ratio(count([](const Outcome& o) { return o.counts.solver_relaxations; }),
             solves),
       "count"},
      {"num.workspace_allocs",
       count([](const Outcome& o) { return o.allocs.workspace; }), "count"},
      {"flowsim.step_s", layer_s("flowsim.step"), "s"},
      {"flowsim.steps", count([](const Outcome& o) { return o.counts.steps; }),
       "count"},
      {"flowsim.epochs", count([](const Outcome& o) { return o.counts.epochs; }),
       "count"},
      {"flowsim.resolves",
       count([](const Outcome& o) { return o.counts.resolves; }), "count"},
      {"flowsim.peak_active", batch_median(traced, [](const RunRecord& r) {
         return static_cast<double>(r.outcome.counts.peak_active);
       }, /*peak=*/true),
       "count"},
      {"flowsim.resolve_step_p50_ms", pct_ms(steps, 50), "ms"},
      {"flowsim.resolve_step_tail_ms", pct_ms(steps, step_tail), "ms"},
      {"flowsim.resolve_step_tail_pct", steps.empty() ? 0.0 : step_tail, "pct"},
      {"flowsim.resolve_step_samples", static_cast<double>(steps.size()), "count"},
      {"flowsim.bookkeeping_s", per_batch([&](const RunRecord& r) {
         return self_s(r, "flowsim.step") - r.outcome.solver_in_steps_s;
       }),
       "s"},
      {"failed_frac", failed_frac, "ratio"},
      {"trace.batches", static_cast<double>(traced.size()), "count"},
      {"trace.untraced_batches", static_cast<double>(untraced.size()), "count"},
      {"trace.spans", per_batch([&](const RunRecord& r) {
         return static_cast<double>(spans_of(r).spans);
       }),
       "count"},
      {"trace.coverage",
       ratio(per_batch([&](const RunRecord& r) { return spans_of(r).layer_s; }),
             per_batch([](const RunRecord& r) {
               return r.outcome.setup_s + r.outcome.run_s;
             })),
       "ratio"},
      {"trace.run_overhead_s", traced_run_s - base_run_s, "s"},
      {"trace.run_overhead_frac", ratio(traced_run_s - base_run_s, base_run_s),
       "ratio"},
      {"trace.setup_overhead_s",
       per_batch(setup_s) - batch_median(untraced, setup_s), "s"},
  };
}

}  // namespace perfbench
