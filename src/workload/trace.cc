#include "workload/trace.h"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/parse.h"

namespace numfabric::workload {
namespace {

using util::trim;

/// Largest arrival the nanosecond clock holds, with margin for the rounding
/// in the seconds -> sim::TimeNs conversion.
constexpr double kMaxArrivalSeconds = 9.2e9;

[[noreturn]] void fail(const std::string& source, int line,
                       const std::string& reason) {
  throw std::invalid_argument(source + ":" + std::to_string(line) + ": " +
                              reason);
}

double parse_double_field(const std::string& token, const std::string& source,
                          int line, const char* field) {
  const auto value = util::parse_double(token);
  if (!value) {
    fail(source, line,
         std::string(field) + " '" + token + "' is not a number");
  }
  return *value;
}

std::int64_t parse_int_field(const std::string& token,
                             const std::string& source, int line,
                             const char* field) {
  const auto value = util::parse_int(token);
  if (!value) {
    fail(source, line,
         std::string(field) + " '" + token + "' is not an integer");
  }
  return *value;
}

int parse_host_field(const std::string& token, const std::string& source,
                     int line, const char* field) {
  const std::int64_t value = parse_int_field(token, source, line, field);
  // Narrowing past int would wrap and silently replay the wrong hosts;
  // reject here so the topology-bounds check downstream stays meaningful.
  if (value < 0 || value > std::numeric_limits<int>::max()) {
    fail(source, line,
         std::string(field) + " '" + token + "' is out of host-index range");
  }
  return static_cast<int>(value);
}

}  // namespace

std::vector<TraceFlow> parse_trace_csv(std::istream& in,
                                       const std::string& source_name) {
  std::vector<TraceFlow> flows;
  std::string line;
  int line_number = 0;
  bool first_row = true;
  while (std::getline(in, line)) {
    ++line_number;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    if (trim(line).empty()) continue;

    std::vector<std::string> fields;
    std::istringstream row(line);
    std::string field;
    while (std::getline(row, field, ',')) fields.push_back(trim(field));

    // One optional header row: the first row, when its first field is not a
    // number.
    const bool header = first_row && !fields.empty() &&
                        !util::parse_double(fields[0]).has_value();
    first_row = false;
    if (header) continue;

    if (fields.size() != 4) {
      fail(source_name, line_number,
           "expected 4 fields (arrival_s,size_bytes,src,dst), got " +
               std::to_string(fields.size()));
    }
    TraceFlow flow;
    flow.arrival_seconds =
        parse_double_field(fields[0], source_name, line_number, "arrival_s");
    if (flow.arrival_seconds < 0) {
      fail(source_name, line_number, "negative arrival time");
    }
    // NaN, inf and arrivals past sim::TimeNs (about 292 years) cannot be
    // scheduled; casting them to the clock is undefined.
    if (!(flow.arrival_seconds < kMaxArrivalSeconds)) {
      fail(source_name, line_number,
           "arrival_s '" + fields[0] + "' is outside the simulated clock");
    }
    const std::int64_t size =
        parse_int_field(fields[1], source_name, line_number, "size_bytes");
    if (size <= 0) {
      fail(source_name, line_number, "size_bytes must be positive");
    }
    flow.size_bytes = static_cast<std::uint64_t>(size);
    flow.src = parse_host_field(fields[2], source_name, line_number, "src");
    flow.dst = parse_host_field(fields[3], source_name, line_number, "dst");
    if (flow.src == flow.dst) {
      fail(source_name, line_number,
           "src == dst (" + std::to_string(flow.src) + ")");
    }
    flows.push_back(flow);
  }
  return flows;
}

std::vector<TraceFlow> load_trace_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read trace file: " + path);
  return parse_trace_csv(in, path);
}

const std::vector<TraceFlow>& example_trace() {
  // Keep in sync with examples/example_trace.csv: a short incast-plus-
  // crosstraffic pattern on 4 hosts — enough to exercise FCT reporting
  // without a file dependency.
  static const std::vector<TraceFlow> trace = [] {
    std::istringstream csv(
        "arrival_s,size_bytes,src,dst\n"
        "0.0000,20000,0,3\n"
        "0.0000,20000,1,3\n"
        "0.0000,20000,2,3\n"
        "0.0002,150000,0,1\n"
        "0.0004,50000,2,0\n"
        "0.0006,1000000,1,2\n"
        "0.0008,20000,3,0\n"
        "0.0010,80000,3,1\n"
        "0.0012,40000,0,2\n"
        "0.0014,500000,2,1\n"
        "0.0016,30000,1,0\n"
        "0.0018,250000,3,2\n");
    return parse_trace_csv(csv, "<builtin>");
  }();
  return trace;
}

}  // namespace numfabric::workload
