// External workload traces: a CSV of flow arrivals (arrival time, size,
// source host, destination host) parsed into TraceFlow records for the
// trace-replay experiment.
//
// Format: one flow per line, `arrival_s,size_bytes,src,dst`.  Blank lines
// and '#' comments are ignored; the first row is an optional header,
// recognized by a first field that is not a number.  Malformed rows fail
// with a line-numbered error ("<source>:<line>: <reason>") instead of being
// skipped, so a corrupted trace never silently replays a subset.
#pragma once

#include <cstdint>
#include <istream>
#include <string>
#include <vector>

namespace numfabric::workload {

struct TraceFlow {
  double arrival_seconds = 0;
  std::uint64_t size_bytes = 0;
  int src = 0;
  int dst = 0;
};

/// Parses trace CSV from a stream.  `source_name` labels errors (a path or
/// "<builtin>").  Throws std::invalid_argument with the offending line
/// number on malformed rows: wrong field count, non-numeric fields, an
/// arrival that is negative, not finite or beyond the simulated clock, zero
/// size, a host index outside [0, INT_MAX] or src == dst.
std::vector<TraceFlow> parse_trace_csv(std::istream& in,
                                       const std::string& source_name);

/// Loads a trace from a file.  Throws std::runtime_error when the file
/// cannot be read, std::invalid_argument on malformed content.
std::vector<TraceFlow> load_trace_csv(const std::string& path);

/// A small built-in demo trace (12 flows among hosts 0-3) used when the
/// trace-replay scenario is run without a trace= file.  Matches
/// examples/example_trace.csv.
const std::vector<TraceFlow>& example_trace();

}  // namespace numfabric::workload
