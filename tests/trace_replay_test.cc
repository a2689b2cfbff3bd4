// Tests for the external-trace workload path: CSV parsing with line-numbered
// rejection of malformed rows, and the trace-replay experiment end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <iomanip>
#include <iterator>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

#include "exp/trace_replay.h"
#include "workload/trace.h"

namespace numfabric {
namespace {

using workload::TraceFlow;

std::vector<TraceFlow> parse(const std::string& text) {
  std::istringstream in(text);
  return workload::parse_trace_csv(in, "test.csv");
}

std::string parse_error(const std::string& text) {
  try {
    parse(text);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(TraceCsvTest, ParsesRowsHeaderAndComments) {
  const auto flows = parse(
      "# a comment\n"
      "arrival_s,size_bytes,src,dst\n"
      "0.001,20000,0,3\n"
      "\n"
      "0.002,500,2,1   # inline comment\n");
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_DOUBLE_EQ(flows[0].arrival_seconds, 0.001);
  EXPECT_EQ(flows[0].size_bytes, 20000u);
  EXPECT_EQ(flows[0].src, 0);
  EXPECT_EQ(flows[0].dst, 3);
  EXPECT_EQ(flows[1].src, 2);
}

TEST(TraceCsvTest, HeaderlessTracesParseToo) {
  const auto flows = parse("0,1000,0,1\n0.5,2000,1,0\n");
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[1].size_bytes, 2000u);
}

TEST(TraceCsvTest, MalformedRowsFailWithLineNumbers) {
  // Line 3: wrong field count.
  EXPECT_NE(parse_error("header,x,y,z\n0,100,0,1\n0.1,200,3\n")
                .find("test.csv:3"),
            std::string::npos);
  // Line 1: non-numeric size.
  EXPECT_NE(parse_error("0,big,0,1\n").find("test.csv:1"), std::string::npos);
  // Line 2: src == dst.
  EXPECT_NE(parse_error("0,100,0,1\n0,100,2,2\n").find("test.csv:2"),
            std::string::npos);
  EXPECT_NE(parse_error("0,100,2,2\n").find("src == dst"), std::string::npos);
  // Negative arrival, zero size, out-of-range hosts (negative or wider than
  // int — a wrap would silently replay the wrong hosts).
  EXPECT_NE(parse_error("-1,100,0,1\n").find("negative arrival"),
            std::string::npos);
  EXPECT_NE(parse_error("0,0,0,1\n").find("positive"), std::string::npos);
  EXPECT_NE(parse_error("0,100,-2,1\n").find("host-index range"),
            std::string::npos);
  EXPECT_NE(parse_error("0,100,4294967296,1\n").find("host-index range"),
            std::string::npos);
  // A second header-looking row is data, so it fails loudly.
  EXPECT_NE(parse_error("0,100,0,1\narrival_s,size_bytes,src,dst\n")
                .find("test.csv:2"),
            std::string::npos);
}

// Seeded-random property test of the trace CSV grammar: valid rows
// round-trip exactly, and every mutation of one row fails with
// std::invalid_argument naming that row's line.
TEST(TraceCsvTest, RandomRowsParseExactlyOrFailNamingTheLine) {
  std::mt19937_64 rng(20160822);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto exact = [](double value) {
    std::ostringstream out;
    out << std::setprecision(17) << value;
    return out.str();
  };
  const auto host = [&] {  // small fabrics and indices up to INT_MAX
    return pick(2) == 0 ? static_cast<int>(pick(64))
                        : static_cast<int>(pick(2147483648ull));
  };
  using Rows = std::vector<std::vector<std::string>>;
  // Header, then rows with comments and blank lines between them; returns
  // the text and fills each row's 1-based line number.
  const auto render = [&](const Rows& rows, std::vector<int>& row_line) {
    std::string text = "# property trace\narrival_s,size_bytes,src,dst\n";
    int line = 2;
    row_line.clear();
    for (const auto& fields : rows) {
      if (pick(4) == 0) {
        text += pick(2) == 0 ? "\n" : "# between rows\n";
        ++line;
      }
      for (std::size_t f = 0; f < fields.size(); ++f) {
        text += (f == 0 ? "" : ",") + fields[f];
      }
      text += pick(4) == 0 ? "  # inline\n" : "\n";
      row_line.push_back(++line);
    }
    return text;
  };
  int parses = 0;
  std::vector<int> row_line;
  const auto expect_rejected = [&](const Rows& rows, std::size_t row,
                                   const char* what) {
    ++parses;
    const std::string text = render(rows, row_line);
    try {
      parse(text);
      ADD_FAILURE() << what << " accepted:\n" << text;
    } catch (const std::invalid_argument& error) {
      const std::string where =
          "test.csv:" + std::to_string(row_line[row]) + ": ";
      EXPECT_NE(std::string(error.what()).find(where), std::string::npos)
          << what << ": " << error.what() << "\n" << text;
    }
  };
  for (int i = 0; i < 500; ++i) {
    std::vector<TraceFlow> flows(1 + pick(6));
    Rows rows;
    for (TraceFlow& flow : flows) {
      // 0, a fraction of a second, or up to 9e9 s (just inside the clock).
      const double unit = std::ldexp(static_cast<double>(rng() >> 11), -53);
      const double scale[] = {0.0, 1.0, 9e9};
      flow.arrival_seconds = scale[pick(3)] * unit;
      flow.size_bytes = pick(2) == 0 ? 1 + pick(1'000'000)
                                     : 1 + pick(9223372036854775807ull);
      flow.src = host();
      do flow.dst = host(); while (flow.dst == flow.src);
      rows.push_back({exact(flow.arrival_seconds),
                      std::to_string(flow.size_bytes),
                      std::to_string(flow.src), std::to_string(flow.dst)});
    }
    ++parses;
    const auto parsed = parse(render(rows, row_line));
    ASSERT_EQ(parsed.size(), flows.size());
    for (std::size_t r = 0; r < flows.size(); ++r) {
      EXPECT_EQ(parsed[r].arrival_seconds, flows[r].arrival_seconds);
      EXPECT_EQ(parsed[r].size_bytes, flows[r].size_bytes);
      EXPECT_EQ(parsed[r].src, flows[r].src);
      EXPECT_EQ(parsed[r].dst, flows[r].dst);
    }

    const std::size_t r = pick(rows.size());
    const std::size_t f = pick(4);
    auto mutated = rows;  // an arrival the clock cannot hold
    const char* unclocked[] = {"nan", "NaN", "-nan", "inf", "1e300", "9.3e9"};
    mutated[r][0] = unclocked[pick(std::size(unclocked))];
    expect_rejected(mutated, r, "unclocked arrival");

    mutated = rows;  // a negative arrival
    mutated[r][0] = "-" + exact(1e-9 + flows[r].arrival_seconds);
    expect_rejected(mutated, r, "negative arrival");

    mutated = rows;  // a zero or negative size
    mutated[r][1] = pick(2) == 0 ? "0" : "-" + rows[r][1];
    expect_rejected(mutated, r, "non-positive size");

    mutated = rows;  // src == dst
    mutated[r][3] = mutated[r][2];
    expect_rejected(mutated, r, "src == dst");

    mutated = rows;  // a missing field
    mutated[r].erase(mutated[r].begin() + static_cast<std::ptrdiff_t>(f));
    expect_rejected(mutated, r, "3 fields");

    mutated = rows;  // a 5th field
    mutated[r].push_back(std::to_string(host()));
    expect_rejected(mutated, r, "5 fields");

    mutated = rows;  // a non-digit
    const std::string junk = "abXyz;:/=_";
    std::string& text = mutated[r][f];
    text[pick(text.size())] = junk[pick(junk.size())];
    expect_rejected(mutated, r, "non-digit");

    mutated = rows;  // a host index >= 2^31, up to past int64
    mutated[r][2 + pick(2)] =
        pick(2) == 0 ? std::to_string(2147483648ull + pick(1ull << 62))
                     : "99999999999999999999";
    expect_rejected(mutated, r, "host >= 2^31");
  }
  EXPECT_GE(parses, 4500);
}

TEST(TraceCsvTest, MissingFileThrowsRuntimeError) {
  EXPECT_THROW(workload::load_trace_csv("/definitely/not/here.csv"),
               std::runtime_error);
}

TEST(TraceCsvTest, BuiltinExampleTraceIsValid) {
  const auto& trace = workload::example_trace();
  ASSERT_GE(trace.size(), 10u);
  for (const TraceFlow& flow : trace) {
    EXPECT_GE(flow.src, 0);
    EXPECT_LT(flow.src, 4);  // fits the smallest smoke topology (4 hosts)
    EXPECT_LT(flow.dst, 4);
    EXPECT_GT(flow.size_bytes, 0u);
  }
}

TEST(TraceReplayTest, ReplaysBuiltinTraceToCompletion) {
  exp::TraceReplayOptions options;
  options.topology.hosts_per_leaf = 2;
  options.topology.num_leaves = 2;
  options.topology.num_spines = 1;
  options.trace = workload::example_trace();
  options.horizon = sim::millis(500);
  const exp::TraceReplayResult result = exp::run_trace_replay(options);

  ASSERT_EQ(result.flows.size(), options.trace.size());
  EXPECT_EQ(result.completed + result.incomplete,
            static_cast<int>(options.trace.size()));
  EXPECT_GT(result.completed, 0);
  EXPECT_GT(result.sim_events, 0u);
  for (const auto& flow : result.flows) {
    if (!flow.completed) continue;
    EXPECT_GT(flow.fct_seconds, 0);
    EXPECT_LT(flow.fct_seconds, 0.5);
  }
}

TEST(TraceReplayTest, RejectsOutOfRangeHosts) {
  exp::TraceReplayOptions options;
  options.topology.hosts_per_leaf = 2;
  options.topology.num_leaves = 1;  // 2 hosts: indices 0 and 1
  options.trace = {{0.0, 1000, 0, 5}};
  EXPECT_THROW(exp::run_trace_replay(options), std::invalid_argument);
}

}  // namespace
}  // namespace numfabric
