// The numfabric_run command-line driver, reusable from the bench figure
// wrappers (they synthesize an argument vector and call run_cli).
//
//   numfabric_run --list
//   numfabric_run --describe=incast
//   numfabric_run --scenario=incast --transport=numfabric fanin=32
//   numfabric_run --scenario=convergence transports=numfabric,dgd,rcp
//                 --format=json --output=conv.json
//   numfabric_run --scenario=permutation --config=sweep.conf
//   numfabric_run --scenario=websearch-fct --sweep load=0.2,0.4,0.6,0.8
//                 --jobs=4
//
// Global flags: --scenario, --transport (default numfabric), --config,
// --format=csv|json (default csv), --output=FILE (default stdout), --list,
// --describe, --help, --full (same as NUMFABRIC_FULL=1).  Everything else
// must be a key=value parameter declared by the selected scenario.
//
// Sweep mode: each `--sweep key=a,b,c` / `--sweep key=lo:hi:step` flag
// sweeps one declared parameter; multiple flags form a cross-product grid.
// The runs execute on `--jobs=N` threads (0 = all cores) and merge into one
// table set with the swept keys as leading columns (see app/sweep.h).
// `--vary-seed` gives run i the seed <base seed> + i.
#pragma once

#include <string>
#include <vector>

namespace numfabric::app {

/// Runs the CLI; returns the process exit code.  Registers the built-in
/// scenarios, so callers don't have to.
int run_cli(const std::vector<std::string>& args);
int run_cli(int argc, char** argv);

}  // namespace numfabric::app
