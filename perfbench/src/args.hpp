// Strict command-line parsing: every malformed or out-of-range value is an
// error with a message, never a silent default or a 0.
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

/// The workloads this binary runs (order = BENCHMARK.json order).
bool known_workload(const std::string& name);

/// Parse `--workload W --seed N --seconds S --trace 0|1 [--spans-out PATH]`.
/// Returns false and fills `err` on any problem.
bool parse_args(int argc, char** argv, options& out, std::string& err);

}  // namespace perfbench
