#include "args.hpp"

#include <array>
#include <cstdint>

namespace perfbench {
namespace {

constexpr std::array<const char*, 4> k_workloads = {"rt_aurora", "rt_churn",
                                                    "sim_cc", "sim_sched"};

/// Unsigned decimal in [lo, hi]: digits only (no sign, space, hex or
/// suffix), no overflow.
bool parse_uint(const std::string& s, std::uint64_t lo, std::uint64_t hi,
                std::uint64_t& out) {
  if (s.empty() || s.size() > 20) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) return false;
    v = v * 10 + d;
  }
  if (v < lo || v > hi) return false;
  out = v;
  return true;
}

}  // namespace

bool known_workload(const std::string& name) {
  for (const char* w : k_workloads) {
    if (name == w) return true;
  }
  return false;
}

bool parse_args(int argc, char** argv, options& out, std::string& err) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      err = "missing value after " + flag;
      return false;
    }
    const std::string val = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      if (have_workload || !known_workload(val)) {
        err = "bad or repeated --workload '" + val +
              "' (expected rt_aurora, rt_churn, sim_cc or sim_sched)";
        return false;
      }
      out.workload = val;
      have_workload = true;
    } else if (flag == "--seed") {
      // Seeds are mixed into 64-bit RNG state; keep one bit of headroom.
      if (have_seed || !parse_uint(val, 0, (1ULL << 62), n)) {
        err = "bad or repeated --seed '" + val +
              "' (expected a decimal integer in [0, 2^62])";
        return false;
      }
      out.seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (have_seconds || !parse_uint(val, 1, 600, n)) {
        err = "bad or repeated --seconds '" + val +
              "' (expected a whole number in [1, 600])";
        return false;
      }
      out.seconds = static_cast<unsigned>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (have_trace || (val != "0" && val != "1")) {
        err = "bad or repeated --trace '" + val + "' (expected 0 or 1)";
        return false;
      }
      out.trace = val == "1";
      have_trace = true;
    } else if (flag == "--spans-out") {
      if (val.empty()) {
        err = "empty --spans-out";
        return false;
      }
      out.spans_out = val;
    } else {
      err = "unknown argument '" + flag + "'";
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    err = "required: --workload --seed --seconds --trace";
    return false;
  }
  return true;
}

}  // namespace perfbench
