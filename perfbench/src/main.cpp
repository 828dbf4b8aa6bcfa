// lf_perfbench: the repository benchmark's measuring binary.
//
//   lf_perfbench --workload <rt_aurora|rt_churn|sim_cc|sim_sched>
//                --seed <n> --seconds <s> --trace <0|1> [--spans-out PATH]
//
// Prints a human-readable table, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
// the end-to-end metrics; --trace 1 reports the per-layer metrics of a
// separate traced run.  Exit status: 0 only when every output check passed;
// 1 on a failed check (the JSON is still printed, with correct=false); 2 on
// a usage error or an internal error (nothing printed on stdout).
#include <charconv>
#include <cstdio>
#include <exception>
#include <string>

#include "args.hpp"
#include "common.hpp"

namespace {

std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  options opt;
  std::string err;
  if (!parse_args(argc, argv, opt, err)) {
    std::fprintf(stderr, "lf_perfbench: %s\n", err.c_str());
    return 2;
  }

  run_result r;
  try {
    r = opt.workload.rfind("rt_", 0) == 0 ? run_rt_workload(opt)
                                          : run_sim_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lf_perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 2;
  }

  const auto& defs = opt.trace ? k_per_layer_metrics : k_end_to_end_metrics;
  for (const metric_def& d : defs) {
    if (r.metrics.count(d.name)) continue;
    if (!opt.trace) {
      std::fprintf(stderr, "lf_perfbench: internal error: metric %s missing\n",
                   d.name.c_str());
      return 2;
    }
    // A layer this workload does not exercise: nothing counted, nothing
    // timed.
    r.set(d.name, 0.0);
  }
  if (r.attempted == 0) {
    r.attempted = r.failed = 1;  // a run that tried nothing has failed
    r.fail("no operation attempted");
  }
  if (r.failed > 0) r.correct = false;

  std::printf("workload %s seed %llu seconds %u trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  for (const std::string& line : r.notes) std::printf("  %s\n", line.c_str());
  for (const metric_def& d : defs) {
    std::printf("  %-32s %16.6g %s\n", d.name.c_str(), r.metrics.at(d.name),
                d.unit.c_str());
  }
  std::printf("  attempted %llu failed %llu failed_ratio %.6g\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<double>(r.failed) / static_cast<double>(r.attempted ? r.attempted : 1));
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "FAIL: %s\n", f.c_str());
  }

  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const metric_def& d : defs) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + json_escape(d.name) + "\": {\"value\": " +
            json_number(r.metrics.at(d.name)) + ", \"unit\": \"" +
            json_escape(d.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
