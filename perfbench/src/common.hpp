// Shared pieces of the benchmark binary: the result record every workload
// fills, the metric name sets, timing and statistics helpers, and the
// in-memory span recorder the traced runs use.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// A reported metric's name and unit.  The two lists below must equal
/// BENCHMARK.json's end_to_end and per_layer lists exactly (run.py and the
/// tests check).
struct metric_def {
  std::string name;
  std::string unit;
};
extern const std::vector<metric_def> k_end_to_end_metrics;
extern const std::vector<metric_def> k_per_layer_metrics;

/// One workload run: what the final JSON line carries, plus free-form
/// lines printed above it (sample counts, the sim digest, span file path).
struct run_result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;  ///< units come from metric_def
  std::vector<std::string> notes;
  std::vector<std::string> failures;

  void set(const std::string& name, double value) { metrics[name] = value; }
  void fail(const std::string& why) {
    correct = false;
    failures.push_back(why);
  }
};

struct options {
  std::string workload;
  std::uint64_t seed = 0;
  unsigned seconds = 0;
  bool trace = false;
  std::string spans_out;  ///< traced runs write their spans here (optional)
};

using clock_type = std::chrono::steady_clock;

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          clock_type::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t t0_ns) noexcept {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// Linear-interpolated quantile (q in [0, 1]) of a copy of `v`; 0 if empty.
template <class T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1.0 - frac) +
         static_cast<double>(v[hi]) * frac;
}

template <class T>
double median(const std::vector<T>& v) {
  return quantile(v, 0.5);
}

/// Latency samples in fixed memory: exact to the nanosecond up to 64 us,
/// slower samples kept verbatim (they are rare), so a long run costs no more
/// memory than a short one and the program's own footprint shows in
/// peak_rss_mb.
class latency_log {
 public:
  latency_log() : counts_(k_exact, 0) {}

  void add(std::uint64_t ns) {
    if (ns < k_exact) {
      ++counts_[ns];
    } else {
      slow_.push_back(ns);
    }
    ++n_;
  }
  void merge(const latency_log& o);
  std::uint64_t count() const noexcept { return n_; }
  /// Linear-interpolated quantile, as quantile() computes it; 0 if empty.
  double quantile(double q) const;

 private:
  static constexpr std::size_t k_exact = 1 << 16;
  double value_at(std::uint64_t rank, const std::vector<std::uint64_t>& slow) const;

  std::vector<std::uint32_t> counts_;
  std::vector<std::uint64_t> slow_;
  std::uint64_t n_ = 0;
};

/// splitmix64: the load generators' PRNG (one add and three
/// multiply-xorshifts per draw, no branches).
struct fast_rng {
  std::uint64_t s;
  std::uint64_t next() noexcept {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

/// Derive an independent stream seed from the run seed and a salt.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) noexcept {
  return fast_rng{seed * 0x100000001b3ULL + salt}.next();
}

/// Median ns per call of `fn(i)` over `blocks` blocks of `calls` calls.
template <class Fn>
double time_per_call_ns(std::size_t blocks, std::size_t calls, Fn&& fn) {
  std::vector<double> per;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < calls; ++i) fn(i);
    per.push_back(static_cast<double>(now_ns() - t0) /
                  static_cast<double>(calls));
  }
  return median(per);
}

/// Cost of one steady_clock::now() read in ns (median of several blocks).
double calibrate_clock_ns();

/// Peak resident set size of this process in MB.
double peak_rss_mb();

/// 64-bit FNV-1a, used for the sim statistics digest.
class digest {
 public:
  void add_bytes(const void* p, std::size_t n) noexcept;
  void add(std::uint64_t v) noexcept { add_bytes(&v, sizeof v); }
  void add(double v) noexcept { add_bytes(&v, sizeof v); }
  void add(const std::string& s) noexcept {
    add(static_cast<std::uint64_t>(s.size()));
    add_bytes(s.data(), s.size());
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex64(std::uint64_t v);

/// In-memory span log for traced runs.  A span is one benchmark call into a
/// layer's public function: name, start, end, the span that caused it (0 =
/// none) and the request it belongs to.  Each thread owns one log, so
/// recording is a plain vector push with no sharing.
struct span {
  std::uint32_t name = 0;  ///< index into span_names
  std::uint32_t parent = 0;
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class span_log {
 public:
  explicit span_log(std::size_t capacity = 0) { spans_.reserve(capacity); }

  /// Record a finished span; returns its 1-based id (0 when the log is full,
  /// so the hot loop never reallocates).
  std::uint32_t record(std::uint32_t name, std::uint64_t request,
                       std::uint64_t start_ns, std::uint64_t end_ns,
                       std::uint32_t parent = 0) {
    if (spans_.size() == spans_.capacity()) return 0;
    spans_.push_back(span{name, parent, request, start_ns, end_ns});
    return static_cast<std::uint32_t>(spans_.size());
  }

  const std::vector<span>& spans() const noexcept { return spans_; }

 private:
  std::vector<span> spans_;
};

/// Write every log's spans as tab-separated lines (thread, id, parent,
/// request, name, start_ns, end_ns) to `path`; returns false on I/O error.
bool write_spans(const std::string& path,
                 const std::vector<const span_log*>& logs,
                 const std::vector<std::string>& names);

run_result run_rt_workload(const options& opt);
run_result run_sim_workload(const options& opt);

}  // namespace perfbench
