#include <sys/resource.h>

#include <cstdio>
#include <fstream>

#include "common.hpp"

namespace perfbench {

const std::vector<metric_def> k_end_to_end_metrics = {
    {"routes_per_s", "routes/s"}, {"route_p50_ns", "ns"},
    {"route_p99_ns", "ns"},       {"update_p50_us", "us"},
    {"run_s", "s"},               {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<metric_def> k_per_layer_metrics = {
    // quant
    {"quant.infer_ns", "ns"}, {"quant.infer_batch_ns_per_row", "ns"},
    {"quant.macs_per_infer", "count"}, {"quant.bytes_per_infer", "bytes"},
    // rt: route path (benchmark-side spans)
    {"rt.route_ns", "ns"}, {"rt.route_batch_ns_per_pkt", "ns"},
    {"rt.resolve_ns", "ns"}, {"rt.fin_ns", "ns"},
    // rt: counters the engine publishes
    {"rt.l1_hit_ratio", "ratio"}, {"rt.l2_hit_ratio", "ratio"},
    {"rt.miss_ratio", "ratio"}, {"rt.locks_per_route", "locks/route"},
    {"rt.lock_contended_ratio", "ratio"},
    {"rt.read_retries_per_route", "retries/route"},
    {"rt.read_fallbacks_per_route", "fallbacks/route"},
    {"rt.cache_evictions", "count"},
    // rt: control plane
    {"rt.install_us", "us"}, {"rt.switch_us", "us"}, {"rt.maintain_us", "us"},
    {"rt.versions_live_max", "count"}, {"rt.versions_retired", "count"},
    // codegen
    {"codegen.generate_ms", "ms"},
    // rl / nn slow path
    {"rl.pretrain_s", "s"}, {"rl.pg_iter_ms", "ms"}, {"nn.fwd_bwd_us", "us"},
    {"rl.train_est_share", "ratio"}, {"nn.pretrain_s", "s"},
    // sim + netsim + transport
    {"sim.host_ns_per_pkt", "ns"},
    // deterministic counts of the fixed-seed sim call
    {"netsim.pkts_tx", "count"}, {"netsim.pkts_dropped", "count"},
    {"netsim.ecn_marked", "count"}, {"core.queries", "count"},
    {"core.switches", "count"}, {"core.service.batches", "count"},
    {"core.service.sync_checks", "count"},
    {"core.service.snapshot_updates", "count"},
    {"core.service.update_ratio", "ratio"}, {"apps.flows_completed", "count"},
    // kernelsim CPU accounting, in simulated seconds
    {"kernelsim.datapath_sim_s", "sim_s"}, {"kernelsim.softirq_sim_s", "sim_s"},
    {"kernelsim.user_train_sim_s", "sim_s"},
    // the benchmark itself
    {"bench.clock_ns", "ns"}, {"bench.latency_samples", "count"},
    {"bench.trace_overhead_ratio", "ratio"},
};

double calibrate_clock_ns() {
  constexpr int k_reads = 20000;
  std::vector<double> blocks;
  std::uint64_t sink = 0;
  for (int b = 0; b < 9; ++b) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < k_reads; ++i) sink += now_ns();
    blocks.push_back(static_cast<double>(now_ns() - t0) / k_reads);
  }
  // Keep the reads observable so the loop is not folded away.
  if (sink == 1) std::fputs("", stderr);
  return median(blocks);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void digest::add_bytes(const void* p, std::size_t n) noexcept {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 0x100000001b3ULL;
  }
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void latency_log::merge(const latency_log& o) {
  for (std::size_t i = 0; i < k_exact; ++i) counts_[i] += o.counts_[i];
  slow_.insert(slow_.end(), o.slow_.begin(), o.slow_.end());
  n_ += o.n_;
}

double latency_log::value_at(std::uint64_t rank,
                             const std::vector<std::uint64_t>& slow) const {
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < k_exact; ++i) {
    seen += counts_[i];
    if (rank < seen) return static_cast<double>(i);
  }
  return static_cast<double>(slow.at(rank - seen));
}

double latency_log::quantile(double q) const {
  if (n_ == 0) return 0.0;
  std::vector<std::uint64_t> slow = slow_;
  std::sort(slow.begin(), slow.end());
  const double pos = q * static_cast<double>(n_ - 1);
  const auto lo = static_cast<std::uint64_t>(pos);
  const std::uint64_t hi = std::min<std::uint64_t>(lo + 1, n_ - 1);
  const double frac = pos - static_cast<double>(lo);
  return value_at(lo, slow) * (1.0 - frac) + value_at(hi, slow) * frac;
}

bool write_spans(const std::string& path,
                 const std::vector<const span_log*>& logs,
                 const std::vector<std::string>& names) {
  std::ofstream f{path};
  if (!f) return false;
  f << "thread\tid\tparent\trequest\tname\tstart_ns\tend_ns\n";
  for (std::size_t t = 0; t < logs.size(); ++t) {
    const auto& spans = logs[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const span& s = spans[i];
      f << t << '\t' << (i + 1) << '\t' << s.parent << '\t' << s.request
        << '\t' << names.at(s.name) << '\t' << s.start_ns << '\t' << s.end_ns
        << '\n';
    }
  }
  return static_cast<bool>(f);
}

}  // namespace perfbench
