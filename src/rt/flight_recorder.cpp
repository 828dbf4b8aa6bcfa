#include "rt/flight_recorder.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/trace_report.hpp"

namespace lf::rt {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

void blackbox_ring::enable(std::size_t capacity) {
  if (capacity == 0) {
    slots_.reset();
    mask_ = 0;
    head_.store(0, std::memory_order_relaxed);
    return;
  }
  const std::size_t cap = round_up_pow2(capacity);
  slots_ = std::make_unique<slot[]>(cap);
  mask_ = cap - 1;
  head_.store(0, std::memory_order_relaxed);
}

std::vector<blackbox_event> blackbox_ring::snapshot() const {
  std::vector<blackbox_event> out;
  if (slots_ == nullptr) return out;
  const std::size_t cap = mask_ + 1;
  out.reserve(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    const slot& s = slots_[i];
    const std::uint64_t tag0 = s.tag.load(std::memory_order_relaxed);
    if (tag0 == 0) continue;  // never written
    blackbox_event e;
    e.t_ns = s.t_ns.load(std::memory_order_relaxed);
    e.a = s.a.load(std::memory_order_relaxed);
    e.b = s.b.load(std::memory_order_relaxed);
    // Re-read the tag: if an emitter rewrote the slot underneath us the
    // payload above may be mixed — drop it rather than report fiction.
    if (s.tag.load(std::memory_order_relaxed) != tag0) continue;
    e.seq = (tag0 >> 8) - 1;
    e.type = static_cast<trace::event_type>(tag0 & 0xff);
    out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const blackbox_event& x, const blackbox_event& y) {
              if (x.t_ns != y.t_ns) return x.t_ns < y.t_ns;
              return x.seq < y.seq;
            });
  return out;
}

void blackbox_ring::clear() noexcept {
  if (slots_ == nullptr) return;
  for (std::size_t i = 0; i <= mask_; ++i) {
    slots_[i].tag.store(0, std::memory_order_relaxed);
  }
  head_.store(0, std::memory_order_relaxed);
}

flight_recorder::flight_recorder(const flight_recorder_config& cfg,
                                 std::size_t max_workers)
    : cfg_{cfg} {
  if (cfg.route_sample_shift >= 64) {
    throw std::invalid_argument{
        "flight_recorder_config: route_sample_shift must be < 64"};
  }
  if (cfg.events_per_ring == 0) return;
  route_mask_ = (std::uint64_t{1} << cfg.route_sample_shift) - 1;
  control_.enable(cfg.events_per_ring);
  n_workers_ = max_workers;
  workers_ = std::make_unique<blackbox_ring[]>(max_workers);
  for (std::size_t i = 0; i < max_workers; ++i) {
    workers_[i].enable(cfg.events_per_ring);
  }
}

std::string flight_recorder::dump(std::string_view label,
                                  std::uint64_t window_ns) const {
  // Gather every ring's decoded events, find the global time extent, and
  // keep the trailing window.
  std::vector<std::vector<blackbox_event>> per_ring;
  per_ring.reserve(n_workers_ + 1);
  per_ring.push_back(control_.snapshot());
  for (std::size_t i = 0; i < n_workers_; ++i) {
    per_ring.push_back(workers_[i].snapshot());
  }

  std::uint64_t t_max = 0;
  for (const auto& v : per_ring) {
    if (!v.empty()) t_max = std::max(t_max, v.back().t_ns);
  }
  const std::uint64_t t_lo =
      (window_ns == 0 || t_max < window_ns) ? 0 : t_max - window_ns;

  std::uint64_t t_base = t_max;
  std::size_t kept = 0;
  for (const auto& v : per_ring) {
    for (const blackbox_event& e : v) {
      if (e.t_ns < t_lo) continue;
      t_base = std::min(t_base, e.t_ns);
      ++kept;
    }
  }

  // Re-emit through trace rings (wall-ns domain, timestamps re-based to the
  // oldest kept event) and export via the shared Perfetto writer.
  std::vector<std::unique_ptr<trace::ring>> rings;
  rings.reserve(per_ring.size());
  trace::collector col{{true, std::max<std::size_t>(kept, 2)}};
  for (std::size_t r = 0; r < per_ring.size(); ++r) {
    auto ring = std::make_unique<trace::ring>(
        r == 0 ? std::string{"rt.control"}
               : "rt.worker" + std::to_string(r - 1));
    col.attach(*ring);
    ring->set_domain(trace::time_domain::wall_ns);
    for (const blackbox_event& e : per_ring[r]) {
      if (e.t_ns < t_lo) continue;
      ring->emit(static_cast<double>(e.t_ns - t_base), e.type, e.a, e.b);
    }
    rings.push_back(std::move(ring));
  }
  return trace::write_trace(col, label, "BLACKBOX");
}

std::string flight_recorder::try_dump(std::string_view prefix,
                                      std::uint64_t window_ns) {
  std::uint64_t seq = 0;
  {
    // Admission under a lock: the interval check and the sequence claim
    // must be one step or two racing watchdog ticks could both pass the
    // interval test.  Slow path only — dumps happen at most once per
    // min_dump_interval_ns.
    std::lock_guard<std::mutex> g{dump_mu_};
    const std::uint64_t now = wall_ns();
    const std::uint64_t written =
        dumps_written_.load(std::memory_order_relaxed);
    const bool capped = cfg_.max_dumps != 0 && written >= cfg_.max_dumps;
    const bool too_soon = cfg_.min_dump_interval_ns != 0 && written != 0 &&
                          now - last_dump_ns_ < cfg_.min_dump_interval_ns;
    if (capped || too_soon) {
      dumps_suppressed_.fetch_add(1, std::memory_order_relaxed);
      return {};
    }
    last_dump_ns_ = now;
    seq = written + 1;
    dumps_written_.store(seq, std::memory_order_relaxed);
  }
  return dump(std::string{prefix} + "_" + std::to_string(seq), window_ns);
}

}  // namespace lf::rt
