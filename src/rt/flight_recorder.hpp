// Black-box flight recorder for the rt engine: per-worker overwrite-oldest
// wall-clock event rings that keep the last few thousand datapath events
// (sampled route summaries plus every switch, gate verdict, zombie push,
// reclaim, and violation) so an invariant failure or watchdog alert can dump
// a post-mortem — BLACKBOX_<label>.json, Perfetto-compatible through the
// same trace_report exporter the sim tracer uses.
//
// Concurrency model, in order of importance:
//  - emit() must be cheap and safe on the route hot path.  Every slot field
//    is a relaxed atomic; the ring head is claimed with a relaxed fetch_add.
//    Per-worker rings are effectively single-writer (their worker), the
//    control ring is written by the writer/admin threads; the fetch_add
//    makes the control ring safe for those without a lock.
//  - A dump can race live emitters.  Readers take relaxed snapshots of each
//    slot; a slot being overwritten mid-dump can yield a *stale or mixed*
//    record (timestamp from one event, payload from another).  That is an
//    accepted black-box property — the dump is forensic, not transactional
//    — and the seq tag lets the reader drop slots that are mid-rewrite for
//    the common case (tag changed between the first and second read).
//  - Timestamps are rt::wall_ns() (steady clock), the same clock the
//    latency histograms use, so dumped events and latency windows line up.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "rt/latency_histogram.hpp"
#include "util/trace.hpp"

namespace lf::rt {

/// One decoded record from a ring snapshot.
struct blackbox_event {
  std::uint64_t t_ns = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t seq = 0;
  trace::event_type type{};
};

/// Fixed-capacity overwrite-oldest ring of relaxed-atomic event slots.
class blackbox_ring {
 public:
  blackbox_ring() = default;
  blackbox_ring(const blackbox_ring&) = delete;
  blackbox_ring& operator=(const blackbox_ring&) = delete;

  /// Allocate storage (capacity rounded up to a power of two, min 2).
  /// Not thread-safe; call before emitters start.  enable(0) disables.
  void enable(std::size_t capacity);

  bool enabled() const noexcept { return slots_ != nullptr; }
  std::size_t capacity() const noexcept { return mask_ ? mask_ + 1 : 0; }
  std::uint64_t emitted() const noexcept {
    return head_.load(std::memory_order_relaxed);
  }

  /// Hot path: stamp wall_ns() and store one event.  One branch when
  /// disabled; no allocation, no lock, no RMW beyond the head claim.
  void emit(trace::event_type type, std::uint64_t a = 0,
            std::uint64_t b = 0) noexcept {
    if (slots_ == nullptr) return;
    const std::uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed);
    slot& s = slots_[static_cast<std::size_t>(seq) & mask_];
    s.t_ns.store(wall_ns(), std::memory_order_relaxed);
    s.a.store(a, std::memory_order_relaxed);
    s.b.store(b, std::memory_order_relaxed);
    // Tag last: seq+1 so 0 stays the "never written" sentinel.
    s.tag.store(((seq + 1) << 8) | static_cast<std::uint64_t>(type),
                std::memory_order_relaxed);
  }

  /// Reporting path: decode every written slot, oldest first by timestamp.
  /// Slots whose tag changes while being read are dropped (mid-rewrite).
  std::vector<blackbox_event> snapshot() const;

  /// Not thread-safe; quiesced use only (tests, between runs).
  void clear() noexcept;

 private:
  struct slot {
    std::atomic<std::uint64_t> t_ns{0};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
    std::atomic<std::uint64_t> tag{0};  ///< ((seq + 1) << 8) | event_type
  };

  std::unique_ptr<slot[]> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};
};

struct flight_recorder_config {
  std::size_t events_per_ring = 0;  ///< 0 disables the recorder entirely
  /// Route summaries are sampled 1-in-2^shift per worker (everything else —
  /// switches, verdicts, zombie pushes, reclaims, violations — is recorded
  /// unconditionally).
  unsigned route_sample_shift = 6;
  /// try_dump() rate limit: dumps closer together than this are suppressed
  /// (counted, not written).  0 = no interval limit.
  std::uint64_t min_dump_interval_ns = 0;
  /// try_dump() lifetime cap; dumps past it are suppressed.  0 = no cap.
  std::uint64_t max_dumps = 0;
};

/// The recorder proper: one control ring (writer/admin events) plus one ring
/// per worker slot, all sized events_per_ring.
class flight_recorder {
 public:
  /// Throws std::invalid_argument when cfg.route_sample_shift >= 64.
  flight_recorder(const flight_recorder_config& cfg, std::size_t max_workers);

  bool enabled() const noexcept { return control_.enabled(); }
  std::uint64_t route_sample_mask() const noexcept { return route_mask_; }

  blackbox_ring& control() noexcept { return control_; }
  blackbox_ring& worker(std::size_t i) noexcept { return workers_[i]; }
  std::size_t worker_rings() const noexcept { return n_workers_; }

  /// Write BLACKBOX_<label>.json (Perfetto trace-event JSON, wall-ns time
  /// domain) into bench::output_dir().  Keeps only events within
  /// `window_ns` of the newest event across all rings (0 = everything
  /// retained).  Timestamps are re-based to the oldest kept event.
  /// Returns the path written, or "" on failure (diagnostic on stderr).
  std::string dump(std::string_view label, std::uint64_t window_ns = 0) const;

  /// Rate-limited dump for anomaly capture: writes
  /// BLACKBOX_<prefix>_<n>.json where n is a monotonic per-recorder dump
  /// sequence number, unless the config's min interval or lifetime cap says
  /// this dump must be suppressed (then counts the drop and returns "").
  /// A flapping watchdog therefore cannot flood the disk; the suppressed
  /// count is exported as rt.watchdog.dumps_suppressed.
  std::string try_dump(std::string_view prefix, std::uint64_t window_ns = 0);

  /// try_dump()s actually written / suppressed so far (any thread).
  std::uint64_t dumps() const noexcept {
    return dumps_written_.load(std::memory_order_relaxed);
  }
  std::uint64_t dumps_suppressed() const noexcept {
    return dumps_suppressed_.load(std::memory_order_relaxed);
  }

 private:
  blackbox_ring control_;
  std::unique_ptr<blackbox_ring[]> workers_;
  std::size_t n_workers_ = 0;
  std::uint64_t route_mask_ = 0;
  flight_recorder_config cfg_{};
  std::mutex dump_mu_;  ///< serializes the try_dump admission decision
  std::uint64_t last_dump_ns_ = 0;
  std::atomic<std::uint64_t> dumps_written_{0};
  std::atomic<std::uint64_t> dumps_suppressed_{0};
};

}  // namespace lf::rt
