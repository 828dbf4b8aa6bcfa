// Discrete-event simulation core shared by the network simulator and the
// kernel CPU model.  Single-threaded, deterministic: events at equal times
// fire in scheduling order (FIFO tie-break via a sequence number).
//
// Each scheduled closure is constructed once, in place, in a slot of a
// chunked slab and invoked there; only 24-byte {t, seq, slot} entries move
// through the 4-ary min-heap that orders events.  Chunks never move, so a
// running handler may schedule more events (and grow the slab) without
// relocating itself.  See DESIGN.md §15.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace lf::sim {

using sim_time = double;  ///< seconds

class simulation {
 public:
  /// Closures up to this size live inline in their slot; larger ones take
  /// one owned heap allocation.  Sized for netsim::link's [this, packet]
  /// transmit closure, the most frequent event.
  static constexpr std::size_t inline_bytes = 96;

  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= inline_bytes && alignof(F) <= alignof(std::max_align_t);

  simulation() = default;
  simulation(const simulation&) = delete;
  simulation& operator=(const simulation&) = delete;
  /// Destroys every pending closure without running it.
  ~simulation();

  sim_time now() const noexcept { return now_; }

  /// Schedule `fn` (any void() callable) to run at absolute time `t` (>= now).
  template <typename F>
  void schedule_at(sim_time t, F&& fn) {
    using Fn = std::decay_t<F>;
    if (t < now_) throw_past();
    if (free_.empty()) grow();
    // grow() reserved heap_ and free_ for every slot, so neither push below
    // can throw; only the closure's own construction can.
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    slot& s = slot_at(idx);
    try {
      if constexpr (fits_inline<Fn>) {
        ::new (static_cast<void*>(s.buf)) Fn(std::forward<F>(fn));
        s.op = &thunk<Fn, false>::table;
      } else {
        ::new (static_cast<void*>(s.buf)) Fn*(new Fn(std::forward<F>(fn)));
        s.op = &thunk<Fn, true>::table;
      }
    } catch (...) {
      free_.push_back(idx);
      throw;
    }
    push(entry{t, next_seq_++, idx});
  }

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  template <typename F>
  void schedule(sim_time delay, F&& fn) {
    if (delay < 0.0) throw_negative();
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Run events until the queue drains or the clock would pass `t_end`;
  /// the clock is left at min(t_end, last event time).
  void run_until(sim_time t_end);

  /// Run until the queue is empty.
  void run();

  std::size_t pending_events() const noexcept { return heap_.size(); }
  std::uint64_t executed_events() const noexcept { return executed_; }

 private:
  /// Type-erased operations on a slot's closure.  `run` invokes it and
  /// destroys it afterwards, also when it throws.
  struct ops {
    void (*run)(void* buf);
    void (*destroy)(void* buf) noexcept;
  };

  struct slot {
    alignas(std::max_align_t) unsigned char buf[inline_bytes];
    const ops* op;
  };

  /// Heap entry; events order by (t, seq).
  struct entry {
    sim_time t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Strict (t, seq) order; seq is unique, so equal times fire FIFO.
  static bool before(const entry& a, const entry& b) noexcept {
    return a.t < b.t || (a.t == b.t && a.seq < b.seq);
  }

  /// `Boxed`: the slot holds an owning Fn* instead of the closure itself.
  template <typename Fn, bool Boxed>
  struct thunk {
    static Fn& get(void* buf) noexcept {
      if constexpr (Boxed) {
        return **std::launder(static_cast<Fn**>(buf));
      } else {
        return *std::launder(static_cast<Fn*>(buf));
      }
    }
    static void destroy(void* buf) noexcept {
      if constexpr (Boxed) {
        delete std::addressof(get(buf));
      } else {
        get(buf).~Fn();
      }
    }
    static void run(void* buf) {
      struct destroy_after {
        void* buf;
        ~destroy_after() { destroy(buf); }
      } guard{buf};
      get(buf)();
    }
    static constexpr ops table{&run, &destroy};
  };

  static constexpr unsigned chunk_shift = 8;  ///< 256 slots (28 KiB) a chunk
  static constexpr std::uint32_t chunk_mask = (1u << chunk_shift) - 1;

  slot& slot_at(std::uint32_t idx) noexcept {
    return chunks_[idx >> chunk_shift][idx & chunk_mask];
  }

  [[noreturn]] static void throw_past();
  [[noreturn]] static void throw_negative();
  /// Add one chunk of free slots.
  void grow();
  /// Insert into the index heap (capacity is already reserved).
  void push(entry e) noexcept;
  /// Pop the earliest event, run its closure in place, free its slot.
  void fire_next();

  sim_time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<entry> heap_;                    ///< 4-ary min-heap on (t, seq)
  std::vector<std::unique_ptr<slot[]>> chunks_;
  std::vector<std::uint32_t> free_;            ///< LIFO free slot indices
};

}  // namespace lf::sim
