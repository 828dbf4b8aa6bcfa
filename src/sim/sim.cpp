#include "sim/sim.hpp"

#include <stdexcept>

namespace lf::sim {

simulation::~simulation() {
  for (const entry& e : heap_) {
    slot& s = slot_at(e.slot);
    s.op->destroy(s.buf);
  }
}

void simulation::throw_past() {
  throw std::invalid_argument{"schedule_at: time in the past"};
}

void simulation::throw_negative() {
  throw std::invalid_argument{"schedule: negative delay"};
}

void simulation::grow() {
  const std::size_t total = (chunks_.size() + 1) << chunk_shift;
  heap_.reserve(total);
  free_.reserve(total);
  chunks_.push_back(std::unique_ptr<slot[]>(new slot[chunk_mask + 1]));
  // Lowest index on top of the LIFO so a fresh chunk fills front to back.
  for (std::size_t i = total; i-- > total - (chunk_mask + 1);) {
    free_.push_back(static_cast<std::uint32_t>(i));
  }
}

void simulation::push(entry e) noexcept {
  std::size_t hole = heap_.size();
  heap_.push_back(e);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    const entry& p = heap_[parent];
    if (!before(e, p)) break;
    heap_[hole] = p;
    hole = parent;
  }
  heap_[hole] = e;
}

void simulation::fire_next() {
  const entry top = heap_.front();
  const entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    // Sift `last` down from the root's hole.
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first = 4 * hole + 1;
      if (first >= n) break;
      const std::size_t end = first + 4 < n ? first + 4 : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], last)) break;
      heap_[hole] = heap_[best];
      hole = best;
    }
    heap_[hole] = last;
  }

  now_ = top.t;
  ++executed_;
  // The slot stays off the free list while its closure runs, so events the
  // handler schedules land in other slots; it is released on every exit.
  struct release {
    std::vector<std::uint32_t>& free_list;
    std::uint32_t idx;
    ~release() { free_list.push_back(idx); }
  } on_exit{free_, top.slot};
  slot& s = slot_at(top.slot);
  s.op->run(s.buf);
}

void simulation::run_until(sim_time t_end) {
  while (!heap_.empty() && heap_.front().t <= t_end) fire_next();
  if (now_ < t_end) now_ = t_end;
}

void simulation::run() {
  while (!heap_.empty()) fire_next();
}

}  // namespace lf::sim
