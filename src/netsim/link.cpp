#include "netsim/link.hpp"

#include <stdexcept>

#include "netsim/node.hpp"

namespace lf::netsim {

link::link(sim::simulation& sim, link_config config, node& dst)
    : sim_{sim}, config_{std::move(config)}, dst_{dst},
      drop_gen_{config_.drop_seed} {
  if (config_.rate_bps <= 0.0) {
    throw std::invalid_argument{"link rate must be positive"};
  }
}

void link::record_queue() {
  if (trace_enabled_) {
    queue_trace_.record(sim_.now(), static_cast<double>(queued_bytes_));
  }
}

void link::enqueue(packet pkt) {
  enqueued_.inc();
  if (config_.random_loss_prob > 0.0 &&
      drop_gen_.bernoulli(config_.random_loss_prob)) {
    random_dropped_.inc();
    trace_ring_.emit(sim_.now(), trace::event_type::pkt_drop, pkt.flow_id,
                     pkt.wire_bytes);
    return;
  }
  if (queued_bytes_ + pkt.wire_bytes > config_.buffer_bytes) {
    dropped_.inc();
    trace_ring_.emit(sim_.now(), trace::event_type::pkt_drop, pkt.flow_id,
                     pkt.wire_bytes);
    return;
  }
  if (pkt.ecn_capable && queued_bytes_ >= config_.ecn_threshold_bytes) {
    pkt.ecn_marked = true;
    marked_.inc();
    trace_ring_.emit(sim_.now(), trace::event_type::ecn_mark, pkt.flow_id,
                     queued_bytes_);
  }
  trace_ring_.emit(sim_.now(), trace::event_type::pkt_enqueue, pkt.flow_id,
                   pkt.wire_bytes);
  const auto band = static_cast<std::size_t>(
      pkt.priority < k_priority_bands ? pkt.priority : k_priority_bands - 1);
  queued_bytes_ += pkt.wire_bytes;
  bands_[band].push_back(pkt);
  record_queue();
  if (!transmitting_) try_transmit();
}

void link::try_transmit() {
  // Strict priority: lowest band index first.
  std::size_t band = k_priority_bands;
  for (std::size_t b = 0; b < k_priority_bands; ++b) {
    if (!bands_[b].empty()) {
      band = b;
      break;
    }
  }
  if (band == k_priority_bands) {
    transmitting_ = false;
    return;
  }
  transmitting_ = true;
  packet pkt = bands_[band].front();
  bands_[band].pop_front();
  queued_bytes_ -= pkt.wire_bytes;
  record_queue();
  const double tx_time =
      static_cast<double>(pkt.wire_bytes) * 8.0 / config_.rate_bps;
  auto on_sent = [this, pkt]() mutable {
    transmitted_.inc();
    tx_bytes_.inc(pkt.wire_bytes);
    if (tx_hook_) tx_hook_(pkt);
    // Propagation happens in parallel with the next serialization.
    sim_.schedule(config_.propagation_delay,
                  [this, pkt]() mutable { dst_.deliver(pkt); });
    try_transmit();
  };
  // Two events per hop per packet: keep them in the slab's inline buffer.
  static_assert(sim::simulation::fits_inline<decltype(on_sent)>);
  sim_.schedule(tx_time, std::move(on_sent));
}

void link::register_metrics(metrics::registry& reg, const std::string& prefix) {
  const std::string base = prefix + "." + config_.name;
  reg.register_counter(base + ".enqueued", enqueued_);
  reg.register_counter(base + ".dropped", dropped_);
  reg.register_counter(base + ".random_dropped", random_dropped_);
  reg.register_counter(base + ".transmitted", transmitted_);
  reg.register_counter(base + ".tx_bytes", tx_bytes_);
  reg.register_counter(base + ".ecn_marked", marked_);
  if (trace_enabled_) reg.register_series(base + ".queue_bytes", queue_trace_);
}

void link::register_trace(trace::collector& col, const std::string& prefix) {
  col.attach(trace_ring_, prefix + "." + config_.name);
}

}  // namespace lf::netsim
