#include "core/liteflow_core.hpp"

#include <stdexcept>

namespace lf::core {

liteflow_core::liteflow_core(sim::simulation& sim, kernelsim::cpu_model& cpu,
                             const kernelsim::cost_model& costs,
                             router_config rconfig)
    : sim_{sim}, cpu_{cpu}, costs_{costs}, router_{sim, manager_, rconfig} {}

model_id liteflow_core::register_model(codegen::snapshot snap) {
  // Shape compatibility against every attached IO module (the paper's
  // lf_register_io check runs both ways).
  for (const auto& [h, spec] : io_modules_) {
    if (spec.input_size != snap.input_size() ||
        spec.output_size != snap.output_size()) {
      throw std::invalid_argument{
          "register_model: shape incompatible with io module '" + spec.name +
          "'"};
    }
  }
  return manager_.register_model(std::move(snap));
}

bool liteflow_core::unregister_model(std::string_view name,
                                     std::uint64_t version) {
  const auto id = manager_.find(name, version);
  return id ? manager_.try_remove(*id) : false;
}

io_handle liteflow_core::register_io(io_module_spec spec) {
  if (spec.input_size == 0 || spec.output_size == 0) {
    throw std::invalid_argument{"register_io: zero-sized interface"};
  }
  if (const auto active = router_.active()) {
    const auto* snap = manager_.get(*active);
    if (snap && (snap->input_size() != spec.input_size ||
                 snap->output_size() != spec.output_size)) {
      throw std::invalid_argument{
          "register_io: installed NN shape mismatch for '" + spec.name + "'"};
    }
  }
  const io_handle handle = next_io_++;
  io_modules_.emplace(handle, std::move(spec));
  return handle;
}

bool liteflow_core::unregister_io(io_handle handle) {
  return io_modules_.erase(handle) > 0;
}

void liteflow_core::install_standby(model_key model, model_id id) {
  const auto replaced = router_.standby(model);
  router_.install_standby(model, id);
  // A displaced candidate has lost its slot ref; unload it so snapshots
  // that were never switched in don't pile up in the manager.
  if (replaced && *replaced != id) manager_.try_remove(*replaced);
}

gate_result liteflow_core::switch_active(model_key model) {
  // A missing standby still goes through the router so its no-op
  // accounting stays authoritative (the router then reports no wait).
  const bool had_standby = router_.standby(model).has_value();
  return {had_standby, router_.switch_active(model)};
}

double liteflow_core::query_cost(const codegen::snapshot& snap) const noexcept {
  return costs_.snapshot_query_overhead +
         static_cast<double>(snap.program.mac_count()) *
             costs_.snapshot_mac_cost;
}

void liteflow_core::query_model(model_key model, netsim::flow_id_t flow,
                                std::vector<fp::s64> input,
                                std::function<void(std::vector<fp::s64>)> done) {
  queries_.inc();
  const auto id = router_.route(model, flow);
  const auto* snap = id ? manager_.get(*id) : nullptr;
  if (!snap || input.size() != snap->input_size()) {
    if (done) done({});
    return;
  }
  // Pin the module while the inference is queued on the CPU — a snapshot
  // update may otherwise unload it before the work item runs.
  manager_.add_ref(*id);
  trace_.emit(sim_.now(), trace::event_type::inference_begin, flow, *id);
  cpu_.submit(kernelsim::task_category::datapath, query_cost(*snap),
              [this, flow, id = *id, snap, input = std::move(input),
               done = std::move(done)]() {
                std::vector<fp::s64> out(snap->output_size());
                snap->program.infer_into(input, out, scratch_);
                trace_.emit(sim_.now(), trace::event_type::inference_end,
                            flow, id);
                manager_.release(id);
                if (done) done(std::move(out));
              });
}

std::vector<fp::s64> liteflow_core::query_model_sync(
    model_key model, netsim::flow_id_t flow, std::span<const fp::s64> input) {
  queries_.inc();
  const auto id = router_.route(model, flow);
  const auto* snap = id ? manager_.get(*id) : nullptr;
  if (!snap || input.size() != snap->input_size()) return {};
  cpu_.submit(kernelsim::task_category::datapath, query_cost(*snap));
  // Synchronous path: begin/end collapse to a zero-duration span (the CPU
  // charge above is fire-and-forget).
  trace_.emit(sim_.now(), trace::event_type::inference_begin, flow, *id);
  std::vector<fp::s64> out(snap->output_size());
  snap->program.infer_into(input, out, scratch_);
  trace_.emit(sim_.now(), trace::event_type::inference_end, flow, *id);
  return out;
}

fp::s64 liteflow_core::active_io_scale(model_key model) const {
  const auto id = router_.active(model);
  if (!id) return 0;
  const auto* snap = manager_.get(*id);
  return snap ? snap->program.io_scale() : 0;
}

void liteflow_core::register_metrics(metrics::registry& reg,
                                     const std::string& prefix) {
  const std::string base = prefix + ".core";
  reg.register_counter(base + ".queries", queries_);
  router_.register_metrics(reg, base);
}

void liteflow_core::register_trace(trace::collector& col,
                                   const std::string& prefix) {
  const std::string base = prefix + ".core";
  col.attach(trace_, base);
  router_.register_trace(col, base);
}

void liteflow_core::register_monitor(adaptation_monitor& monitor) {
  if (!monitor.enabled()) return;
  manager_.set_removal_hook([this, &monitor](model_id id) {
    monitor.on_snapshot_removed(sim_.now(), id);
  });
}

}  // namespace lf::core
