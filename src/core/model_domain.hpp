// Model domain: N logical models sharing one datapath engine.
//
// The paper deploys three datapath functions backed by four NNs on one box
// (§5), but the original harnesses in this repository served exactly one
// model per engine — `inference_router`, `liteflow_core` and
// `rt::datapath_engine` all baked in a single active/standby snapshot pair.
// This header is the shared vocabulary that removes that assumption:
//
//   model_key        stable identifier of one *logical* model ("cc-aurora",
//                    "sched-ffnn", ...).  Distinct from core::model_id,
//                    which names one *installed snapshot* inside nn_manager;
//                    a logical model's lifecycle is a sequence of snapshot
//                    installs behind one stable key.
//   composite key    the flow caches stay keyed by a single 64-bit value so
//                    their probe loops are untouched; multi-model routing
//                    folds the model key into the top bits of the flow id.
//                    Key 0 maps a flow onto itself, so every single-model
//                    code path (and its fixed-seed output) is bit-for-bit
//                    unchanged.
//   model_domain     the per-engine registry of logical models: stable keys,
//                    display names and metrics prefixes.
//
// The header also carries the **shadow scoring** primitives (the live
// complement to §3.3's offline fidelity check): a seeded, deterministic
// flow sampler plus a divergence accumulator.  rt::datapath_engine runs the
// standby snapshot on the sampled slice of live routes, compares its
// outputs against the active's, and lets the accumulated divergence gate
// try_switch — measure before you commit.  The scorer itself is plain
// (single-writer); the engine wraps it in a per-model spinlock.  The
// simulated core (liteflow_core) does no shadow scoring.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netsim/packet.hpp"

namespace lf::core {

/// Stable identifier of one logical model served by an engine.
using model_key = std::uint32_t;

/// The implicit model of every single-model harness.
inline constexpr model_key k_default_model = 0;

/// Bits of the composite key reserved for the flow id.  Flows must fit in
/// 48 bits and model keys in 16 — comfortably true for every harness (flow
/// ids are dense small integers; an engine serves a handful of models).
inline constexpr unsigned k_flow_key_bits = 48;
inline constexpr netsim::flow_id_t k_flow_key_mask =
    (netsim::flow_id_t{1} << k_flow_key_bits) - 1;

/// Fold (model, flow) into the single 64-bit key the flow caches probe on.
/// Exact (collision-free) under the bit-budget above, and the identity for
/// model 0 — which is what keeps single-model hashing, shard selection and
/// therefore fixed-seed outputs unchanged.
constexpr netsim::flow_id_t composite_flow_key(model_key m,
                                               netsim::flow_id_t flow) noexcept {
  return (flow & k_flow_key_mask) |
         (static_cast<netsim::flow_id_t>(m) << k_flow_key_bits);
}

/// Registry of the logical models one engine serves.  Key 0 is reserved for
/// the default model so single-model call sites need no registration at all.
class model_domain {
 public:
  struct slot {
    model_key key = 0;
    std::string name;
  };

  /// Register a logical model; returns its stable key.  Key 0 ("default")
  /// always exists; the first add() names it, later adds mint fresh keys.
  model_key add(std::string name);

  std::size_t count() const noexcept { return slots_.size(); }
  /// Display name; "model<k>" if the key was never named.
  std::string name_of(model_key key) const;
  std::optional<model_key> find(std::string_view name) const noexcept;

  /// Metrics/trace prefix for one model: "<base>" for the default model
  /// (single-model telemetry keys stay byte-identical), else
  /// "<base>.m<key>-<name>".
  std::string prefix_of(const std::string& base, model_key key) const;

  const std::vector<slot>& slots() const noexcept { return slots_; }

 private:
  std::vector<slot> slots_{{0, "default"}};
  bool default_named_ = false;
};

/// Shadow scoring knobs.  Rate 0 (the default) disables shadowing entirely:
/// no sampling hash, no standby inference, no gate — the zero-overhead
/// contract the regression tests pin down.
struct shadow_config {
  /// Fraction of *flows* (not packets) shadow-scored, deterministically
  /// selected by hashing (seed, model, flow).  Sampling whole flows keeps
  /// the sampled route set identical across runs with the same flow plan.
  double sample_rate = 0.0;
  std::uint64_t seed = 0x5eedc0de5eedc0deULL;
  /// Mean per-route output divergence (io_scale-normalized) above which the
  /// standby is considered unfaithful and the switch is blocked.
  double divergence_threshold = 0.05;
  /// Shadow samples required before a gated switch may be admitted — an
  /// unmeasured standby is treated as unproven, not as clean.
  std::size_t min_samples = 32;
  /// When false the scorer still accumulates (observability) but
  /// switch_active is never blocked.
  bool gate_enabled = true;

  bool active() const noexcept { return sample_rate > 0.0; }
};

/// Verdict of one gate consultation.
struct shadow_verdict {
  bool admit = true;
  std::size_t samples = 0;
  double mean_divergence = 0.0;
  double max_divergence = 0.0;
};

/// Divergence accumulator for one model's standby snapshot.  Plain data:
/// callers that share it across threads must wrap it in their own lock (the
/// rt engine uses a per-model spinlock).
class shadow_scorer {
 public:
  /// Deterministic flow sampler: a pure splitmix64 hash of
  /// (seed, composite key) against the rate.  No state, no clock — the same
  /// (seed, model, flow) always lands on the same side, which is what makes
  /// the sampled route set reproducible run-over-run.
  static bool sampled(const shadow_config& cfg, model_key m,
                      netsim::flow_id_t flow) noexcept;

  /// Record one shadow comparison (mean |active - standby| over the output
  /// vector, in io_scale-normalized units).
  void record(double divergence) noexcept;

  /// Gen-tagged record: drops (and counts) the sample unless `candidate_gen`
  /// matches the bound generation.  This closes a misattribution race in
  /// concurrent callers: a worker that peeked candidate A inside its epoch
  /// guard can reach the scorer after the writer replaced A with B and
  /// reset/re-bound the evidence — A's divergence must not gate B.  The
  /// untagged record() above serves single-threaded callers.
  void record(double divergence, std::uint64_t candidate_gen) noexcept;

  /// Bind the evidence to one candidate generation (0 = unbound: every
  /// tagged record drops).  reset() unbinds.
  void bind(std::uint64_t candidate_gen) noexcept { bound_gen_ = candidate_gen; }
  std::uint64_t bound_gen() const noexcept { return bound_gen_; }
  /// Tagged records dropped for naming a generation other than the bound
  /// one (cumulative; survives reset()).
  std::uint64_t gen_mismatch_drops() const noexcept { return gen_drops_; }

  std::size_t samples() const noexcept { return samples_; }
  double mean_divergence() const noexcept {
    return samples_ == 0 ? 0.0 : sum_ / static_cast<double>(samples_);
  }
  double max_divergence() const noexcept { return max_; }

  /// Gate decision for the current evidence (pure; does not reset).
  shadow_verdict check(const shadow_config& cfg) const noexcept;

  /// Forget the evidence (a new standby invalidates the old one's score)
  /// and unbind the generation, so in-flight tagged records for the old
  /// candidate drop instead of polluting the fresh accumulator.
  void reset() noexcept;

 private:
  std::size_t samples_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
  std::uint64_t bound_gen_ = 0;
  std::uint64_t gen_drops_ = 0;
};

/// Mean absolute elementwise difference between two quantized output
/// vectors, each normalized by its own io_scale (generations may quantize
/// with different scales).  Sizes must match; returns +inf on mismatch so a
/// shape-incompatible standby can never pass the gate.
double shadow_divergence(std::span<const std::int64_t> active_out,
                         std::int64_t active_scale,
                         std::span<const std::int64_t> shadow_out,
                         std::int64_t shadow_scale) noexcept;

}  // namespace lf::core
