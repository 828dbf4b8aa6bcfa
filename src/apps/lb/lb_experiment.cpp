#include "apps/lb/lb_experiment.hpp"

#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "apps/common/deployment_registry.hpp"
#include "apps/lb/load_balance.hpp"
#include "netsim/topology.hpp"
#include "netsim/workload.hpp"
#include "nn/serialize.hpp"
#include "transport/dctcp.hpp"
#include "transport/window_sender.hpp"

namespace lf::apps {
namespace {

using netsim::flow_id_t;

struct lb_host_deployment {
  std::unique_ptr<supervised_adapter> adapter;
  std::unique_ptr<liteflow_stack> lf;
  std::unique_ptr<kernelsim::crossspace_channel> channel;
  std::unique_ptr<path_selector> selector;
  std::unique_ptr<path_stats_tracker> tracker;
  std::vector<core::train_sample> pending_labels;
};

/// What an lb stack builder gets; one builder per lb_deployment lives in
/// the deployment registry.
struct lb_build_context {
  lb_host_deployment& d;
  netsim::host& host;
  sim::simulation& sim;
  const lb_experiment_config& config;
  const std::string& frozen;  ///< shared pretrained weights (may be empty)
  std::size_t paths;
  std::size_t host_index;
};

using lb_stack_builder = std::function<void(lb_build_context&)>;

lb_stack_builder liteflow_lb_builder(bool adaptation) {
  return [adaptation](lb_build_context& c) {
    c.d.adapter = std::make_unique<supervised_adapter>(
        nn::load_mlp_from_string(c.frozen), 3e-3, 4,
        c.config.seed + c.host_index);
    liteflow_stack_options opts;
    opts.model_name = "lb-mlp";
    opts.batch_interval = c.config.batch_interval;
    opts.adaptation = adaptation;
    opts.sync.output_min = 0.0;
    opts.sync.output_max = 1.0;
    c.d.lf = std::make_unique<liteflow_stack>(c.host, *c.d.adapter, opts);
    c.d.lf->start();
    c.d.selector = std::make_unique<liteflow_path_selector>(
        c.d.lf->core(), c.paths, c.config.seed + 100 + c.host_index);
  };
}

lb_stack_builder chardev_lb_builder() {
  return [](lb_build_context& c) {
    c.d.adapter = std::make_unique<supervised_adapter>(
        nn::load_mlp_from_string(c.frozen), 3e-3, 4,
        c.config.seed + c.host_index);
    c.d.channel = std::make_unique<kernelsim::crossspace_channel>(
        c.sim, c.host.cpu(), c.host.costs(),
        kernelsim::channel_kind::char_device);
    c.d.selector = std::make_unique<userspace_path_selector>(
        *c.d.channel, c.host.costs(), c.d.adapter->model(),
        c.config.seed + 100 + c.host_index);
  };
}

lb_stack_builder ecmp_lb_builder() {
  return [](lb_build_context& c) {
    c.d.selector = std::make_unique<ecmp_selector>();
  };
}

[[maybe_unused]] const bool k_lb_registered = [] {
  register_deployment(app_kind::lb, lb_deployment::liteflow, "LF-MLP",
                      liteflow_lb_builder(true));
  register_deployment(app_kind::lb, lb_deployment::liteflow_noa,
                      "LF-MLP-N-O-A", liteflow_lb_builder(false));
  register_deployment(app_kind::lb, lb_deployment::chardev, "char-MLP",
                      chardev_lb_builder());
  register_deployment(app_kind::lb, lb_deployment::ecmp, "ECMP",
                      ecmp_lb_builder());
  return true;
}();

struct lb_flow {
  std::size_t src = 0;
  std::size_t dst = 0;
  std::uint64_t size = 0;
  double arrival = 0.0;
  std::uint32_t path_tag = 0;
  std::vector<double> features;  ///< at last selection
  std::unique_ptr<transport::window_sender> sender;
  bool done = false;
};

/// Moving-hotspot load-balancing run (Fig. 17) through the shared driver.
class lb_fct_experiment final : public experiment {
 public:
  explicit lb_fct_experiment(const lb_experiment_config& config)
      : config_{config} {
    driver_.name = std::string{to_string(config.deployment)};
    driver_.seed = config.seed;
    driver_.slice = 0.25;
    driver_.max_sim_time = config.max_sim_time;
  }

  const driver_config& config() const override { return driver_; }

  void setup(driver_context& ctx) override {
    sim_ = &ctx.sim;
    sim::simulation& simu = ctx.sim;
    netsim::spine_leaf_config topo_config;
    topo_config.hosts_per_leaf = config_.hosts_per_leaf;
    topo_config.host_bps = config_.host_bps;
    topo_config.fabric_bps = config_.fabric_bps;
    topo_config.cpu_gating = config_.cpu_gating;
    topo_.emplace(simu, topo_config);
    const std::size_t hosts = topo_->host_count();
    const std::size_t paths = topo_->config().spines;

    needs_model_ = config_.deployment == lb_deployment::liteflow ||
                   config_.deployment == lb_deployment::liteflow_noa ||
                   config_.deployment == lb_deployment::chardev;

    // Pretrain one MLP on the synthetic path-quality prior, share weights.
    std::string frozen;
    if (needs_model_) {
      rng init{config_.seed + 1};
      auto net = nn::make_lb_mlp_net(init, paths);
      supervised_adapter warmup{std::move(net), 3e-3, 1, config_.seed};
      const auto dataset = make_lb_pretrain_dataset(
          paths, config_.pretrain_samples, config_.seed + 2);
      warmup.pretrain(dataset, config_.pretrain_epochs);
      frozen = nn::save_mlp_to_string(warmup.model());
    }

    deploy_.resize(hosts);
    const auto* build =
        deployment_registry::instance().builder_as<lb_stack_builder>(
            app_kind::lb, static_cast<int>(config_.deployment));
    for (std::size_t h = 0; h < hosts; ++h) {
      auto& d = deploy_[h];
      d.tracker = std::make_unique<path_stats_tracker>(paths);
      if (build) {
        lb_build_context bc{d,      topo_->host_at(h), simu, config_,
                            frozen, paths,             h};
        (*build)(bc);
      }
    }

    // char-device deployment still adapts (in userspace), labels batched up.
    if (config_.deployment == lb_deployment::chardev) {
      for (std::size_t h = 0; h < hosts; ++h) {
        simu.schedule(config_.batch_interval, [this, h]() { batch_tick(h); });
      }
    }

    // Moving hotspot: constant-rate background pinned to one spine, hopping
    // periodically — the dynamic imbalance the learned selector must dodge.
    // Emitted manually (rather than via cbr_source) so packets carry an
    // explicit path tag.
    simu.schedule(config_.hotspot_switch_period, [this]() { hotspot_hop(); });
    simu.schedule(0.0, [this]() { hotspot_emit(); });

    flows_.reserve(config_.total_flows);
    auto sizes = netsim::web_search_flow_sizes();
    rng gen{config_.seed + 10};

    // Arrival plan.
    plan_.reserve(config_.total_flows);
    double t = 0.0;
    for (std::size_t i = 0; i < config_.total_flows; ++i) {
      t += gen.exponential(config_.arrival_rate);
      // Cross-leaf traffic only: LB is about the fabric paths.  Host 0 and
      // its peer carry the background hotspot; keep test flows off their
      // access links so the only contention the selector can dodge is the
      // fabric itself.
      const auto src = static_cast<std::size_t>(
          gen.uniform_int(1, static_cast<std::int64_t>(config_.hosts_per_leaf) - 1));
      const auto dst =
          config_.hosts_per_leaf +
          static_cast<std::size_t>(gen.uniform_int(
              1, static_cast<std::int64_t>(config_.hosts_per_leaf) - 1));
      const auto size = static_cast<std::uint64_t>(
          std::max(200.0, sizes.quantile(gen.uniform())));
      plan_.push_back({t, src, dst, size});
    }

    for (const auto& ap : plan_) {
      simu.schedule_at(ap.t, [this, ap]() { start_flow(ap); });
    }

    // Flowlet re-selection for active flows.
    if (config_.reselect_interval > 0.0 &&
        config_.deployment != lb_deployment::ecmp) {
      simu.schedule(config_.reselect_interval, [this]() { reselect(); });
    }

    // Telemetry: per-host FCT/CPU accounting, LiteFlow stacks, fabric links;
    // the trace rings wire alongside under the same prefixes.
    for (std::size_t h = 0; h < hosts; ++h) {
      auto& host = topo_->host_at(h);
      host.register_metrics(ctx.metrics, "lb");
      host.register_trace(ctx.trace, "lb");
      if (deploy_[h].lf) {
        const std::string base = "lb." + host.name();
        deploy_[h].lf->core().register_metrics(ctx.metrics, base);
        deploy_[h].lf->service().register_metrics(ctx.metrics, base);
        deploy_[h].lf->collector().register_metrics(ctx.metrics,
                                                    base + ".collector");
        deploy_[h].lf->register_trace(ctx.trace, base);
        deploy_[h].lf->register_monitor(ctx.monitor);
      }
    }
    for (std::size_t l = 0; l < 2; ++l) {
      for (std::size_t s = 0; s < paths; ++s) {
        topo_->uplink(l, s).register_metrics(ctx.metrics, "lb.fabric");
        topo_->uplink(l, s).register_trace(ctx.trace, "lb.fabric");
      }
    }
  }

  bool finished() const override { return completed_ >= plan_.size(); }

  void report(driver_context&, run_result& out) override {
    out.short_flows = fill_fct(fct_short_);
    out.mid_flows = fill_fct(fct_mid_);
    out.long_flows = fill_fct(fct_long_);
    out.completed = completed_;
    for (auto& d : deploy_) {
      if (d.lf) out.snapshot_updates += d.lf->service().snapshot_updates();
    }
  }

  std::uint64_t selector_calls() const noexcept { return selector_calls_; }

 private:
  struct arrival_plan {
    double t;
    std::size_t src;
    std::size_t dst;
    std::uint64_t size;
  };

  void record_label(lb_flow& f, double fct) {
    auto& d = deploy_[f.src];
    if (!needs_model_ || !d.adapter || f.path_tag == 0 ||
        f.features.empty()) {
      return;
    }
    // Target: model's own scores with the chosen path's entry replaced by
    // the achieved normalized goodput.
    auto target = d.adapter->evaluate(f.features);
    const double score = std::min(
        1.0, (static_cast<double>(f.size) * 8.0 / fct) / config_.host_bps);
    target[f.path_tag - 1] = score;
    core::train_sample sample;
    sample.features = f.features;
    sample.aux = target;
    if (d.lf) {
      d.lf->collector().collect(std::move(sample));
    } else {
      d.pending_labels.push_back(std::move(sample));
    }
  }

  /// Char-device deployment: ship host `h`'s pending labels across the
  /// channel for a userspace training pass, then re-arm.
  void batch_tick(std::size_t h) {
    auto& d = deploy_[h];
    auto& host = topo_->host_at(h);
    if (!d.pending_labels.empty()) {
      auto batch = std::move(d.pending_labels);
      d.pending_labels.clear();
      d.channel->send_to_user(
          batch.size() * 64, [&d, &host, batch = std::move(batch)]() {
            const double cost =
                host.costs().user_train_fixed_cost +
                static_cast<double>(batch.size() *
                                    d.adapter->parameter_count()) *
                    host.costs().user_train_cost_per_sample_param;
            host.cpu().submit(kernelsim::task_category::user_train, cost,
                              [&d, batch = std::move(batch)]() {
                                d.adapter->adapt(batch);
                              });
          });
    }
    sim_->schedule(config_.batch_interval, [this, h]() { batch_tick(h); });
  }

  void hotspot_hop() {
    hotspot_path_ = (hotspot_path_ == 1) ? 2 : 1;
    sim_->schedule(config_.hotspot_switch_period, [this]() { hotspot_hop(); });
  }

  void hotspot_emit() {
    netsim::packet pkt;
    pkt.flow_id = 1'000'000;
    pkt.dst = static_cast<netsim::host_id_t>(config_.hosts_per_leaf);
    pkt.payload_bytes = 1460;
    pkt.path_tag = hotspot_path_;
    pkt.ecn_capable = false;  // blasting UDP; does not back off
    topo_->host_at(0).send_packet_free(pkt);
    const double gap = 1500.0 * 8.0 / config_.hotspot_bps;
    sim_->schedule(gap, [this]() { hotspot_emit(); });
  }

  /// Flowlet re-selection for active flows.
  void reselect() {
    for (auto& fp : flows_) {
      lb_flow* f = fp.get();
      if (!f->sender || f->done) continue;
      auto& d = deploy_[f->src];
      f->features = d.tracker->features();
      // Hysteresis (CONGA-style): rerouting an active flow reorders its
      // packets (dup-ACK storms for long flows), so only consult the
      // selector when the flow's current path actually looks congested.
      if (f->path_tag != 0) {
        const std::size_t ecn_index = (f->path_tag - 1) * 3;
        if (ecn_index < f->features.size() &&
            f->features[ecn_index] < 0.3) {
          continue;
        }
      }
      ++selector_calls_;
      d.selector->select(f->sender->flow(), f->features,
                         [f](std::uint32_t tag) {
                           if (!f->done && f->sender && tag != 0) {
                             f->path_tag = tag;
                             f->sender->set_path_tag(tag);
                           }
                         });
    }
    sim_->schedule(config_.reselect_interval, [this]() { reselect(); });
  }

  void start_flow(const arrival_plan& ap) {
    sim::simulation& simu = *sim_;
    auto flow = std::make_unique<lb_flow>();
    flow->src = ap.src;
    flow->dst = ap.dst;
    flow->size = ap.size;
    flow->arrival = simu.now();
    auto& d = deploy_[ap.src];
    const flow_id_t id = next_flow_++;
    lb_flow* f = flow.get();
    flows_.push_back(std::move(flow));

    f->features = d.tracker->features();
    ++selector_calls_;
    d.selector->select(id, f->features, [this, &simu, f, id](std::uint32_t tag) {
      f->path_tag = tag;
      transport::window_sender_config wc;
      wc.path_tag = tag;
      f->sender = std::make_unique<transport::window_sender>(
          topo_->host_at(f->src), static_cast<netsim::host_id_t>(f->dst), id,
          f->size, wc, std::make_unique<transport::dctcp>());
      f->sender->set_ack_observer([this, f](const transport::ack_event& ev) {
        deploy_[f->src].tracker->on_ack(f->path_tag, ev);
      });
      f->sender->set_done([this, &simu, f](double) {
        // FCT from arrival: path selection latency counts.
        const double fct = simu.now() - f->arrival;
        f->done = true;
        ++completed_;
        switch (netsim::classify_flow(f->size)) {
          case netsim::flow_class::short_flow:
            fct_short_.push_back(fct);
            break;
          case netsim::flow_class::mid_flow:
            fct_mid_.push_back(fct);
            break;
          case netsim::flow_class::long_flow:
            fct_long_.push_back(fct);
            break;
        }
        record_label(*f, fct);
      });
      f->sender->start();
    });
  }

  lb_experiment_config config_;
  driver_config driver_;
  sim::simulation* sim_ = nullptr;
  std::optional<netsim::spine_leaf> topo_;
  bool needs_model_ = false;
  std::vector<lb_host_deployment> deploy_;
  std::vector<arrival_plan> plan_;
  std::vector<std::unique_ptr<lb_flow>> flows_;
  flow_id_t next_flow_ = 1;
  std::size_t completed_ = 0;
  std::uint64_t selector_calls_ = 0;
  std::uint32_t hotspot_path_ = 2;  ///< spine the background hotspot pins
  std::vector<double> fct_short_, fct_mid_, fct_long_;
};

}  // namespace

std::string_view to_string(lb_deployment d) noexcept {
  return deployment_label(app_kind::lb, d);
}

lb_result run_lb_experiment(const lb_experiment_config& config) {
  lb_fct_experiment exp{config};
  lb_result result;
  static_cast<run_result&>(result) = run_experiment(exp);
  result.selector_calls = exp.selector_calls();
  return result;
}

}  // namespace lf::apps
