// Supervised mini-batch trainer.  Used by the FFNN flow-size predictor and
// the load-balancing MLP, whose online adaptation is supervised learning on
// labels the datapath observes after the fact (actual flow size, actual FCT).
#pragma once

#include <span>
#include <vector>

#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"

namespace lf::nn {

struct training_sample {
  std::vector<double> input;
  std::vector<double> target;
};

struct train_report {
  double mean_loss = 0.0;
  double grad_norm = 0.0;  ///< pre-clip L2 norm
};

class supervised_trainer {
 public:
  supervised_trainer(mlp& model, loss_kind loss, std::unique_ptr<optimizer> opt,
                     double grad_clip = 10.0);

  /// One optimizer step over the whole batch (gradient averaged).
  train_report train_batch(std::span<const training_sample> batch);

  /// Mean loss over a set without updating parameters.
  double evaluate(std::span<const training_sample> batch) const;

  const mlp& model() const noexcept { return model_; }
  optimizer& opt() noexcept { return *opt_; }

 private:
  mlp& model_;
  loss_kind loss_;
  std::unique_ptr<optimizer> opt_;
  double grad_clip_;
  // Per-sample buffers reused across samples and batches: the forward tape,
  // dL/dy, and backward_tape's scratch.
  std::vector<double> tape_;
  std::vector<double> grad_out_;
  std::vector<double> scratch_;
};

}  // namespace lf::nn
