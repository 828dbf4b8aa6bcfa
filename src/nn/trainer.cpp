#include "nn/trainer.hpp"

#include <stdexcept>

namespace lf::nn {

supervised_trainer::supervised_trainer(mlp& model, loss_kind loss,
                                       std::unique_ptr<optimizer> opt,
                                       double grad_clip)
    : model_{model}, loss_{loss}, opt_{std::move(opt)}, grad_clip_{grad_clip} {
  if (!opt_) throw std::invalid_argument{"supervised_trainer: null optimizer"};
}

train_report supervised_trainer::train_batch(
    std::span<const training_sample> batch) {
  if (batch.empty()) return {};
  std::vector<double> grad(model_.parameter_count(), 0.0);
  tape_.resize(model_.tape_size());
  grad_out_.resize(model_.output_size());
  scratch_.resize(model_.backward_scratch_size());
  double total_loss = 0.0;
  for (const auto& sample : batch) {
    const auto pred = model_.forward_tape(sample.input, tape_);
    total_loss += loss_value(loss_, pred, sample.target);
    loss_gradient(loss_, pred, sample.target, grad_out_);
    model_.backward_tape(tape_, grad_out_, grad, scratch_);
  }
  const double inv_n = 1.0 / static_cast<double>(batch.size());
  for (auto& g : grad) g *= inv_n;
  train_report report;
  report.mean_loss = total_loss * inv_n;
  report.grad_norm = clip_gradient_norm(grad, grad_clip_);
  auto params = model_.parameters();
  opt_->step(params, grad);
  model_.set_parameters(params);
  return report;
}

double supervised_trainer::evaluate(
    std::span<const training_sample> batch) const {
  if (batch.empty()) return 0.0;
  double total = 0.0;
  for (const auto& sample : batch) {
    const auto pred = model_.forward(sample.input);
    total += loss_value(loss_, pred, sample.target);
  }
  return total / static_cast<double>(batch.size());
}

}  // namespace lf::nn
