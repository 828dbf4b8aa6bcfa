#include "kernels.hpp"

namespace perfbench {

void measure_kernels(const lf::quant::quantized_mlp& prog,
                     const lf::nn::mlp& net,
                     const std::vector<lf::fp::s64>& inputs, run_result& r) {
  constexpr std::size_t k_batch = 8;
  const std::size_t in = prog.input_size(), on = prog.output_size();
  const std::size_t rows = inputs.size() / in;
  const std::size_t batches = rows / k_batch;
  lf::quant::inference_scratch scratch;
  std::vector<lf::fp::s64> out(on * k_batch);
  r.set("quant.infer_ns", time_per_call_ns(15, 4096, [&](std::size_t i) {
          prog.infer_into({inputs.data() + (i % rows) * in, in},
                          {out.data(), on}, scratch);
        }));
  r.set("quant.infer_batch_ns_per_row",
        time_per_call_ns(15, 512, [&](std::size_t i) {
          prog.infer_batch_into(
              {inputs.data() + (i % batches) * k_batch * in, k_batch * in},
              k_batch, out, scratch);
        }) / k_batch);
  r.set("quant.macs_per_infer", static_cast<double>(prog.mac_count()));
  r.set("quant.bytes_per_infer", static_cast<double>(prog.parameter_bytes()));

  std::vector<double> x(in), grad_out(net.output_size(), 1.0),
      grad(net.parameter_count(), 0.0);
  const auto scale = static_cast<double>(prog.io_scale());
  r.set("nn.fwd_bwd_us", time_per_call_ns(9, 256, [&](std::size_t i) {
          for (std::size_t j = 0; j < in; ++j) {
            x[j] = static_cast<double>(inputs[(i % rows) * in + j]) / scale;
          }
          net.accumulate_gradient(x, grad_out, grad);
        }) * 1e-3);
}

}  // namespace perfbench
