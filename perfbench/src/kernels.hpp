// Direct per-call costs of the integer inference kernel and the FP64
// forward/backward pass on one model, shared by the rt and sim workloads.
#pragma once

#include <vector>

#include "common.hpp"
#include "nn/mlp.hpp"
#include "quant/quantized_mlp.hpp"

namespace perfbench {

/// Sets quant.infer_ns, quant.infer_batch_ns_per_row (8-row batches),
/// quant.macs_per_infer, quant.bytes_per_infer and nn.fwd_bwd_us.  `inputs`
/// holds row-major quantized input vectors for `prog` (at least 8 rows);
/// `net` is the FP64 model `prog` was generated from.
void measure_kernels(const lf::quant::quantized_mlp& prog,
                     const lf::nn::mlp& net,
                     const std::vector<lf::fp::s64>& inputs, run_result& r);

}  // namespace perfbench
