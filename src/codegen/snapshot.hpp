// A snapshot is what §3.1's generator hands to the datapath for one frozen
// model: the integer program (executable form) and identifying metadata.
// It is named "snapshot" because, once generated, it is never tuned again —
// only replaced wholesale by the NN snapshot update path (§3.4).
//
// The generator's second output, the kernel-module C source the paper
// compiles into a .ko, is not stored here: no datapath reads it, and it costs
// an order of magnitude more than quantization.  Render it on demand with
// codegen::emit_c_source(snap) (codegen/c_emitter.hpp).
#pragma once

#include <memory>
#include <string>

#include "nn/mlp.hpp"
#include "quant/quantizer.hpp"

namespace lf::codegen {

struct snapshot {
  std::string name;
  std::uint64_t version = 0;
  quant::quantized_mlp program;

  std::size_t input_size() const noexcept { return program.input_size(); }
  std::size_t output_size() const noexcept { return program.output_size(); }
};

/// Freeze + quantize: §3.1's pipeline up to the integer program.
snapshot generate_snapshot(const nn::mlp& model,
                           const quant::quantizer_config& qconfig,
                           std::string name, std::uint64_t version);

/// Default quantizer config (io_scale 1000, 1024-entry LUTs).
snapshot generate_snapshot(const nn::mlp& model, std::string name,
                           std::uint64_t version);

}  // namespace lf::codegen
