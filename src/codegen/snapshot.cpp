#include "codegen/snapshot.hpp"

namespace lf::codegen {

snapshot generate_snapshot(const nn::mlp& model,
                           const quant::quantizer_config& qconfig,
                           std::string name, std::uint64_t version) {
  return snapshot{std::move(name), version, quant::quantize(model, qconfig)};
}

snapshot generate_snapshot(const nn::mlp& model, std::string name,
                           std::uint64_t version) {
  return generate_snapshot(model, quant::quantizer_config{}, std::move(name),
                           version);
}

}  // namespace lf::codegen
