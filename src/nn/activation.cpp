#include "nn/activation.hpp"

#include <stdexcept>
#include <string>

namespace lf::nn {

std::string_view to_string(activation a) noexcept {
  switch (a) {
    case activation::linear:
      return "linear";
    case activation::relu:
      return "relu";
    case activation::tanh_act:
      return "tanh";
    case activation::sigmoid:
      return "sigmoid";
  }
  return "linear";
}

activation activation_from_string(std::string_view name) {
  if (name == "linear") return activation::linear;
  if (name == "relu") return activation::relu;
  if (name == "tanh") return activation::tanh_act;
  if (name == "sigmoid") return activation::sigmoid;
  throw std::invalid_argument{"unknown activation: " + std::string{name}};
}

}  // namespace lf::nn
