// Emits the kernel-module C source for a quantized snapshot (§3.1,
// Listings 1 and 2).
//
// The generated file is valid C99 and compiles in two environments:
//  - as a Linux kernel module (the #ifdef __KERNEL__ section carries the
//    module boilerplate that registers the model with the LiteFlow core
//    module via lf_register_model), and
//  - as a plain userspace translation unit exporting lf_nn_infer, which the
//    test suite compiles with GCC and dlopens to golden-test the generated
//    arithmetic against the in-memory interpreter (quant::quantized_mlp).
// Both paths execute bit-identical integer arithmetic.
//
// Rendering is on demand: a snapshot carries only the integer program, and
// the C text is produced here when something compiles or inspects it.
#pragma once

#include <string>

#include "quant/quantized_mlp.hpp"

namespace lf::codegen {

struct snapshot;

struct emit_options {
  std::string model_name = "model";
  std::uint64_t version = 1;
};

/// Render the complete C source for the snapshot program.
std::string emit_c_source(const quant::quantized_mlp& program,
                          const emit_options& options);

/// Render the C source for a generated snapshot, named and versioned after
/// it (the module registers under that name and version).
std::string emit_c_source(const snapshot& snap);

}  // namespace lf::codegen
