// Quickstart: the LiteFlow snapshot pipeline end to end.
//
// 1. Train a small model in "userspace" (here: supervised, for brevity).
// 2. Freeze it and run §3.1's pipeline: high-precision integer quantization
//    + layer-wise code translation to kernel C.
// 3. Install it into a (simulated) kernel: register with the core module,
//    stage as standby, pointer-flip to active.
// 4. Serve inferences through lf_query_model and check fidelity (§3.3).
// 5. Render the snapshot's kernel C on demand, compile it with the real GCC
//    and verify it matches the in-kernel interpreter bit for bit.
//
// Build & run:  ./build/examples/quickstart
// Exits 1 if the compiled snapshot disagrees with the interpreter; skips
// step 5 (and still exits 0) when gcc is not on PATH.  ctest runs it as
// quickstart_smoke.
#include <iostream>

#include "codegen/c_emitter.hpp"
#include "codegen/compiled_snapshot.hpp"
#include "codegen/snapshot.hpp"
#include "core/liteflow_core.hpp"
#include "nn/trainer.hpp"
#include "quant/fidelity.hpp"
#include "util/rng.hpp"

int main() {
  using namespace lf;

  // --- 1. a userspace model -------------------------------------------
  rng gen{42};
  auto model = nn::make_ffnn_flow_size_net(gen);
  nn::supervised_trainer trainer{model, nn::loss_kind::mse,
                                 std::make_unique<nn::adam>(3e-3)};
  std::vector<nn::training_sample> data;
  for (int i = 0; i < 256; ++i) {
    std::vector<double> x(8);
    for (auto& v : x) v = gen.uniform(0.0, 1.0);
    data.push_back({x, {0.5 * (x[0] + x[1])}});
  }
  for (int epoch = 0; epoch < 300; ++epoch) trainer.train_batch(data);
  std::cout << "trained model: " << model.describe()
            << ", loss " << trainer.evaluate(data) << "\n";

  // --- 2. freeze + quantize (§3.1) -------------------------------------
  const auto snap = codegen::generate_snapshot(model, "quickstart", 1);
  std::cout << "snapshot: " << snap.program.mac_count() << " MACs, "
            << snap.program.parameter_bytes() << " parameter bytes\n";

  // --- 3. install into the simulated kernel (§3.4) ---------------------
  sim::simulation simu;
  kernelsim::cost_model costs;
  kernelsim::cpu_model cpu{simu};
  core::liteflow_core core{simu, cpu, costs};
  core.register_io({"quickstart-io", 8, 1});  // lf_register_io shape check
  const auto id = core.register_model(snap);  // lf_register_model
  core.router().install_standby(id);          // no lock
  core.router().switch_active();              // pointer flip (~ns)

  // --- 4. fast-path inference (lf_query_model) -------------------------
  std::vector<double> x(8, 0.4);
  std::vector<fp::s64> xq(8);
  for (std::size_t i = 0; i < 8; ++i) {
    xq[i] = static_cast<fp::s64>(x[i] * static_cast<double>(core.active_io_scale()));
  }
  const auto yq = core.query_model_sync(/*flow=*/1, xq);
  simu.run();
  const double y_kernel = static_cast<double>(yq.at(0)) /
                          static_cast<double>(core.active_io_scale());
  const double y_user = model.forward(x)[0];
  std::cout << "inference: userspace " << y_user << " vs kernel snapshot "
            << y_kernel << "\n";

  const std::vector<std::vector<double>> batch{x};
  const auto fidelity = quant::evaluate_fidelity(model, snap.program, batch);
  std::cout << "fidelity loss (|f'(x)-f(x)|): " << fidelity.max_loss
            << "  -> update necessary? "
            << (quant::update_necessary(fidelity, 0.05, 0.0, 1.0) ? "yes"
                                                                  : "no")
            << "\n";

  // --- 5. translate to kernel C and compile it with real GCC -----------
  if (!codegen::compiler_available()) {
    std::cout << "gcc not available; skipping compiled verification\n";
    return 0;
  }
  const std::string source = codegen::emit_c_source(snap);
  std::cout << "generated C: " << source.size() << " bytes\n";
  const auto compiled = codegen::compiled_snapshot::compile(source);
  const auto y_compiled = compiled.infer(xq, 1);
  const bool identical = y_compiled.at(0) == yq.at(0);
  std::cout << "gcc-compiled snapshot output: " << y_compiled.at(0)
            << (identical ? "  (bit-identical)" : "  (MISMATCH!)") << "\n";
  return identical ? 0 : 1;
}
