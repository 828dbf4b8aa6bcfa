// Unit tests for src/codegen: the template engine, the C emitter, and the
// gcc+dlopen golden test proving generated code matches the interpreter.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "codegen/c_emitter.hpp"
#include "codegen/compiled_snapshot.hpp"
#include "codegen/snapshot.hpp"
#include "codegen/template_engine.hpp"
#include "nn/mlp.hpp"
#include "quant/quantizer.hpp"
#include "util/rng.hpp"

namespace {

using namespace lf;
using namespace lf::codegen;

// -------------------------------------------------------- template engine --

TEST(TemplateEngine, PlainTextPassesThrough) {
  EXPECT_EQ(render_template("hello world", {}), "hello world");
}

TEST(TemplateEngine, VariableSubstitution) {
  tcontext ctx;
  ctx["name"] = "fc_5";
  ctx["n"] = std::int64_t{16};
  EXPECT_EQ(render_template("static void {{ name }}_comp({{ n }})", ctx),
            "static void fc_5_comp(16)");
}

TEST(TemplateEngine, ForOverRange) {
  EXPECT_EQ(render_template("{% for i in range(0, 3) %}{{ i }},{% endfor %}",
                            {}),
            "0,1,2,");
}

TEST(TemplateEngine, ForOverArray) {
  tcontext ctx;
  ctx["xs"] = tvalue{std::vector<tvalue>{std::int64_t{7}, std::int64_t{9}}};
  EXPECT_EQ(render_template("{% for x in xs %}[{{ x }}]{% endfor %}", ctx),
            "[7][9]");
}

TEST(TemplateEngine, NestedLoopsAndIndexing) {
  tcontext ctx;
  ctx["m"] = tvalue{std::vector<tvalue>{
      tvalue{std::vector<tvalue>{std::int64_t{1}, std::int64_t{2}}},
      tvalue{std::vector<tvalue>{std::int64_t{3}, std::int64_t{4}}}}};
  const auto out = render_template(
      "{% for i in range(0, 2) %}{% for j in range(0, 2) %}"
      "{{ m[i][j] }} {% endfor %}{% endfor %}",
      ctx);
  EXPECT_EQ(out, "1 2 3 4 ");
}

TEST(TemplateEngine, LoopLastControlsSeparators) {
  const auto out = render_template(
      "{% for i in range(0, 3) %}{{ i }}{% if not loop.last %} + "
      "{% endif %}{% endfor %}",
      {});
  EXPECT_EQ(out, "0 + 1 + 2");
}

TEST(TemplateEngine, LoopFirstAndIndex0) {
  const auto out = render_template(
      "{% for i in range(5, 8) %}{% if loop.first %}^{% endif %}"
      "{{ loop.index0 }}{% endfor %}",
      {});
  EXPECT_EQ(out, "^012");
}

TEST(TemplateEngine, WhitespaceTrimming) {
  EXPECT_EQ(render_template("a   {{- 1 -}}   b", {}), "a1b");
  EXPECT_EQ(render_template("x {%- if 1 -%} y {%- endif -%} z", {}), "xyz");
}

TEST(TemplateEngine, LiteralBraceBeforeTag) {
  // "(void) {{% for ... %}" contains "{{%": a literal '{' then a tag.
  const auto out = render_template(
      "f(void) {{% for i in range(0, 2) %}x{{ i }};{% endfor %}}", {});
  EXPECT_EQ(out, "f(void) {x0;x1;}");
}

TEST(TemplateEngine, IfTruthiness) {
  tcontext ctx;
  ctx["empty"] = "";
  ctx["full"] = "yes";
  EXPECT_EQ(render_template("{% if empty %}A{% endif %}", ctx), "");
  EXPECT_EQ(render_template("{% if full %}A{% endif %}", ctx), "A");
  EXPECT_EQ(render_template("{% if not empty %}B{% endif %}", ctx), "B");
}

TEST(TemplateEngine, ErrorsCarryOffsets) {
  EXPECT_THROW(render_template("{{ unknown }}", {}), template_error);
  EXPECT_THROW(render_template("{% for i in range(0, 2) %}x", {}),
               template_error);
  EXPECT_THROW(render_template("{{ broken", {}), template_error);
  EXPECT_THROW(render_template("{% frob x %}", {}), template_error);
  try {
    render_template("abc {{ nope }}", {});
    FAIL() << "expected throw";
  } catch (const template_error& e) {
    EXPECT_GT(e.offset(), 0u);
  }
}

TEST(TemplateEngine, IndexOutOfRangeThrows) {
  tcontext ctx;
  ctx["a"] = tvalue{std::vector<tvalue>{std::int64_t{1}}};
  EXPECT_THROW(render_template("{{ a[3] }}", ctx), template_error);
}

// ------------------------------------------------------------- c emitter --

TEST(CEmitter, SourceContainsExpectedStructure) {
  rng g{50};
  const auto net = nn::make_aurora_net(g);
  const auto snap = generate_snapshot(net, "aurora", 3);
  const auto src = emit_c_source(snap);
  // Per-layer functions like the paper's Listing 2.
  EXPECT_NE(src.find("static void fc_0_comp"), std::string::npos);
  EXPECT_NE(src.find("static void fc_1_comp"), std::string::npos);
  EXPECT_NE(src.find("static void fc_2_comp"), std::string::npos);
  // tanh layers got lookup tables.
  EXPECT_NE(src.find("lut_0_values"), std::string::npos);
  EXPECT_NE(src.find("lut_2_eval"), std::string::npos);
  // Top-level inference entry point and kernel module registration.
  EXPECT_NE(src.find("int lf_nn_infer"), std::string::npos);
  EXPECT_NE(src.find("lf_register_model(\"aurora\", 3UL, 30, 1, 1000"),
            std::string::npos);
  EXPECT_NE(src.find("module_init"), std::string::npos);
  EXPECT_NE(src.find("MODULE_LICENSE"), std::string::npos);
}

TEST(CEmitter, ReluNetsHaveNoLut) {
  rng g{51};
  const auto net = nn::make_ffnn_flow_size_net(g);
  const auto src = emit_c_source(generate_snapshot(net, "ffnn", 1));
  EXPECT_EQ(src.find("lut_"), std::string::npos);
  EXPECT_NE(src.find("lf_relu("), std::string::npos);
}

// FNV-1a over the rendered text: equal hashes mean byte-identical source.
std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Golden renders: the emitted C for fixed-seed snapshots, pinned by size and
// hash so any change to the template engine or the emitter that moves a byte
// fails here.  Re-record only for a deliberate change to the generated C.
TEST(CEmitter, GoldenSourceAurora) {
  rng g{50};
  const auto src = emit_c_source(generate_snapshot(nn::make_aurora_net(g),
                                                   "aurora", 3));
  EXPECT_EQ(src.size(), 41645u);
  EXPECT_EQ(fnv1a(src), 0xbbc3efb327e8705eULL);
}

TEST(CEmitter, GoldenSourceFfnn) {
  rng g{51};
  const auto src = emit_c_source(generate_snapshot(
      nn::make_ffnn_flow_size_net(g), "ffnn", 1));
  EXPECT_EQ(src.size(), 5889u);
  EXPECT_EQ(fnv1a(src), 0x0f676e8adcfba1a5ULL);
}

TEST(CEmitter, GoldenSourceSaturatingOnly) {
  // Weights that defeat the no-saturation proof: no fast chain is emitted.
  quant::qdense_layer l;
  l.input_size = 2;
  l.output_size = 2;
  l.weight_scale = 4;
  l.weights = {fp::s64_max / 2, fp::s64_max / 3, -fp::s64_max / 2, 9};
  l.biases = {fp::s64_max / 5, -7};
  l.act = nn::activation::relu;
  const quant::quantized_mlp program{2, 1000, {std::move(l)}};
  const auto src = emit_c_source(program, {});
  EXPECT_EQ(src.size(), 3217u);
  EXPECT_EQ(fnv1a(src), 0xed2a8b6acca325e9ULL);
}

TEST(CEmitter, SnapshotRenderUsesItsNameAndVersion) {
  rng g{51};
  const auto snap =
      generate_snapshot(nn::make_ffnn_flow_size_net(g), "ffnn", 9);
  EXPECT_EQ(emit_c_source(snap), emit_c_source(snap.program, {"ffnn", 9}));
}

TEST(Snapshot, MetadataMatchesModel) {
  rng g{52};
  const auto net = nn::make_lb_mlp_net(g, 4);
  const auto snap = generate_snapshot(net, "lb-mlp", 7);
  EXPECT_EQ(snap.name, "lb-mlp");
  EXPECT_EQ(snap.version, 7u);
  EXPECT_EQ(snap.input_size(), net.input_size());
  EXPECT_EQ(snap.output_size(), 4u);
}

// ----------------------------------------------- compiled golden equality --

class CompiledGolden : public ::testing::TestWithParam<int> {};

TEST_P(CompiledGolden, GeneratedCodeMatchesInterpreterBitForBit) {
  if (!compiler_available()) GTEST_SKIP() << "no gcc on PATH";
  rng g{static_cast<std::uint64_t>(60 + GetParam())};
  nn::mlp net = [&]() {
    switch (GetParam()) {
      case 0:
        return nn::make_aurora_net(g);
      case 1:
        return nn::make_ffnn_flow_size_net(g);
      default:
        return nn::make_lb_mlp_net(g);
    }
  }();
  const auto snap = generate_snapshot(net, "golden", 1);
  const auto compiled = compiled_snapshot::compile(snap);
  rng xs{77};
  quant::inference_scratch scratch;
  std::vector<fp::s64> fast(net.output_size());
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<fp::s64> x(net.input_size());
    for (auto& v : x) v = xs.uniform_int(-3000, 3000);
    const auto want = snap.program.infer(x);
    const auto got = compiled.infer(x, net.output_size());
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i], got[i]) << "output " << i << " trial " << trial;
    }
    snap.program.infer_into(x, fast, scratch);
    EXPECT_EQ(fast, got) << "infer_into, trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Nets, CompiledGolden, ::testing::Values(0, 1, 2));

TEST(CEmitter, FastVariantEmittedForSaturationFreeLayers) {
  rng g{53};
  const auto net = nn::make_aurora_net(g);
  const auto src = emit_c_source(generate_snapshot(net, "aurora", 1));
  // The quantizer's nets prove saturation-free on every layer, so the source
  // must carry both the saturating chain and the fast chain plus the runtime
  // input-bound dispatch that selects between them.
  EXPECT_NE(src.find("fc_0_comp_fast"), std::string::npos);
  EXPECT_NE(src.find("lf_sat_add"), std::string::npos);
  EXPECT_NE(src.find("if (fast)"), std::string::npos);
}

TEST(CompiledGoldenSaturating, HugeInputsMatchInterpreterBitForBit) {
  // The emitted module dispatches between a plain fast chain and a fully
  // saturating chain exactly like the interpreter; inputs far outside the
  // fast-path bound must still agree bit-for-bit (legacy emitter silently
  // wrapped here).
  if (!compiler_available()) GTEST_SKIP() << "no gcc on PATH";
  rng g{61};
  const auto net = nn::make_aurora_net(g);
  const auto snap = generate_snapshot(net, "golden", 1);
  const auto compiled = compiled_snapshot::compile(snap);
  rng xs{78};
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<fp::s64> x(net.input_size());
    for (auto& v : x) {
      v = trial % 2 == 0
              ? xs.uniform_int(fp::s64_min / 2, fp::s64_max / 2)  // saturates
              : xs.uniform_int(-3000, 3000);  // straddle: fast chain
    }
    const auto want = snap.program.infer(x);
    const auto got = compiled.infer(x, net.output_size());
    ASSERT_EQ(want, got) << "trial " << trial;
  }
}

TEST(CompiledGoldenSaturating, HugeWeightsForceSaturatingChain) {
  // Directly-built program whose weights defeat the no-saturation proof: the
  // emitter must fall back to an all-saturating chain that still matches.
  if (!compiler_available()) GTEST_SKIP() << "no gcc on PATH";
  quant::qdense_layer l;
  l.input_size = 2;
  l.output_size = 2;
  l.weight_scale = 4;
  l.weights = {fp::s64_max / 2, fp::s64_max / 3, -fp::s64_max / 2, 9};
  l.biases = {fp::s64_max / 5, -7};
  l.act = nn::activation::relu;
  quant::quantized_mlp program{2, 1000, {std::move(l)}};
  EXPECT_FALSE(program.layer_saturation_free(0));
  const auto src = emit_c_source(program, {});
  EXPECT_EQ(src.find("fc_0_comp_fast"), std::string::npos);
  const auto compiled = compiled_snapshot::compile(src);
  rng xs{79};
  quant::inference_scratch scratch;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<fp::s64> x(2);
    for (auto& v : x) v = xs.uniform_int(fp::s64_min / 2, fp::s64_max / 2);
    const auto want = program.infer(x);
    EXPECT_EQ(want, compiled.infer(x, 2)) << "trial " << trial;
    // And the interpreter fast path agrees with its own oracle here too.
    std::vector<fp::s64> got(2);
    program.infer_into(x, got, scratch);
    EXPECT_EQ(want, got) << "trial " << trial;
  }
}

TEST(CompiledSnapshot, InferIntoMatchesInfer) {
  if (!compiler_available()) GTEST_SKIP() << "no gcc on PATH";
  rng g{62};
  const auto net = nn::make_ffnn_flow_size_net(g);
  const auto snap = generate_snapshot(net, "golden", 1);
  const auto compiled = compiled_snapshot::compile(snap);
  std::vector<fp::s64> x(net.input_size(), 321);
  std::vector<fp::s64> out(net.output_size());
  compiled.infer_into(x, out);
  EXPECT_EQ(compiled.infer(x, net.output_size()), out);
}

TEST(CompiledSnapshot, RejectsGarbageSource) {
  if (!compiler_available()) GTEST_SKIP() << "no gcc on PATH";
  EXPECT_THROW(compiled_snapshot::compile("this is not C"),
               std::runtime_error);
}

}  // namespace
