// Full functional accelerator vs. the software reference engines.
#include <gtest/gtest.h>

#include "accel/accelerator.hpp"
#include "common/check.hpp"
#include "common/mathutil.hpp"
#include "model/reference_engine.hpp"

namespace efld::accel {
namespace {

struct Fixture {
    model::ModelWeights fw;
    model::QuantizedModelWeights qw;
    PackedModel packed;

    explicit Fixture(const model::ModelConfig& cfg, std::uint64_t seed = 42)
        : fw(model::ModelWeights::synthetic(cfg, seed)),
          qw(model::QuantizedModelWeights::quantize(fw, quant::GroupQuantConfig{})),
          packed(PackedModel::build(qw)) {}
};

const Fixture& micro_fixture() {
    static const Fixture f(model::ModelConfig::micro_256());
    return f;
}

TEST(Accelerator, LogitsFiniteAndShaped) {
    Accelerator acc(micro_fixture().packed);
    const StepResult r = acc.step(5);
    ASSERT_EQ(r.logits.size(), micro_fixture().packed.config.vocab_size);
    for (const float v : r.logits) EXPECT_TRUE(std::isfinite(v));
}

TEST(Accelerator, MatchesQuantizedSoftwareTwin) {
    // The W4A16+KV8 reference engine is the software twin of the datapath;
    // logits must agree closely (differences: fp16 arithmetic, LUT rope/exp).
    Accelerator acc(micro_fixture().packed);
    model::ReferenceEngine twin(micro_fixture().qw,
                                model::EngineOptions{.use_kv8 = true});
    std::vector<float> la, lt;
    for (const std::int32_t t : {1, 7, 3, 9, 2}) {
        la = acc.step(t).logits;
        lt = twin.forward(t);
    }
    EXPECT_GT(efld::cosine_similarity(la, lt), 0.995);
}

TEST(Accelerator, CloseToFloatReference) {
    // End-to-end quantization + fp16 error vs. the pure float model.
    Accelerator acc(micro_fixture().packed);
    model::ReferenceEngine golden(micro_fixture().fw);
    std::vector<float> la, lg;
    for (const std::int32_t t : {4, 8, 15, 16}) {
        la = acc.step(t).logits;
        lg = golden.forward(t);
    }
    // Synthetic gaussian weights: W4 + KV8 + fp16 accumulation lands ~0.94;
    // the tight check against the *quantized* twin is the bit-level one.
    EXPECT_GT(efld::cosine_similarity(la, lg), 0.92);
}

TEST(Accelerator, ArgmaxAgreementWithTwin) {
    // Same top-1 token on a short greedy rollout.
    Accelerator acc(micro_fixture().packed);
    model::ReferenceEngine twin(micro_fixture().qw,
                                model::EngineOptions{.use_kv8 = true});
    std::int32_t ta = 3, tt = 3;
    for (int i = 0; i < 6; ++i) {
        const auto la = acc.step(ta).logits;
        const auto lt = twin.forward(tt);
        ta = model::Sampler::argmax(la);
        tt = model::Sampler::argmax(lt);
        EXPECT_EQ(ta, tt) << "step " << i;
    }
}

TEST(Accelerator, DeterministicAcrossRuns) {
    Accelerator a(micro_fixture().packed), b(micro_fixture().packed);
    for (const std::int32_t t : {2, 4, 6}) {
        const auto la = a.step(t).logits;
        const auto lb = b.step(t).logits;
        EXPECT_EQ(la, lb);
    }
}

TEST(Accelerator, ResetRestoresState) {
    Accelerator acc(micro_fixture().packed);
    const auto first = acc.step(9).logits;
    (void)acc.step(1);
    acc.reset();
    EXPECT_EQ(acc.position(), 0u);
    EXPECT_EQ(acc.step(9).logits, first);
}

TEST(Accelerator, TimingAttachedToSteps) {
    Accelerator acc(micro_fixture().packed);
    const StepResult r = acc.step(1);
    EXPECT_GT(r.timing.total_ns, 0.0);
    EXPECT_GT(r.timing.weight_bytes, 0u);
}

TEST(Accelerator, TimingOptional) {
    AcceleratorOptions opts;
    opts.collect_timing = false;
    Accelerator acc(micro_fixture().packed, opts);
    EXPECT_EQ(acc.step(1).timing.total_ns, 0.0);
}

TEST(Accelerator, ScaleZeroFifoFollowsSchedule) {
    Accelerator acc(micro_fixture().packed);
    const auto& cfg = micro_fixture().packed.config;
    for (int t = 0; t < 16; ++t) (void)acc.step(1);
    // After 16 tokens every (layer, head, K|V) stream flushed exactly once.
    EXPECT_EQ(acc.scale_zero_fifo().words_flushed(),
              2u * cfg.n_layers * cfg.n_kv_heads);
}

TEST(Accelerator, GenerateProducesTokensAndTiming) {
    Accelerator acc(micro_fixture().packed);
    model::Sampler sampler({.temperature = 0.0f});
    const std::vector<std::int32_t> prompt{1, 2, 3};
    const GenerationResult g = acc.generate(prompt, 5, sampler);
    EXPECT_EQ(g.tokens.size(), 5u);
    EXPECT_GT(g.total_ns, 0.0);
    EXPECT_GT(g.tokens_per_s(), 0.0);
}

TEST(Accelerator, GenerateStopsAtEos) {
    Accelerator acc(micro_fixture().packed);
    model::Sampler sampler({.temperature = 0.0f});
    // Use the greedy token after the prompt as the EOS: generation must stop
    // after emitting it once.
    Accelerator probe(micro_fixture().packed);
    std::vector<float> logits;
    for (const std::int32_t t : {1, 2}) logits = probe.step(t).logits;
    const std::int32_t eos = model::Sampler::argmax(logits);

    const std::vector<std::int32_t> prompt{1, 2};
    const GenerationResult g = acc.generate(prompt, 10, sampler, eos);
    ASSERT_EQ(g.tokens.size(), 1u);
    EXPECT_EQ(g.tokens[0], eos);
}

TEST(Accelerator, RejectsOutOfRangeToken) {
    Accelerator acc(micro_fixture().packed);
    EXPECT_THROW((void)acc.step(-1), efld::Error);
    EXPECT_THROW(
        (void)acc.step(static_cast<std::int32_t>(micro_fixture().packed.config.vocab_size)),
        efld::Error);
}

TEST(Accelerator, GqaModelWorks) {
    model::ModelConfig cfg = model::ModelConfig::micro_256();
    cfg.name = "micro-gqa";
    cfg.n_heads = 4;
    cfg.n_kv_heads = 2;
    const Fixture f(cfg, 7);
    Accelerator acc(f.packed);
    model::ReferenceEngine twin(f.qw, model::EngineOptions{.use_kv8 = true});
    std::vector<float> la, lt;
    for (const std::int32_t t : {1, 2, 3, 4}) {
        la = acc.step(t).logits;
        lt = twin.forward(t);
    }
    EXPECT_GT(efld::cosine_similarity(la, lt), 0.99);
}

}  // namespace
}  // namespace efld::accel
