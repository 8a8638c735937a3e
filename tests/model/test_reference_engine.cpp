// Golden reference engine: determinism, causality, quantized variants.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/mathutil.hpp"
#include "model/reference_engine.hpp"

namespace efld::model {
namespace {

const ModelWeights& micro_weights() {
    static const ModelWeights w = ModelWeights::synthetic(ModelConfig::micro_256(), 42);
    return w;
}

TEST(ReferenceEngine, LogitShapeAndFiniteness) {
    ReferenceEngine eng(micro_weights());
    const auto logits = eng.forward(5);
    ASSERT_EQ(logits.size(), micro_weights().config.vocab_size);
    for (const float v : logits) EXPECT_TRUE(std::isfinite(v));
}

TEST(ReferenceEngine, DeterministicAcrossInstances) {
    ReferenceEngine a(micro_weights()), b(micro_weights());
    const auto la = a.forward(7);
    const auto lb = b.forward(7);
    EXPECT_EQ(la, lb);
}

TEST(ReferenceEngine, PositionAdvances) {
    ReferenceEngine eng(micro_weights());
    EXPECT_EQ(eng.position(), 0u);
    (void)eng.forward(1);
    (void)eng.forward(2);
    EXPECT_EQ(eng.position(), 2u);
}

TEST(ReferenceEngine, ContextChangesLogits) {
    // Same token at position 1 after different history must differ (KV cache
    // is actually consulted).
    ReferenceEngine a(micro_weights()), b(micro_weights());
    (void)a.forward(1);
    (void)b.forward(2);
    const auto la = a.forward(9);
    const auto lb = b.forward(9);
    EXPECT_NE(la, lb);
}

TEST(ReferenceEngine, ResetRestoresInitialState) {
    ReferenceEngine eng(micro_weights());
    const auto first = eng.forward(3);
    (void)eng.forward(4);
    eng.reset();
    EXPECT_EQ(eng.position(), 0u);
    EXPECT_EQ(eng.forward(3), first);
}

TEST(ReferenceEngine, PrefillEqualsStepByStep) {
    ReferenceEngine a(micro_weights()), b(micro_weights());
    const std::vector<std::int32_t> prompt{1, 5, 9, 2};
    const auto la = a.prefill(prompt);
    std::vector<float> lb;
    for (const auto t : prompt) lb = b.forward(t);
    EXPECT_EQ(la, lb);
}

TEST(ReferenceEngine, RejectsBadToken) {
    ReferenceEngine eng(micro_weights());
    EXPECT_THROW((void)eng.forward(-1), efld::Error);
    EXPECT_THROW(
        (void)eng.forward(static_cast<std::int32_t>(micro_weights().config.vocab_size)),
        efld::Error);
}

TEST(ReferenceEngine, Kv8VariantStaysClose) {
    ReferenceEngine fp(micro_weights());
    ReferenceEngine kv8(micro_weights(), EngineOptions{.use_kv8 = true});
    std::vector<float> lf, lq;
    for (const std::int32_t t : {1, 2, 3, 4, 5, 6}) {
        lf = fp.forward(t);
        lq = kv8.forward(t);
    }
    EXPECT_GT(efld::cosine_similarity(lf, lq), 0.999);
}

TEST(ReferenceEngine, W4VariantStaysClose) {
    quant::GroupQuantConfig qc;
    const QuantizedModelWeights qw =
        QuantizedModelWeights::quantize(micro_weights(), qc);
    ReferenceEngine fp(micro_weights());
    ReferenceEngine w4(qw);
    std::vector<float> lf, lq;
    for (const std::int32_t t : {1, 2, 3, 4}) {
        lf = fp.forward(t);
        lq = w4.forward(t);
    }
    // Random gaussian weights are the worst case for 4-bit groups (no trained
    // structure); real checkpoints sit much higher. 0.95 still catches any
    // systematic quantizer bug.
    EXPECT_GT(efld::cosine_similarity(lf, lq), 0.95);
}

TEST(ReferenceEngine, Kv4DegradesMoreThanKv8) {
    // The §IV.B argument: KV8 is near-transparent, KV4 measurably is not.
    ReferenceEngine golden(micro_weights());
    ReferenceEngine kv8(micro_weights(), EngineOptions{.use_kv8 = true, .kv_bits = 8});
    ReferenceEngine kv4(micro_weights(), EngineOptions{.use_kv8 = true, .kv_bits = 4});
    std::vector<float> lg, l8, l4;
    for (const std::int32_t t : {1, 2, 3, 4, 5, 6, 7, 8}) {
        lg = golden.forward(t);
        l8 = kv8.forward(t);
        l4 = kv4.forward(t);
    }
    const double sim8 = efld::cosine_similarity(lg, l8);
    const double sim4 = efld::cosine_similarity(lg, l4);
    EXPECT_GT(sim8, sim4);
    EXPECT_GT(sim8, 0.999);
    EXPECT_LT(sim4, 0.999);
}

TEST(ReferenceEngine, GqaConfigRuns) {
    // TinyLlama-style GQA geometry at micro scale: 4 heads, 2 KV heads.
    ModelConfig cfg = ModelConfig::micro_256();
    cfg.name = "micro-gqa";
    cfg.n_heads = 4;
    cfg.n_kv_heads = 2;
    const ModelWeights w = ModelWeights::synthetic(cfg, 17);
    ReferenceEngine eng(w);
    const auto logits = eng.prefill(std::vector<std::int32_t>{1, 2, 3});
    for (const float v : logits) EXPECT_TRUE(std::isfinite(v));
}

}  // namespace
}  // namespace efld::model
