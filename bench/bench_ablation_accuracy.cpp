// Ablation — numerical fidelity of the quantization choices (§IV).
//
// End-to-end logits similarity vs. the float golden model on a synthetic
// tiny model, across weight and KV precisions. Shapes to reproduce:
//   - W4A16 (AWQ-style grouping) loses little vs. W8A16,
//   - KV8 is near-transparent, KV4 visibly degrades — the reason the paper
//     follows Li et al. and keeps the cache at 8 bits for a 7B model.
#include <cstdio>

#include "common/mathutil.hpp"
#include "model/reference_engine.hpp"
#include "model/sampler.hpp"

using namespace efld;

namespace {

double rollout_similarity(model::ReferenceEngine& golden, model::ReferenceEngine& test,
                          int steps) {
    golden.reset();
    test.reset();
    std::vector<float> lg, lt;
    std::int32_t tg = 1;
    for (int i = 0; i < steps; ++i) {
        lg = golden.forward(tg);
        lt = test.forward(tg);
        tg = model::Sampler::argmax(lg);  // teacher-forced greedy path
    }
    return cosine_similarity(lg, lt);
}

}  // namespace

int main() {
    std::printf("=== Ablation: quantization fidelity (tiny-512 synthetic, 12-step "
                "teacher-forced rollout) ===\n\n");
    const model::ModelConfig cfg = model::ModelConfig::tiny_512();
    const model::ModelWeights fw = model::ModelWeights::synthetic(cfg, 2024);

    quant::GroupQuantConfig g4;  // 4-bit, group 128
    quant::GroupQuantConfig g8;
    g8.bits = 8;
    const model::QuantizedModelWeights w4 = model::QuantizedModelWeights::quantize(fw, g4);
    const model::QuantizedModelWeights w8 = model::QuantizedModelWeights::quantize(fw, g8);

    struct Variant {
        const char* name;
        model::ReferenceEngine engine;
    };
    model::ReferenceEngine golden(fw);
    Variant variants[] = {
        {"FP16-ish weights + float KV (golden)", model::ReferenceEngine(fw)},
        {"W8A16 + float KV", model::ReferenceEngine(w8)},
        {"W4A16 + float KV", model::ReferenceEngine(w4)},
        {"W4A16 + KV8  (deployed)",
         model::ReferenceEngine(w4, {.use_kv8 = true, .kv_bits = 8})},
        {"W4A16 + KV4  (rejected by the paper)",
         model::ReferenceEngine(w4, {.use_kv8 = true, .kv_bits = 4})},
        {"W4A16 + KV2  (for scale)",
         model::ReferenceEngine(w4, {.use_kv8 = true, .kv_bits = 2})},
    };

    std::printf("  %-40s %18s\n", "configuration", "cosine(logits)");
    std::printf("  --------------------------------------------------------------\n");
    double kv8_sim = 1.0, kv4_sim = 1.0;
    for (auto& v : variants) {
        const double sim = rollout_similarity(golden, v.engine, 12);
        std::printf("  %-40s %18.5f\n", v.name, sim);
        if (std::string_view(v.name).find("KV8") != std::string_view::npos) kv8_sim = sim;
        if (std::string_view(v.name).find("KV4") != std::string_view::npos) kv4_sim = sim;
    }

    std::printf("\n  KV8 -> KV4 similarity drop: %.5f (KV8 is ~free, KV4 is not — "
                "§IV.B's choice, on synthetic worst-case weights)\n",
                kv8_sim - kv4_sim);
    return 0;
}
