// Host decode throughput: the software twin's fused fast path vs. the seed
// gemv_reference route, single- and multi-threaded, against the simulated
// KV260 decode rate from the cycle model.
//
// The paper's thesis is that decode = memory streaming; the host engine only
// serves as a credible baseline for the cycle model if its own hot path is
// not dominated by allocation and recomputation. This bench quantifies that:
//
//   legacy  : seed path (allocating gemv_reference per projection, 1 thread)
//   fused 1t: fused dequantize×dot fast path, allocation-free decode loop
//   fused Nt: same with GEMV rows / attention heads across a worker pool
//
// Every configuration runs once per round over several interleaved rounds and
// reports its median, so a slow stretch of a noisy host hits all of them
// alike; the fused-1t ÷ seed ratio is the median of the per-round ratios.
//
// A kernel table follows: QuantizedLinear::gemm and gemm_packed, one thread,
// walking every projection of tiny-512 at batch 1/2/4/8, in µs per walk and
// streamed weight GB/s.
//
// A twin table follows: the KV260 twin's VPU lane kernel (accel::DotEngine)
// as the vector kernel (AVX2 + F16C) vs the scalar reference, both in this
// binary — one DotEngine::gemv walk over every micro-256 projection, and
// Accelerator::decode_batch wall tokens/s at batch 4 — over interleaved
// rounds; the ratios are medians of per-round ratios. The two kernels must
// produce bit-identical logits (nonzero exit otherwise).
//
// `--json [path]` additionally emits a BENCH_host_decode.json perf record so
// the throughput trajectory is trackable across PRs. `--min-speedup X` exits
// nonzero when the fused-1t ÷ seed ratio falls below X, `--min-twin-speedup Y`
// when the twin's vector ÷ scalar decode ratio falls below Y — each the ratio
// of two paths timed in the same process, so it holds still when absolute
// token/s swings with the host.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/cycle_model.hpp"
#include "accel/packed_model.hpp"
#include "accel/vpu.hpp"
#include "model/reference_engine.hpp"
#include "model/weights.hpp"
#include "quant/groupquant.hpp"

using namespace efld;

namespace {

struct RunResult {
    double tokens_per_s = 0.0;
    double logit_checksum = 0.0;  // parity fingerprint across variants
};

RunResult run_decode(const model::QuantizedModelWeights& qw, model::EngineOptions opts,
                     std::size_t prefill_tokens, std::size_t decode_tokens) {
    model::ReferenceEngine eng(qw, opts);
    const auto vocab = static_cast<std::int32_t>(qw.config.vocab_size);
    std::int32_t token = 1;
    for (std::size_t i = 0; i < prefill_tokens; ++i) {
        (void)eng.decode(token);
        token = static_cast<std::int32_t>((token * 5 + 3) % vocab);
    }

    double checksum = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < decode_tokens; ++i) {
        const std::span<const float> logits = eng.decode(token);
        // Greedy next token keeps the run deterministic while exercising the
        // real logits the way a sampler would.
        token = static_cast<std::int32_t>(
            std::max_element(logits.begin(), logits.end()) - logits.begin());
        checksum += static_cast<double>(logits[0]);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    return RunResult{static_cast<double>(decode_tokens) / s, checksum};
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// One row of the kernel table: a full projection walk (every matrix of every
// layer plus lm_head) at one batch width, median µs over repeated walks.
struct KernelRow {
    const char* kernel = "";
    std::size_t batch = 0;
    double us = 0.0;
    double gbps = 0.0;  // streamed weight bytes (codes + scales + zeros) / time
};

std::vector<KernelRow> kernel_table(const model::QuantizedModelWeights& qw) {
    std::vector<const quant::QuantizedLinear*> mats;
    for (const auto& l : qw.layers) {
        for (const auto* q : {&l.wq, &l.wk, &l.wv, &l.wo, &l.w_gate, &l.w_up, &l.w_down}) {
            mats.push_back(q);
        }
    }
    mats.push_back(&qw.lm_head);
    std::vector<std::vector<Word512>> packed;
    std::size_t max_in = 0, max_out = 0;
    double meta_bytes = 0.0, codes = 0.0;
    for (const auto* q : mats) {
        packed.push_back(q->pack_codes());
        max_in = std::max(max_in, q->cols());
        max_out = std::max(max_out, q->rows());
        meta_bytes += static_cast<double>(2 * q->scales().size() + q->zeros().size());
        codes += static_cast<double>(q->codes().size());
    }
    std::vector<float> x(quant::kGemmBatchTile * max_in);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::sin(static_cast<float>(i) * 0.37f);
    std::vector<float> y(quant::kGemmBatchTile * max_out);

    std::vector<KernelRow> rows;
    for (const bool is_packed : {false, true}) {
        const double bytes = meta_bytes + (is_packed ? codes / 2 : codes);
        for (const std::size_t b : {1u, 2u, 4u, 8u}) {
            std::vector<double> walks;
            // 2 warm-up walks, then 15 timed ones.
            for (int i = 0; i < 17; ++i) {
                const auto t0 = std::chrono::steady_clock::now();
                for (std::size_t m = 0; m < mats.size(); ++m) {
                    const auto* q = mats[m];
                    const std::span<const float> xs(x.data(), b * q->cols());
                    const std::span<float> ys(y.data(), b * q->rows());
                    if (is_packed) {
                        q->gemm_packed(packed[m], xs, b, ys);
                    } else {
                        q->gemm(xs, b, ys);
                    }
                }
                const std::chrono::duration<double, std::micro> dt =
                    std::chrono::steady_clock::now() - t0;
                if (i >= 2) walks.push_back(dt.count());
            }
            const double us = median(walks);
            rows.push_back({is_packed ? "gemm_packed" : "gemm", b, us, bytes / (us * 1e3)});
        }
    }
    return rows;
}

// µs for one accel::DotEngine::gemv walk over every projection of the
// packed model (each matrix once, lm_head included), median of 5 walks.
double twin_gemv_walk_us(const accel::PackedModel& pm) {
    std::vector<const accel::PackedMatrix*> mats;
    for (const auto& l : pm.layers) {
        for (const auto* m : {&l.wq, &l.wk, &l.wv, &l.wo, &l.w_gate, &l.w_up, &l.w_down}) {
            mats.push_back(m);
        }
    }
    mats.push_back(&pm.lm_head);
    std::size_t max_in = 0, max_out = 0;
    for (const auto* m : mats) {
        max_in = std::max(max_in, m->cols);
        max_out = std::max(max_out, m->rows);
    }
    std::vector<Fp16> x(max_in), y(max_out);
    for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = Fp16::from_float(std::sin(static_cast<float>(i) * 0.37f));
    }
    std::vector<double> walks;
    for (int i = 0; i < 6; ++i) {  // 1 warm-up walk
        const auto t0 = std::chrono::steady_clock::now();
        for (const auto* m : mats) {
            accel::DotEngine::gemv(m->stream, m->rows, m->cols,
                                   std::span<const Fp16>(x.data(), m->cols),
                                   std::span<Fp16>(y.data(), m->rows));
        }
        const std::chrono::duration<double, std::micro> dt =
            std::chrono::steady_clock::now() - t0;
        if (i >= 1) walks.push_back(dt.count());
    }
    return median(walks);
}

// The twin serving a batch: `batch` sessions prefilled with 4 tokens each,
// then `steps` timed decode_batch steps with greedy next tokens.
RunResult run_twin_decode(const accel::PackedModel& pm, std::size_t batch, std::size_t steps) {
    accel::AcceleratorOptions o;
    o.max_batch = batch;
    accel::Accelerator acc(pm, o);
    const std::size_t vocab = pm.config.vocab_size;
    std::vector<std::size_t> slots(batch);
    std::vector<std::int32_t> tokens(batch);
    for (std::size_t b = 0; b < batch; ++b) {
        slots[b] = acc.reserve_slot();
        tokens[b] = static_cast<std::int32_t>(1 + 7 * b);
    }
    std::vector<float> logits(batch * vocab);
    double checksum = 0.0;
    constexpr std::size_t kPrefill = 4;
    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t step = 0; step < kPrefill + steps; ++step) {
        if (step == kPrefill) t0 = std::chrono::steady_clock::now();
        acc.decode_batch(tokens, slots, logits);
        for (std::size_t b = 0; b < batch; ++b) {
            const auto row = logits.begin() + static_cast<std::ptrdiff_t>(b * vocab);
            tokens[b] = static_cast<std::int32_t>(
                std::max_element(row, row + static_cast<std::ptrdiff_t>(vocab)) - row);
            checksum += static_cast<double>(*row);
        }
    }
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return RunResult{static_cast<double>(batch * steps) / s, checksum};
}

}  // namespace

int main(int argc, char** argv) {
    std::string model_name = "micro";
    std::size_t decode_tokens = 32;
    std::size_t prefill_tokens = 8;
    const std::size_t rounds = 7;
    double min_speedup = 0.0;
    double min_twin_speedup = 0.0;
    bool emit_json = false;
    std::string json_path = "BENCH_host_decode.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--model") == 0 && i + 1 < argc) {
            model_name = argv[++i];
        } else if (std::strcmp(argv[i], "--tokens") == 0 && i + 1 < argc) {
            decode_tokens = std::max<std::size_t>(1, std::stoul(argv[++i]));
        } else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
            min_speedup = std::stod(argv[++i]);
        } else if (std::strcmp(argv[i], "--min-twin-speedup") == 0 && i + 1 < argc) {
            min_twin_speedup = std::stod(argv[++i]);
        } else if (std::strcmp(argv[i], "--json") == 0) {
            emit_json = true;
            if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--model micro|tiny] [--tokens N] [--min-speedup X] "
                         "[--min-twin-speedup Y] [--json [path]]\n",
                         argv[0]);
            return 2;
        }
    }

    const model::ModelConfig cfg =
        model_name == "tiny" ? model::ModelConfig::tiny_512() : model::ModelConfig::micro_256();
    // The engine refuses to decode past the context window; keep the run
    // inside it rather than aborting mid-benchmark.
    if (prefill_tokens + decode_tokens > cfg.max_seq_len) {
        decode_tokens = cfg.max_seq_len - prefill_tokens;
        std::fprintf(stderr, "note: clamped --tokens to %zu (max_seq_len %llu)\n",
                     decode_tokens,
                     static_cast<unsigned long long>(cfg.max_seq_len));
    }
    std::printf("=== Host decode throughput: %s, W4 group-128, KV8 ===\n\n",
                cfg.name.c_str());
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw <= 1) {
        std::printf("(note: only %u hardware thread(s) available — threaded rows "
                    "measure pool overhead, not scaling)\n\n",
                    hw);
    }

    const model::ModelWeights fw = model::ModelWeights::synthetic(cfg, 42);
    const model::QuantizedModelWeights qw =
        model::QuantizedModelWeights::quantize(fw, quant::GroupQuantConfig{});

    const model::EngineOptions legacy{.use_kv8 = true, .seed_baseline = true, .threads = 1};
    const model::EngineOptions fused1{.use_kv8 = true, .seed_baseline = false, .threads = 1};

    // One round runs every configuration once; medians over rounds.
    const std::size_t thread_counts[] = {2, 4};
    std::vector<double> legacy_runs, f1_runs, ratio_runs;
    std::vector<double> threaded_runs[2];
    bool diverged = false;
    for (std::size_t round = 0; round < rounds; ++round) {
        const RunResult base = run_decode(qw, legacy, prefill_tokens, decode_tokens);
        const RunResult f1 = run_decode(qw, fused1, prefill_tokens, decode_tokens);
        legacy_runs.push_back(base.tokens_per_s);
        f1_runs.push_back(f1.tokens_per_s);
        ratio_runs.push_back(f1.tokens_per_s / base.tokens_per_s);
        for (std::size_t t = 0; t < 2; ++t) {
            model::EngineOptions o = fused1;
            o.threads = thread_counts[t];
            const RunResult r = run_decode(qw, o, prefill_tokens, decode_tokens);
            threaded_runs[t].push_back(r.tokens_per_s);
            diverged = diverged || r.logit_checksum != f1.logit_checksum;
        }
    }
    const double legacy_tok_s = median(legacy_runs);
    const double f1_tok_s = median(f1_runs);
    const double speedup_1t = median(ratio_runs);
    const double threaded[2] = {median(threaded_runs[0]), median(threaded_runs[1])};

    std::printf("%-22s | %10s | %8s   (median of %zu interleaved rounds)\n", "configuration",
                "token/s", "speedup", rounds);
    std::printf("---------------------------------------------\n");
    std::printf("%-22s | %10.2f | %7.2fx\n", "legacy (seed path)", legacy_tok_s, 1.0);
    std::printf("%-22s | %10.2f | %7.2fx\n", "fused, 1 thread", f1_tok_s, speedup_1t);
    for (std::size_t t = 0; t < 2; ++t) {
        char label[32];
        std::snprintf(label, sizeof label, "fused, %zu threads", thread_counts[t]);
        std::printf("%-22s | %10.2f | %7.2fx\n", label, threaded[t],
                    threaded[t] / legacy_tok_s);
    }
    if (diverged) std::printf("  WARNING: threaded checksum diverged from 1-thread!\n");

    const std::vector<KernelRow> kernels = kernel_table(model::QuantizedModelWeights::quantize(
        model::ModelWeights::synthetic(model::ModelConfig::tiny_512(), 42),
        quant::GroupQuantConfig{}));
    std::printf("\nkernel: full tiny-512 projection walk, 1 thread (median of 15)\n");
    std::printf("%-12s | %5s | %10s | %8s\n", "kernel", "batch", "us/walk", "GB/s");
    std::printf("----------------------------------------------\n");
    for (const KernelRow& k : kernels) {
        std::printf("%-12s | %5zu | %10.1f | %8.2f\n", k.kernel, k.batch, k.us, k.gbps);
    }

    // The twin's lane kernels on micro-256, one round = both kernels once.
    const accel::PackedModel pm = accel::PackedModel::build(model::QuantizedModelWeights::quantize(
        model::ModelWeights::synthetic(model::ModelConfig::micro_256(), 42),
        quant::GroupQuantConfig{}));
    constexpr std::size_t kTwinBatch = 4, kTwinSteps = 8;
    const bool has_vector = accel::vector_kernel_supported();
    std::vector<double> gemv_runs[2], twin_runs[2], gemv_ratios, twin_ratios;
    bool twin_diverged = false;
    for (std::size_t round = 0; round < rounds; ++round) {
        RunResult twin[2];
        for (const accel::LaneKernel k : {accel::LaneKernel::kScalar, accel::LaneKernel::kVector}) {
            const accel::ScopedLaneKernel pin(k);
            const auto i = static_cast<std::size_t>(k);
            gemv_runs[i].push_back(twin_gemv_walk_us(pm));
            twin[i] = run_twin_decode(pm, kTwinBatch, kTwinSteps);
            twin_runs[i].push_back(twin[i].tokens_per_s);
        }
        gemv_ratios.push_back(gemv_runs[0].back() / gemv_runs[1].back());
        twin_ratios.push_back(twin[1].tokens_per_s / twin[0].tokens_per_s);
        twin_diverged = twin_diverged || twin[0].logit_checksum != twin[1].logit_checksum;
    }
    const double twin_gemv_us[2] = {median(gemv_runs[0]), median(gemv_runs[1])};
    const double twin_tok_s[2] = {median(twin_runs[0]), median(twin_runs[1])};
    const double twin_gemv_speedup = median(gemv_ratios);
    const double twin_speedup = median(twin_ratios);
    std::printf("\ntwin (micro-256): VPU lane kernel, vector vs scalar reference "
                "(median of %zu interleaved rounds)%s\n",
                rounds, has_vector ? "" : " — no AVX2/F16C: both rows run scalar");
    std::printf("%-28s | %10s | %10s | %8s\n", "measure", "scalar", "vector", "speedup");
    std::printf("-----------------------------------------------------------------\n");
    std::printf("%-28s | %10.1f | %10.1f | %7.2fx\n", "gemv walk, us", twin_gemv_us[0],
                twin_gemv_us[1], twin_gemv_speedup);
    std::printf("%-28s | %10.2f | %10.2f | %7.2fx\n", "decode_batch b4, wall tok/s",
                twin_tok_s[0], twin_tok_s[1], twin_speedup);
    if (twin_diverged) std::printf("  FAIL: vector-kernel logits differ from the scalar reference!\n");

    // The simulated KV260 rate the host baseline is measured against.
    accel::DecodeCycleModel sim(cfg, model::QuantScheme::w4a16_kv8(), accel::AccelConfig{});
    const double sim_tok_s =
        sim.token_timing(prefill_tokens + decode_tokens / 2).tokens_per_s();
    const double best_host = std::max(f1_tok_s, std::max(threaded[0], threaded[1]));
    std::printf("\nsimulated KV260 decode rate : %10.2f token/s\n", sim_tok_s);
    std::printf("host-vs-simulated gap       : %10.2fx (host %s)\n",
                best_host > sim_tok_s ? best_host / sim_tok_s : sim_tok_s / best_host,
                best_host > sim_tok_s ? "faster" : "slower");

    if (emit_json) {
        std::ofstream out(json_path);
        out << "{\n"
            << "  \"bench\": \"host_decode\",\n"
            << "  \"model\": \"" << cfg.name << "\",\n"
            << "  \"decode_tokens\": " << decode_tokens << ",\n"
            << "  \"rounds\": " << rounds << ",\n"
            << "  \"legacy_tok_s\": " << legacy_tok_s << ",\n"
            << "  \"fused_1t_tok_s\": " << f1_tok_s << ",\n"
            << "  \"fused_2t_tok_s\": " << threaded[0] << ",\n"
            << "  \"fused_4t_tok_s\": " << threaded[1] << ",\n"
            << "  \"speedup_1t\": " << speedup_1t << ",\n"
            << "  \"simulated_tok_s\": " << sim_tok_s << ",\n"
            << "  \"twin\": {\"model\": \"micro-256\", \"batch\": " << kTwinBatch
            << ", \"vector_kernel\": " << (has_vector ? "true" : "false")
            << ", \"gemv_walk_scalar_us\": " << twin_gemv_us[0]
            << ", \"gemv_walk_vector_us\": " << twin_gemv_us[1]
            << ", \"gemv_speedup\": " << twin_gemv_speedup
            << ", \"decode_scalar_tok_s\": " << twin_tok_s[0]
            << ", \"decode_vector_tok_s\": " << twin_tok_s[1]
            << ", \"decode_speedup\": " << twin_speedup << "},\n"
            << "  \"kernels\": [\n";
        for (std::size_t i = 0; i < kernels.size(); ++i) {
            const KernelRow& k = kernels[i];
            out << "    {\"kernel\": \"" << k.kernel << "\", \"batch\": " << k.batch
                << ", \"us\": " << k.us << ", \"gbps\": " << k.gbps << "}"
                << (i + 1 < kernels.size() ? ",\n" : "\n");
        }
        out << "  ]\n"
            << "}\n";
        std::printf("\nwrote %s\n", json_path.c_str());
    }
    int status = 0;
    if (speedup_1t < min_speedup) {
        std::printf("\nFAIL: fused-1t / seed ratio %.2fx is below --min-speedup %.2fx\n",
                    speedup_1t, min_speedup);
        status = 1;
    }
    if (twin_speedup < min_twin_speedup) {
        std::printf("\nFAIL: twin vector / scalar ratio %.2fx is below --min-twin-speedup %.2fx\n",
                    twin_speedup, min_twin_speedup);
        status = 1;
    }
    if (twin_diverged) status = 1;
    return status;
}
