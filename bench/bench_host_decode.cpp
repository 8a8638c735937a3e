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
// `--json [path]` additionally emits a BENCH_host_decode.json perf record so
// the throughput trajectory is trackable across PRs. `--min-speedup X` exits
// nonzero when the fused-1t ÷ seed ratio falls below X — the ratio of two
// paths timed in the same process, so it holds still when absolute token/s
// swings with the host.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "accel/cycle_model.hpp"
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

}  // namespace

int main(int argc, char** argv) {
    std::string model_name = "micro";
    std::size_t decode_tokens = 32;
    std::size_t prefill_tokens = 8;
    const std::size_t rounds = 7;
    double min_speedup = 0.0;
    bool emit_json = false;
    std::string json_path = "BENCH_host_decode.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--model") == 0 && i + 1 < argc) {
            model_name = argv[++i];
        } else if (std::strcmp(argv[i], "--tokens") == 0 && i + 1 < argc) {
            decode_tokens = std::max<std::size_t>(1, std::stoul(argv[++i]));
        } else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
            min_speedup = std::stod(argv[++i]);
        } else if (std::strcmp(argv[i], "--json") == 0) {
            emit_json = true;
            if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--model micro|tiny] [--tokens N] [--min-speedup X] "
                         "[--json [path]]\n",
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
    if (speedup_1t < min_speedup) {
        std::printf("\nFAIL: fused-1t / seed ratio %.2fx is below --min-speedup %.2fx\n",
                    speedup_1t, min_speedup);
        return 1;
    }
    return 0;
}
