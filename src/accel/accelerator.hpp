// Top-level accelerator simulator: the full functional datapath (fp16 VPU,
// SPU submodules, KV8 cache, Fig. 4 formats) plus the cycle model.
//
// step() executes one decode step exactly as the hardware would — weights
// dequantized from the interleaved bus stream, activations in fp16, RoPE from
// the quarter-wave ROM, three-pass softmax, online KV quantization with the
// scale-zero FIFO — and simultaneously reports the token's simulated latency
// on the KV260 memory system. Functional results are therefore validated
// against the float reference while timing reproduces the paper's
// decode-speed numbers.
//
// The accelerator is also a DecodeBackend: with max_batch > 1 it owns that
// many independent KV session slots (per-slot history, position, and
// scale-zero FIFO) and decode_batch advances any subset of them in one
// simulated step.
// The functional math stays per-session (each lane is bit-identical to a solo
// run), but the step is PRICED as the device would execute it — weights
// streamed once for the whole batch, KV streams and SPU work per session
// (DecodeCycleModel::batch_timing) — so the serving layer can report
// simulated KV260 serving throughput, not just single-stream decode.
//
// KV storage is the same kvpool arena the host engine uses: the SPU's KV8
// codes and scale-zero params live in PagedQuantizedKvArena pages drawn from
// a KvBlockPool (slot s = sequence s), so the pool budget is enforced — an
// append the pool cannot grant throws — and prefix sharing maps pool pages
// through the host's prefix::PrefixCache (refcounted, no copies).
// AccelConfig::kv_page_tokens sets both the page size (0 = one max_seq_len
// page per slot) and the pricing: > 0 prices a session's history as one DDR
// burst per block-table page (each with its own descriptor overhead) instead
// of one contiguous burst. Functional results never depend on it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "accel/cycle_model.hpp"
#include "accel/hw_exp.hpp"
#include "accel/packed_model.hpp"
#include "accel/serial_to_parallel.hpp"
#include "accel/spu_quant.hpp"
#include "accel/spu_rmsnorm.hpp"
#include "accel/spu_rope.hpp"
#include "accel/spu_silu.hpp"
#include "accel/spu_softmax.hpp"
#include "accel/vpu.hpp"
#include "engine/decode_backend.hpp"
#include "kvpool/paged_kv_cache.hpp"
#include "model/sampler.hpp"
#include "prefix/prefix_cache.hpp"
#include "quant/scale_zero_pack.hpp"

namespace efld::accel {

struct AcceleratorOptions {
    AccelConfig accel{};
    memsim::MemorySystemConfig mem = memsim::MemorySystemConfig::kv260();
    bool collect_timing = true;  // disable to run functional-only (faster)
    // Concurrent KV session slots (DecodeBackend), each with its own
    // position, scale-zero FIFO, and sequence in the KV pool.
    std::size_t max_batch = 1;
    // KV pool size in accel.kv_page_tokens-token pages; 0 = worst case
    // (max_batch full-context sessions). The serving layer sets it, like the
    // host's EngineOptions::kv_pool_pages, to the pages its governor admits
    // against — sessions and pinned prefix pages together — so every page
    // the governor hands out exists in the pool.
    std::size_t kv_pool_pages = 0;
};

struct StepResult {
    std::vector<float> logits;
    TokenTiming timing;  // zeroed when collect_timing is off
};

struct GenerationResult {
    std::vector<std::int32_t> tokens;
    double total_ns = 0.0;

    [[nodiscard]] double tokens_per_s() const noexcept {
        return total_ns > 0.0
                   ? static_cast<double>(tokens.size()) * 1e9 / total_ns
                   : 0.0;
    }
};

class Accelerator : public engine::DecodeBackend {
public:
    // Non-owning: `m` must outlive the accelerator.
    explicit Accelerator(const PackedModel& m, AcceleratorOptions opts = {});

    // One decode step on slot 0 (the historical single-session API).
    StepResult step(std::int32_t token);

    // Prefills `prompt`, then decodes up to `max_new` tokens (stops at EOS id
    // if `eos` >= 0) on slot 0. Returns generated tokens and simulated decode
    // time.
    GenerationResult generate(std::span<const std::int32_t> prompt, std::size_t max_new,
                              model::Sampler& sampler, std::int32_t eos = -1);

    [[nodiscard]] std::size_t position() const noexcept { return pos_[0]; }
    [[nodiscard]] const quant::ScaleZeroFifo& scale_zero_fifo() const noexcept {
        return sz_fifo_[0];
    }
    [[nodiscard]] DecodeCycleModel& cycle_model() noexcept { return timing_; }
    [[nodiscard]] const kvpool::PagedQuantizedKvArena& kv_arena() const noexcept {
        return kv_;
    }

    // --- engine::DecodeBackend ---
    [[nodiscard]] const model::ModelConfig& config() const noexcept override {
        return model_->config;
    }
    [[nodiscard]] std::size_t max_batch() const noexcept override {
        return opts_.max_batch;
    }
    [[nodiscard]] std::string_view name() const noexcept override { return "accel"; }
    [[nodiscard]] std::size_t position(std::size_t slot) const override;
    [[nodiscard]] std::size_t reserve_slot() override;
    void release_slot(std::size_t slot) override;
    void decode_batch(std::span<const std::int32_t> tokens,
                      std::span<const std::size_t> slots,
                      std::span<float> logits_out) override;
    void reset() override;  // all slots (reservations survive)
    [[nodiscard]] engine::StepCost last_step_cost() const noexcept override {
        return last_cost_;
    }
    void set_profiler(obs::Profiler* profiler) override { profiler_ = profiler; }

    // Prefix sharing: the contract is in decode_backend.hpp; each forwards to
    // the prefix::PrefixCache the host uses. The twin adopts full pages only —
    // the scale-zero FIFO is replayed from the adopted pages' packs, so
    // covered spans must end on a page boundary to leave it exactly as a real
    // prefill would. Nothing is indexed until the serving layer registers a
    // prefix, so a twin without sharing probes 0.
    [[nodiscard]] std::size_t probe_prefix(std::span<const std::int32_t> prompt,
                                           std::size_t max_cover) const override;
    std::size_t adopt_prefix(std::size_t slot, std::span<const std::int32_t> prompt,
                             std::size_t max_cover) override;
    std::size_t register_prefix(std::size_t slot,
                                std::span<const std::int32_t> prompt,
                                std::size_t max_new_pages) override;
    std::size_t drop_prefix_cache() override;
    [[nodiscard]] engine::PrefixSharingStats prefix_stats() const override;

private:
    // `max_cover` rounded down to whole pages.
    [[nodiscard]] std::size_t full_pages(std::size_t max_cover) const noexcept {
        return max_cover - max_cover % kv_.pool().page_tokens();
    }
    void reset_session(std::size_t slot);

    // One functional forward pass of `token` through session `slot`, writing
    // float logits and advancing the slot's position. No timing.
    void forward_slot(std::int32_t token, std::size_t slot, std::span<float> logits_out);

    void attention(std::size_t layer, std::size_t slot, std::vector<Fp16>& x);
    void mlp(std::size_t layer, std::vector<Fp16>& x);

    const PackedModel* model_;
    AcceleratorOptions opts_;
    DecodeCycleModel timing_;

    HwExp exp_;
    SpuRope rope_;
    SpuRmsNorm rms_;
    SpuSoftmax softmax_;
    SpuSilu silu_;
    SpuQuant kv_quant_;
    SerialToParallel s2p_;
    std::vector<quant::ScaleZeroFifo> sz_fifo_;  // one per session slot

    std::vector<std::size_t> pos_;           // per session slot
    engine::SlotLedger slots_;               // DecodeBackend reservations
    kvpool::PagedQuantizedKvArena kv_;       // every slot's KV8 history
    prefix::PrefixCache prefix_;             // over kv_'s pool
    std::vector<std::size_t> ctx_scratch_;   // batch pricing, no per-step alloc
    engine::StepCost last_cost_{};
    obs::Profiler* profiler_ = nullptr;      // serving-layer owned; may be null
};

}  // namespace efld::accel
