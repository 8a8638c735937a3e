#include "accel/accelerator.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>

#include "common/check.hpp"
#include "obs/profiler.hpp"

namespace efld::accel {

namespace {
const AcceleratorOptions& validated(const AcceleratorOptions& opts) {
    if (opts.max_batch == 0) {
        throw std::invalid_argument("AcceleratorOptions: max_batch must be >= 1");
    }
    return opts;
}
}  // namespace

Accelerator::Accelerator(const PackedModel& m, AcceleratorOptions opts)
    : model_(&m),
      opts_(validated(opts)),
      timing_(m.config, model::QuantScheme::w4a16_kv8(), opts.accel, opts.mem),
      rope_(m.config.rope_theta),
      softmax_(exp_),
      silu_(exp_),
      kv_(m.config, kvpool::slot_pool_config(m.config, opts.max_batch,
                                             opts.accel.kv_page_tokens,
                                             opts.kv_pool_pages)),
      prefix_(kv_.pool()) {
    const std::size_t mb = opts_.max_batch;
    sz_fifo_.reserve(mb);
    for (std::size_t s = 0; s < mb; ++s) {
        sz_fifo_.emplace_back(m.config.n_layers, m.config.n_kv_heads);
        (void)kv_.create_sequence();
    }
    pos_.assign(mb, 0);
    slots_ = engine::SlotLedger(mb);
    ctx_scratch_.reserve(mb);
}

void Accelerator::reset_session(std::size_t slot) {
    check(slot < opts_.max_batch, "Accelerator: slot out of range");
    pos_[slot] = 0;
    sz_fifo_[slot] =
        quant::ScaleZeroFifo(model_->config.n_layers, model_->config.n_kv_heads);
    kv_.reset_sequence(slot);
}

void Accelerator::reset() {
    for (std::size_t s = 0; s < opts_.max_batch; ++s) reset_session(s);
}

std::size_t Accelerator::position(std::size_t slot) const {
    check(slot < opts_.max_batch, "Accelerator: slot out of range");
    return pos_[slot];
}

std::size_t Accelerator::reserve_slot() { return slots_.acquire(); }

void Accelerator::release_slot(std::size_t slot) {
    check(slots_.release(slot), "release_slot: slot out of range or not reserved");
    reset_session(slot);
}

std::size_t Accelerator::probe_prefix(std::span<const std::int32_t> prompt,
                                      std::size_t max_cover) const {
    return prefix_.probe(prompt, full_pages(max_cover));
}

std::size_t Accelerator::adopt_prefix(std::size_t slot,
                                      std::span<const std::int32_t> prompt,
                                      std::size_t max_cover) {
    const model::ModelConfig& cfg = model_->config;
    check(slot < opts_.max_batch, "adopt_prefix: slot out of range");
    const std::size_t covered = prefix_.adopt(slot, prompt, full_pages(max_cover));
    // Replay the adopted entries' scale-zero packs through the slot's fresh
    // FIFO in prefill order, so its state is bit-for-bit what re-prefilling
    // the covered span produces.
    for (std::size_t tok = 0; tok < covered; ++tok) {
        for (std::size_t layer = 0; layer < cfg.n_layers; ++layer) {
            for (std::size_t h = 0; h < cfg.n_kv_heads; ++h) {
                (void)sz_fifo_[slot].append(layer, h, false, tok,
                                            kv_.key(slot, layer, h, tok).params);
                (void)sz_fifo_[slot].append(layer, h, true, tok,
                                            kv_.value(slot, layer, h, tok).params);
            }
        }
    }
    pos_[slot] = covered;
    return covered;
}

std::size_t Accelerator::register_prefix(std::size_t slot,
                                         std::span<const std::int32_t> prompt,
                                         std::size_t max_new_pages) {
    check(slot < opts_.max_batch, "register_prefix: slot out of range");
    return prefix_.pin(slot, prompt, max_new_pages);
}

std::size_t Accelerator::drop_prefix_cache() { return prefix_.drop(); }

engine::PrefixSharingStats Accelerator::prefix_stats() const { return prefix_.stats(); }

void Accelerator::attention(std::size_t layer, std::size_t slot, std::vector<Fp16>& x) {
    const obs::ScopedPhase phase(profiler_, obs::Phase::kAttention);
    const model::ModelConfig& cfg = model_->config;
    const PackedLayer& lw = model_->layers[layer];
    const std::size_t hd = cfg.head_dim();
    const std::size_t heads_per_kv = cfg.n_heads / cfg.n_kv_heads;
    const std::size_t pos = pos_[slot];

    // Layer-entry RMSNorm (square sum computed by the DOT engine side-path).
    std::vector<Fp16> xn(cfg.dim);
    rms_.run(x, lw.attn_norm, cfg.rms_eps, xn, SpuRmsNorm::square_sum(x));

    // Projections from the interleaved weight streams.
    std::vector<Fp16> q(cfg.dim), k(cfg.kv_dim()), v(cfg.kv_dim());
    DotEngine::gemv(lw.wq.stream, cfg.dim, cfg.dim, xn, q);
    DotEngine::gemv(lw.wk.stream, cfg.kv_dim(), cfg.dim, xn, k);
    DotEngine::gemv(lw.wv.stream, cfg.kv_dim(), cfg.dim, xn, v);

    // On-the-fly RoPE.
    for (std::size_t h = 0; h < cfg.n_heads; ++h) {
        rope_.run(std::span<Fp16>(q).subspan(h * hd, hd), pos);
    }
    for (std::size_t h = 0; h < cfg.n_kv_heads; ++h) {
        rope_.run(std::span<Fp16>(k).subspan(h * hd, hd), pos);
    }

    // Online KV8 quantization; packs go through the Fig. 4B FIFO, codes
    // through the serial-to-parallel unit (to DDR on the real device) and
    // into the slot's pool pages.
    std::vector<quant::KvQuantized> qk(cfg.n_kv_heads), qv(cfg.n_kv_heads);
    for (std::size_t h = 0; h < cfg.n_kv_heads; ++h) {
        SpuQuant::Result rk = kv_quant_.run(std::span<const Fp16>(k).subspan(h * hd, hd));
        SpuQuant::Result rv = kv_quant_.run(std::span<const Fp16>(v).subspan(h * hd, hd));
        for (const std::uint8_t c : rk.codes) (void)s2p_.push_byte(c);
        for (const std::uint8_t c : rv.codes) (void)s2p_.push_byte(c);
        (void)sz_fifo_[slot].append(layer, h, false, pos, rk.params);
        (void)sz_fifo_[slot].append(layer, h, true, pos, rv.params);
        qk[h] = {std::move(rk.codes), rk.params};
        qv[h] = {std::move(rv.codes), rv.params};
    }
    kv_.append_quantized(slot, layer, qk, qv);

    // Head-wise attention: history from the quantized cache, the current
    // token's K/V used pre-quantization (they are still on chip — §V.A).
    const Fp16 inv_sqrt_d = Fp16::from_float(1.0f / std::sqrt(static_cast<float>(hd)));
    std::vector<Fp16> att_out(cfg.dim);
    std::vector<Fp16> scores(pos + 1);
    std::vector<Fp16> probs(pos + 1);
    std::vector<Fp16> row(hd);  // one dequantized K or V history row
    for (std::size_t h = 0; h < cfg.n_heads; ++h) {
        const std::size_t kvh = h / heads_per_kv;
        const std::span<const Fp16> qh(q.data() + h * hd, hd);

        for (std::size_t t = 0; t < pos; ++t) {
            const quant::KvQuantized& e = kv_.key(slot, layer, kvh, t);
            DequantUnit::run_kv(e.codes, e.params, row);
            scores[t] = DotEngine::dot(qh, row) * inv_sqrt_d;
        }
        scores[pos] =
            DotEngine::dot(qh, std::span<const Fp16>(k).subspan(kvh * hd, hd)) *
            inv_sqrt_d;

        softmax_.run(scores, probs);

        // Scaled-dot accumulation of values (fp16 MACs, one value row at a
        // time as the history streams in).
        std::span<Fp16> out(att_out.data() + h * hd, hd);
        for (auto& o : out) o = Fp16::zero();
        for (std::size_t t = 0; t < pos; ++t) {
            const quant::KvQuantized& e = kv_.value(slot, layer, kvh, t);
            DequantUnit::run_kv(e.codes, e.params, row);
            for (std::size_t i = 0; i < hd; ++i) out[i] = out[i] + probs[t] * row[i];
        }
        for (std::size_t i = 0; i < hd; ++i) {
            out[i] = out[i] + probs[pos] * v[kvh * hd + i];
        }
    }

    // Output projection + residual add (fused with the square-sum pass).
    std::vector<Fp16> o(cfg.dim);
    DotEngine::gemv(lw.wo.stream, cfg.dim, cfg.dim, att_out, o);
    for (std::size_t i = 0; i < cfg.dim; ++i) x[i] = x[i] + o[i];
}

void Accelerator::mlp(std::size_t layer, std::vector<Fp16>& x) {
    const model::ModelConfig& cfg = model_->config;
    const PackedLayer& lw = model_->layers[layer];

    std::vector<Fp16> xn(cfg.dim);
    rms_.run(x, lw.mlp_norm, cfg.rms_eps, xn, SpuRmsNorm::square_sum(x));

    std::vector<Fp16> gate(cfg.hidden_dim), up(cfg.hidden_dim), hidden(cfg.hidden_dim);
    DotEngine::gemv(lw.w_gate.stream, cfg.hidden_dim, cfg.dim, xn, gate);
    DotEngine::gemv(lw.w_up.stream, cfg.hidden_dim, cfg.dim, xn, up);
    silu_.run(gate, up, hidden);

    std::vector<Fp16> down(cfg.dim);
    DotEngine::gemv(lw.w_down.stream, cfg.dim, cfg.hidden_dim, hidden, down);
    for (std::size_t i = 0; i < cfg.dim; ++i) x[i] = x[i] + down[i];
}

void Accelerator::forward_slot(std::int32_t token, std::size_t slot,
                               std::span<float> logits_out) {
    const model::ModelConfig& cfg = model_->config;
    check(token >= 0 && static_cast<std::uint64_t>(token) < cfg.vocab_size,
          "Accelerator: token out of range");
    check(slot < opts_.max_batch, "Accelerator: slot out of range");
    check(pos_[slot] < cfg.max_seq_len, "Accelerator: KV reservation exhausted");
    check(logits_out.size() >= cfg.vocab_size, "Accelerator: logits_out too small");

    // Embedding row (fp16 in DDR).
    std::vector<Fp16> x(cfg.dim);
    const std::size_t base = static_cast<std::size_t>(token) * cfg.dim;
    for (std::size_t i = 0; i < cfg.dim; ++i) x[i] = model_->embedding[base + i];

    for (std::size_t layer = 0; layer < cfg.n_layers; ++layer) {
        attention(layer, slot, x);
        mlp(layer, x);
    }

    std::vector<Fp16> xn(cfg.dim);
    rms_.run(x, model_->final_norm, cfg.rms_eps, xn, SpuRmsNorm::square_sum(x));
    std::vector<Fp16> logits_h(cfg.vocab_size);
    DotEngine::gemv(model_->lm_head.stream, cfg.vocab_size, cfg.dim, xn, logits_h);
    for (std::size_t i = 0; i < cfg.vocab_size; ++i) {
        logits_out[i] = logits_h[i].to_float();
    }
    ++pos_[slot];
}

StepResult Accelerator::step(std::int32_t token) {
    StepResult r;
    r.logits.resize(model_->config.vocab_size);
    const std::size_t ctx = pos_[0];
    forward_slot(token, 0, r.logits);
    if (opts_.collect_timing) {
        r.timing = timing_.token_timing(ctx);
    }
    return r;
}

void Accelerator::decode_batch(std::span<const std::int32_t> tokens,
                               std::span<const std::size_t> slots,
                               std::span<float> logits_out) {
    const std::size_t nb = tokens.size();
    const std::size_t vocab = model_->config.vocab_size;
    check(nb >= 1, "decode_batch: empty batch");
    check(nb == slots.size(), "decode_batch: tokens/slots size mismatch");
    check(nb <= opts_.max_batch, "decode_batch: batch exceeds max_batch");
    check(logits_out.size() >= nb * vocab, "decode_batch: logits_out too small");
    for (std::size_t b = 0; b < nb; ++b) {
        check(slots[b] < opts_.max_batch, "decode_batch: slot out of range");
        for (std::size_t c = b + 1; c < nb; ++c) {
            check(slots[b] != slots[c], "decode_batch: duplicate slot");
        }
    }

    const auto t0 = std::chrono::steady_clock::now();
    ctx_scratch_.clear();
    for (std::size_t b = 0; b < nb; ++b) ctx_scratch_.push_back(pos_[slots[b]]);

    // Functional math is per-session (each lane bit-identical to a solo run);
    // the device prices the step batched — weights once, KV per session.
    for (std::size_t b = 0; b < nb; ++b) {
        forward_slot(tokens[b], slots[b], logits_out.subspan(b * vocab, vocab));
    }
    const auto t1 = std::chrono::steady_clock::now();

    last_cost_.wall_ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    if (opts_.collect_timing) {
        const TokenTiming timing = timing_.batch_timing(ctx_scratch_);
        last_cost_.simulated_ns = timing.total_ns;
        last_cost_.sim_mem_bound_ns = timing.mem_bound_ns;
        last_cost_.sim_compute_ns = timing.spu_exposed_ns;
        last_cost_.sim_overhead_ns = timing.overhead_ns;
    } else {
        last_cost_.simulated_ns = 0.0;
        last_cost_.sim_mem_bound_ns = 0.0;
        last_cost_.sim_compute_ns = 0.0;
        last_cost_.sim_overhead_ns = 0.0;
    }
    last_cost_.weight_walks = 1.0;  // one streaming pass over the weights per step
}

GenerationResult Accelerator::generate(std::span<const std::int32_t> prompt,
                                       std::size_t max_new, model::Sampler& sampler,
                                       std::int32_t eos) {
    check(!prompt.empty(), "Accelerator: empty prompt");
    GenerationResult g;

    StepResult last;
    for (const std::int32_t t : prompt) last = step(t);

    // Same attribution rule as InferenceSession::generate: a token is billed
    // the decode step that consumes it, so total_ns covers exactly the decode
    // steps executed here (prefill is TTFT, not decode time).
    for (std::size_t i = 0; i < max_new && pos_[0] < model_->config.max_seq_len; ++i) {
        const std::int32_t next = sampler.sample(last.logits);
        g.tokens.push_back(next);
        if (next == eos) break;
        last = step(next);
        g.total_ns += last.timing.total_ns;
    }
    return g;
}

}  // namespace efld::accel
