#include "kvpool/paged_kv_cache.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace efld::kvpool {

KvPoolConfig slot_pool_config(const model::ModelConfig& cfg, std::size_t max_batch,
                              std::size_t page_tokens, std::size_t pool_pages) {
    KvPoolConfig pc;
    pc.page_tokens = page_tokens > 0 ? page_tokens : cfg.max_seq_len;
    pc.n_pages = pool_pages > 0
                     ? pool_pages
                     : max_batch * static_cast<std::size_t>(
                                       div_ceil(cfg.max_seq_len, pc.page_tokens));
    return pc;
}

PagedArena::PagedArena(const model::ModelConfig& cfg, KvPoolConfig pool_cfg)
    : cfg_(cfg), pool_(pool_cfg) {}

void PagedArena::free_sequence(std::size_t seq) {
    pool_.free_sequence(seq);
    if (seq < appended_this_pos_.size()) appended_this_pos_[seq] = 0;
}

void PagedArena::reset_sequence(std::size_t seq) {
    pool_.reset_sequence(seq);
    if (seq < appended_this_pos_.size()) appended_this_pos_[seq] = 0;
}

PagedArena::AppendTarget PagedArena::open_append(std::size_t seq, std::size_t layer) {
    check(layer < cfg_.n_layers, "PagedArena: layer out of range");
    if (seq >= appended_this_pos_.size()) appended_this_pos_.resize(seq + 1, 0);
    AppendTarget t;
    std::size_t token = pool_.seq_tokens(seq);
    if (appended_this_pos_[seq] == 0) {
        if (pool_.write_needs_cow(seq)) {
            // Writing into a page another holder still maps: this sequence
            // takes a private copy first, so sharers never see the write.
            t.cow = pool_.cow_page(seq);
            check(t.cow.ok,
                  "PagedArena: no free page for a copy-on-write divergence "
                  "(admission should have reserved it)");
        }
        check(pool_.append_token(seq),
              "PagedArena: KV pool exhausted (admission should have deferred "
              "this sequence)");
    } else {
        --token;  // later layers write the position the first layer opened
    }
    // Advanced only after the pool granted the token, so a refused append
    // leaves the sequence in a consistent, retryable state.
    if (++appended_this_pos_[seq] == cfg_.n_layers) appended_this_pos_[seq] = 0;
    t.slot = pool_.locate(seq, token);
    return t;
}

PagedKvArena::PagedKvArena(const model::ModelConfig& cfg, KvPoolConfig pool_cfg)
    : PagedArena(cfg, pool_cfg) {
    page_floats_ =
        cfg_.n_layers * cfg_.n_kv_heads * pool_.page_tokens() * cfg_.head_dim();
    k_.resize(pool_.pages_total() * page_floats_);
    v_.resize(pool_.pages_total() * page_floats_);
}

void PagedKvArena::append(std::size_t seq, std::size_t layer, std::span<const float> k,
                          std::span<const float> v) {
    check(k.size() == cfg_.kv_dim() && v.size() == cfg_.kv_dim(),
          "PagedKvArena: bad vector size");
    const AppendTarget t = open_append(seq, layer);
    if (t.cow.ok) {
        std::copy_n(k_.data() + t.cow.old_page * page_floats_, page_floats_,
                    k_.data() + t.cow.new_page * page_floats_);
        std::copy_n(v_.data() + t.cow.old_page * page_floats_, page_floats_,
                    v_.data() + t.cow.new_page * page_floats_);
    }
    const std::size_t hd = cfg_.head_dim();
    float* kp = k_.data() + t.slot.page * page_floats_;
    float* vp = v_.data() + t.slot.page * page_floats_;
    for (std::size_t h = 0; h < cfg_.n_kv_heads; ++h) {
        const std::size_t off = page_off(layer, h, t.slot.offset);
        std::copy_n(k.data() + h * hd, hd, kp + off);
        std::copy_n(v.data() + h * hd, hd, vp + off);
    }
}

std::span<const float> PagedKvArena::gather(const std::vector<float>& store,
                                            std::size_t seq, std::size_t layer,
                                            std::size_t kv_head, std::size_t len,
                                            std::span<float> out) const {
    check(layer < cfg_.n_layers && kv_head < cfg_.n_kv_heads,
          "PagedKvArena: bad head");
    check(len <= pool_.seq_tokens(seq), "PagedKvArena: history longer than sequence");
    const std::size_t hd = cfg_.head_dim();
    const std::vector<std::size_t>& table = pool_.block_table(seq);
    const std::size_t pt = pool_.page_tokens();
    const float* head = store.data() + page_off(layer, kv_head, 0);
    if (len <= pt) {
        // One page holds it all (always, for a one-page pool): its rows are
        // already contiguous.
        return {len == 0 ? head : head + table[0] * page_floats_, len * hd};
    }
    check(out.size() >= len * hd, "PagedKvArena: gather scratch too small");
    // One contiguous copy per page: the host-side mirror of the per-page DDR
    // bursts the cycle model prices.
    for (std::size_t t = 0; t < len; t += pt) {
        const std::size_t rows = std::min(pt, len - t);
        std::copy_n(head + table[t / pt] * page_floats_, rows * hd, out.data() + t * hd);
    }
    return out.first(len * hd);
}

std::span<const float> PagedKvArena::gather_keys(std::size_t seq, std::size_t layer,
                                                 std::size_t kv_head, std::size_t len,
                                                 std::span<float> out) const {
    return gather(k_, seq, layer, kv_head, len, out);
}

std::span<const float> PagedKvArena::gather_values(std::size_t seq, std::size_t layer,
                                                   std::size_t kv_head, std::size_t len,
                                                   std::span<float> out) const {
    return gather(v_, seq, layer, kv_head, len, out);
}

PagedQuantizedKvArena::PagedQuantizedKvArena(const model::ModelConfig& cfg,
                                             KvPoolConfig pool_cfg, unsigned kv_bits)
    : PagedArena(cfg, pool_cfg), kv_bits_(kv_bits) {
    const std::size_t entries_per_page =
        cfg_.n_layers * cfg_.n_kv_heads * pool_.page_tokens();
    k_.resize(pool_.pages_total() * entries_per_page);
    v_.resize(pool_.pages_total() * entries_per_page);
}

std::size_t PagedQuantizedKvArena::open_entries(std::size_t seq, std::size_t layer) {
    const AppendTarget t = open_append(seq, layer);
    if (t.cow.ok) {
        // Deep entry copies: the sharers keep their codes untouched.
        const std::size_t epp = cfg_.n_layers * cfg_.n_kv_heads * pool_.page_tokens();
        std::copy_n(k_.begin() + t.cow.old_page * epp, epp,
                    k_.begin() + t.cow.new_page * epp);
        std::copy_n(v_.begin() + t.cow.old_page * epp, epp,
                    v_.begin() + t.cow.new_page * epp);
    }
    return entry_idx(t.slot.page, layer, 0, t.slot.offset);
}

void PagedQuantizedKvArena::append(std::size_t seq, std::size_t layer,
                                   std::span<const float> k, std::span<const float> v) {
    check(k.size() == cfg_.kv_dim() && v.size() == cfg_.kv_dim(),
          "PagedQuantizedKvArena: bad vector size");
    const std::size_t e = open_entries(seq, layer);
    const std::size_t hd = cfg_.head_dim();
    const std::size_t pt = pool_.page_tokens();
    for (std::size_t h = 0; h < cfg_.n_kv_heads; ++h) {
        // Per-head quantization, same granularity as QuantizedKvCache (and
        // the SPU quantizer / Fig. 4B FIFO).
        k_[e + h * pt] = quant::kv_quantize_bits(k.subspan(h * hd, hd), kv_bits_);
        v_[e + h * pt] = quant::kv_quantize_bits(v.subspan(h * hd, hd), kv_bits_);
    }
}

void PagedQuantizedKvArena::append_quantized(std::size_t seq, std::size_t layer,
                                             std::span<quant::KvQuantized> k,
                                             std::span<quant::KvQuantized> v) {
    check(k.size() == cfg_.n_kv_heads && v.size() == cfg_.n_kv_heads,
          "PagedQuantizedKvArena: need one entry per KV head");
    const std::size_t e = open_entries(seq, layer);
    const std::size_t pt = pool_.page_tokens();
    for (std::size_t h = 0; h < cfg_.n_kv_heads; ++h) {
        k_[e + h * pt] = std::move(k[h]);
        v_[e + h * pt] = std::move(v[h]);
    }
}

const quant::KvQuantized& PagedQuantizedKvArena::entry(
    const std::vector<quant::KvQuantized>& store, std::size_t seq, std::size_t layer,
    std::size_t kv_head, std::size_t token) const {
    check(layer < cfg_.n_layers && kv_head < cfg_.n_kv_heads,
          "PagedQuantizedKvArena: bad head");
    const KvBlockPool::PageSlot s = pool_.locate(seq, token);
    return store[entry_idx(s.page, layer, kv_head, s.offset)];
}

const quant::KvQuantized& PagedQuantizedKvArena::key(std::size_t seq, std::size_t layer,
                                                     std::size_t kv_head,
                                                     std::size_t token) const {
    return entry(k_, seq, layer, kv_head, token);
}

const quant::KvQuantized& PagedQuantizedKvArena::value(std::size_t seq,
                                                       std::size_t layer,
                                                       std::size_t kv_head,
                                                       std::size_t token) const {
    return entry(v_, seq, layer, kv_head, token);
}

std::span<const float> PagedQuantizedKvArena::dequant(
    const std::vector<quant::KvQuantized>& store, std::size_t seq, std::size_t layer,
    std::size_t kv_head, std::size_t len, std::span<float> out) const {
    check(layer < cfg_.n_layers && kv_head < cfg_.n_kv_heads,
          "PagedQuantizedKvArena: bad head");
    check(len <= pool_.seq_tokens(seq),
          "PagedQuantizedKvArena: history longer than sequence");
    const std::size_t hd = cfg_.head_dim();
    check(out.size() >= len * hd, "PagedQuantizedKvArena: dequant scratch too small");
    const std::vector<std::size_t>& table = pool_.block_table(seq);
    const std::size_t pt = pool_.page_tokens();
    // Page by page, then the page's contiguous rows: no per-row division.
    for (std::size_t t = 0; t < len; t += pt) {
        const std::size_t rows = std::min(pt, len - t);
        const quant::KvQuantized* e = &store[entry_idx(table[t / pt], layer, kv_head, 0)];
        float* dst = out.data() + t * hd;
        for (std::size_t r = 0; r < rows; ++r, dst += hd) {
            quant::kv_dequantize_into(e[r].codes, e[r].params, {dst, hd});
        }
    }
    return out.first(len * hd);
}

std::span<const float> PagedQuantizedKvArena::dequant_keys_into(
    std::size_t seq, std::size_t layer, std::size_t kv_head, std::size_t len,
    std::span<float> out) const {
    return dequant(k_, seq, layer, kv_head, len, out);
}

std::span<const float> PagedQuantizedKvArena::dequant_values_into(
    std::size_t seq, std::size_t layer, std::size_t kv_head, std::size_t len,
    std::span<float> out) const {
    return dequant(v_, seq, layer, kv_head, len, out);
}

}  // namespace efld::kvpool
