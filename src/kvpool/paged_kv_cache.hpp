// Physically paged KV storage: the KvBlockPool's block tables backed by real
// page-resident slabs. These arenas are the only KV storage in the repo —
// both decode backends keep every session's history here.
//
// Two arenas: float (golden path) and KV8-quantized (deployed form, and the
// KV260 twin's store). Storage is a shared page arena rather than a
// per-session max_seq_len reservation: a sequence owns only the pages its
// history actually fills, so the arena's footprint is the pool budget, not
// sessions x context window. A pool of one max_seq_len-token page per
// sequence (slot_pool_config with page_tokens 0) is the contiguous layout as
// a special case.
//
// Within a page, a (layer, kv_head) keeps its page_tokens token rows
// contiguous ([layer][kv_head][token_in_page][head_dim]), matching the MCU's
// head-major DDR layout at page granularity: reading one head's history is
// one burst per PAGE rather than one burst per sequence. The read path walks
// those per-page spans into caller scratch; because the values are copied
// (or dequantized) verbatim, attention over a paged history is bit-for-bit
// identical to attention over a contiguous cache — the parity the engine
// contract tests assert against model::KvCache / QuantizedKvCache.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kvpool/kv_block_pool.hpp"
#include "model/config.hpp"
#include "quant/kvquant.hpp"

namespace efld::kvpool {

// Pool for `max_batch` session slots: pages of `page_tokens` tokens (0 = one
// max_seq_len page per slot, the contiguous layout), `pool_pages` of them
// (0 = worst case, every slot at full context).
[[nodiscard]] KvPoolConfig slot_pool_config(const model::ModelConfig& cfg,
                                            std::size_t max_batch,
                                            std::size_t page_tokens,
                                            std::size_t pool_pages);

// Sequence bookkeeping both arenas share: the pool, the per-sequence layer
// cadence, and the append step that resolves copy-on-write and takes pages.
class PagedArena {
public:
    [[nodiscard]] std::size_t create_sequence() { return pool_.create_sequence(); }
    void free_sequence(std::size_t seq);
    void reset_sequence(std::size_t seq);

    [[nodiscard]] std::size_t length(std::size_t seq) const {
        return pool_.seq_tokens(seq);
    }
    [[nodiscard]] const KvBlockPool& pool() const noexcept { return pool_; }
    [[nodiscard]] KvBlockPool& pool() noexcept { return pool_; }

protected:
    PagedArena(const model::ModelConfig& cfg, KvPoolConfig pool_cfg);

    // Where one layer's append writes. Appends follow the contiguous caches'
    // cadence: every layer writes the same position, the token advances after
    // the last layer. The first layer of a position takes a private copy of
    // a still-shared page (cow.ok: the caller copies cow.old_page ->
    // cow.new_page) and grows the sequence by one token; a refused grow (pool
    // exhausted) throws efld::Error and leaves the sequence retryable.
    struct AppendTarget {
        KvBlockPool::PageSlot slot;
        KvBlockPool::CowResult cow;
    };
    [[nodiscard]] AppendTarget open_append(std::size_t seq, std::size_t layer);

    model::ModelConfig cfg_;
    KvBlockPool pool_;

private:
    std::vector<std::size_t> appended_this_pos_;  // per sequence (layer cadence)
};

// Float paged KV arena (reference path).
class PagedKvArena : public PagedArena {
public:
    PagedKvArena(const model::ModelConfig& cfg, KvPoolConfig pool_cfg);

    // Appends one token's K and V for `layer` (same cadence as
    // KvCache::append). Throws efld::Error when the pool is exhausted — the
    // admission governor exists to make that unreachable for admitted
    // sequences.
    void append(std::size_t seq, std::size_t layer, std::span<const float> k,
                std::span<const float> v);

    // `len` history rows of one head: a zero-copy view of the page when they
    // all lie in the first one, else gathered into caller scratch (at least
    // len * head_dim floats), one contiguous copy per page.
    std::span<const float> gather_keys(std::size_t seq, std::size_t layer,
                                       std::size_t kv_head, std::size_t len,
                                       std::span<float> out) const;
    std::span<const float> gather_values(std::size_t seq, std::size_t layer,
                                         std::size_t kv_head, std::size_t len,
                                         std::span<float> out) const;

private:
    // Float offset of (layer, kv_head, token_in_page) inside a page slab.
    [[nodiscard]] std::size_t page_off(std::size_t layer, std::size_t kv_head,
                                       std::size_t tok_in_page) const noexcept {
        return ((layer * cfg_.n_kv_heads + kv_head) * pool_.page_tokens() +
                tok_in_page) *
               cfg_.head_dim();
    }
    std::span<const float> gather(const std::vector<float>& store, std::size_t seq,
                                  std::size_t layer, std::size_t kv_head,
                                  std::size_t len, std::span<float> out) const;

    std::size_t page_floats_ = 0;  // floats per page slab (K or V)
    std::vector<float> k_;         // [page][layer][kv_head][tok_in_page][head_dim]
    std::vector<float> v_;
};

// KV8 paged arena (deployed form): per-(token, head) code vectors + params,
// page-resident like the codes/packs regions in DDR.
class PagedQuantizedKvArena : public PagedArena {
public:
    PagedQuantizedKvArena(const model::ModelConfig& cfg, KvPoolConfig pool_cfg,
                          unsigned kv_bits = 8);

    // Quantizes (per head, kv_bits grid) and appends one token's K and V.
    void append(std::size_t seq, std::size_t layer, std::span<const float> k,
                std::span<const float> v);

    // Appends one token's K and V for `layer` already quantized elsewhere —
    // the twin's SPU quantizer — one entry per KV head, moved into the page.
    // Same cadence, copy-on-write and exhaustion contract as append().
    void append_quantized(std::size_t seq, std::size_t layer,
                          std::span<quant::KvQuantized> k,
                          std::span<quant::KvQuantized> v);

    // The stored entry of history row `token` of one head.
    [[nodiscard]] const quant::KvQuantized& key(std::size_t seq, std::size_t layer,
                                                std::size_t kv_head,
                                                std::size_t token) const;
    [[nodiscard]] const quant::KvQuantized& value(std::size_t seq, std::size_t layer,
                                                  std::size_t kv_head,
                                                  std::size_t token) const;

    // Dequantizes `len` history rows of one head into caller scratch, page
    // by page (matches QuantizedKvCache::dequant_*_into bit-for-bit).
    std::span<const float> dequant_keys_into(std::size_t seq, std::size_t layer,
                                             std::size_t kv_head, std::size_t len,
                                             std::span<float> out) const;
    std::span<const float> dequant_values_into(std::size_t seq, std::size_t layer,
                                               std::size_t kv_head, std::size_t len,
                                               std::span<float> out) const;

private:
    [[nodiscard]] std::size_t entry_idx(std::size_t page, std::size_t layer,
                                        std::size_t kv_head,
                                        std::size_t tok_in_page) const noexcept {
        return ((page * cfg_.n_layers + layer) * cfg_.n_kv_heads + kv_head) *
                   pool_.page_tokens() +
               tok_in_page;
    }
    // Storage index of one append's head-0 entry (heads are page_tokens
    // apart), after copying any copy-on-write page it owes.
    [[nodiscard]] std::size_t open_entries(std::size_t seq, std::size_t layer);
    [[nodiscard]] const quant::KvQuantized& entry(
        const std::vector<quant::KvQuantized>& store, std::size_t seq,
        std::size_t layer, std::size_t kv_head, std::size_t token) const;
    std::span<const float> dequant(const std::vector<quant::KvQuantized>& store,
                                   std::size_t seq, std::size_t layer,
                                   std::size_t kv_head, std::size_t len,
                                   std::span<float> out) const;

    unsigned kv_bits_ = 8;
    std::vector<quant::KvQuantized> k_;  // [page][layer][kv_head][tok_in_page]
    std::vector<quant::KvQuantized> v_;
};

}  // namespace efld::kvpool
