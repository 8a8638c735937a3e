// Paged KV arenas vs the contiguous caches: page-gathered (or
// page-dequantized) history must be bit-for-bit what the contiguous
// reservation returns, pre-quantized entries must read back verbatim (also
// through a copy-on-write copy), pages must recycle across sequences, and
// exhaustion must surface as an error, not corruption.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "kvpool/paged_kv_cache.hpp"
#include "model/kv_cache.hpp"

namespace efld::kvpool {
namespace {

model::ModelConfig cfg() {
    model::ModelConfig c = model::ModelConfig::micro_256();
    c.max_seq_len = 64;  // keep the contiguous oracle small
    return c;
}

std::vector<float> random_vec(Xoshiro256& rng, std::size_t n) {
    std::vector<float> v(n);
    for (auto& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
    return v;
}

TEST(PagedKvArena, GatherMatchesContiguousSpansBitForBit) {
    const model::ModelConfig c = cfg();
    // Pages deliberately smaller than the history so gathers cross pages.
    PagedKvArena arena(c, {.page_tokens = 4, .n_pages = 64});
    model::KvCache oracle(c);
    const std::size_t seq = arena.create_sequence();

    Xoshiro256 rng(7);
    const std::size_t n_tokens = 19;  // not a page multiple: partial last page
    for (std::size_t t = 0; t < n_tokens; ++t) {
        for (std::size_t l = 0; l < c.n_layers; ++l) {
            const std::vector<float> k = random_vec(rng, c.kv_dim());
            const std::vector<float> v = random_vec(rng, c.kv_dim());
            arena.append(seq, l, k, v);
            oracle.append(l, k, v);
        }
    }
    ASSERT_EQ(arena.length(seq), n_tokens);

    std::vector<float> scratch(n_tokens * c.head_dim());
    for (std::size_t l = 0; l < c.n_layers; ++l) {
        for (std::size_t h = 0; h < c.n_kv_heads; ++h) {
            for (const std::size_t len : {std::size_t{1}, std::size_t{4},
                                          std::size_t{5}, n_tokens}) {
                const std::span<const float> got =
                    arena.gather_keys(seq, l, h, len, scratch);
                const std::span<const float> want = oracle.keys_span(l, h, len);
                ASSERT_EQ(got.size(), want.size());
                for (std::size_t i = 0; i < got.size(); ++i) {
                    ASSERT_EQ(got[i], want[i]) << "keys l" << l << " h" << h;
                }
                const std::span<const float> gv =
                    arena.gather_values(seq, l, h, len, scratch);
                const std::span<const float> wv = oracle.values_span(l, h, len);
                for (std::size_t i = 0; i < gv.size(); ++i) {
                    ASSERT_EQ(gv[i], wv[i]) << "values l" << l << " h" << h;
                }
            }
        }
    }
}

TEST(PagedQuantizedKvArena, DequantMatchesContiguousQuantizedCache) {
    const model::ModelConfig c = cfg();
    PagedQuantizedKvArena arena(c, {.page_tokens = 4, .n_pages = 64}, 8);
    model::QuantizedKvCache oracle(c, 8);
    const std::size_t seq = arena.create_sequence();

    Xoshiro256 rng(11);
    const std::size_t n_tokens = 13;
    for (std::size_t t = 0; t < n_tokens; ++t) {
        for (std::size_t l = 0; l < c.n_layers; ++l) {
            const std::vector<float> k = random_vec(rng, c.kv_dim());
            const std::vector<float> v = random_vec(rng, c.kv_dim());
            arena.append(seq, l, k, v);
            oracle.append(l, k, v);
        }
    }

    std::vector<float> got(n_tokens * c.head_dim());
    std::vector<float> want(n_tokens * c.head_dim());
    for (std::size_t l = 0; l < c.n_layers; ++l) {
        for (std::size_t h = 0; h < c.n_kv_heads; ++h) {
            const auto g = arena.dequant_keys_into(seq, l, h, n_tokens, got);
            const auto w = oracle.dequant_keys_into(l, h, n_tokens, want);
            for (std::size_t i = 0; i < g.size(); ++i) ASSERT_EQ(g[i], w[i]);
            const auto gv = arena.dequant_values_into(seq, l, h, n_tokens, got);
            const auto wv = oracle.dequant_values_into(l, h, n_tokens, want);
            for (std::size_t i = 0; i < gv.size(); ++i) ASSERT_EQ(gv[i], wv[i]);
        }
    }
}

TEST(PagedQuantizedKvArena, PreQuantizedAppendReadsBackAndSurvivesCow) {
    // The twin's path: entries quantized elsewhere go in through
    // append_quantized and must come back bit-for-bit — in the donor, and in
    // an adopter whose first write copies the shared page.
    const model::ModelConfig c = cfg();
    PagedQuantizedKvArena arena(c, {.page_tokens = 4, .n_pages = 8}, 8);
    const std::size_t donor = arena.create_sequence();
    const std::size_t hd = c.head_dim();
    const auto at = [&](std::size_t t, std::size_t l, std::size_t h) {
        return (t * c.n_layers + l) * c.n_kv_heads + h;
    };

    Xoshiro256 rng(13);
    std::vector<quant::KvQuantized> want_k, want_v;  // [token][layer][head]
    const auto append_token = [&](std::size_t seq) {
        for (std::size_t l = 0; l < c.n_layers; ++l) {
            std::vector<quant::KvQuantized> k(c.n_kv_heads), v(c.n_kv_heads);
            for (std::size_t h = 0; h < c.n_kv_heads; ++h) {
                k[h] = quant::kv_quantize(random_vec(rng, hd));
                v[h] = quant::kv_quantize(random_vec(rng, hd));
            }
            want_k.insert(want_k.end(), k.begin(), k.end());
            want_v.insert(want_v.end(), v.begin(), v.end());
            arena.append_quantized(seq, l, k, v);
        }
    };
    const auto expect_entries = [&](std::size_t seq, std::size_t first,
                                    std::size_t len) {
        std::vector<float> got(len * hd);
        for (std::size_t t = 0; t < len; ++t) {
            for (std::size_t l = 0; l < c.n_layers; ++l) {
                for (std::size_t h = 0; h < c.n_kv_heads; ++h) {
                    const quant::KvQuantized& wk = want_k[at(first + t, l, h)];
                    const quant::KvQuantized& wv = want_v[at(first + t, l, h)];
                    const quant::KvQuantized& gk = arena.key(seq, l, h, t);
                    const quant::KvQuantized& gv = arena.value(seq, l, h, t);
                    ASSERT_EQ(gk.codes, wk.codes) << "t" << t << " l" << l << " h" << h;
                    ASSERT_EQ(gk.params.scale.bits(), wk.params.scale.bits());
                    ASSERT_EQ(gk.params.zero, wk.params.zero);
                    ASSERT_EQ(gv.codes, wv.codes);
                    ASSERT_EQ(gv.params.scale.bits(), wv.params.scale.bits());
                    ASSERT_EQ(gv.params.zero, wv.params.zero);
                }
            }
        }
        // The page-walking dequant reads the same entries.
        for (std::size_t h = 0; h < c.n_kv_heads; ++h) {
            (void)arena.dequant_keys_into(seq, 1, h, len, got);
            for (std::size_t t = 0; t < len; ++t) {
                const quant::KvQuantized& w = want_k[at(first + t, 1, h)];
                const std::vector<float> row = quant::kv_dequantize(w.codes, w.params);
                for (std::size_t i = 0; i < hd; ++i) ASSERT_EQ(got[t * hd + i], row[i]);
            }
        }
    };

    const std::size_t n_tokens = 6;  // one full page + half of the second
    for (std::size_t t = 0; t < n_tokens; ++t) append_token(donor);
    expect_entries(donor, 0, n_tokens);

    // An adopter maps both donor pages; its first append lands mid-page in
    // the shared second page, so the arena copies that page first.
    const std::size_t adopter = arena.create_sequence();
    const std::vector<std::size_t> chain = arena.pool().block_table(donor);
    arena.pool().adopt_pages(adopter, chain, n_tokens);
    append_token(adopter);
    EXPECT_EQ(arena.pool().cow_copies(), 1u);
    EXPECT_EQ(arena.pool().block_table(adopter)[0], chain[0]);  // still shared
    EXPECT_NE(arena.pool().block_table(adopter)[1], chain[1]);  // private copy
    ASSERT_EQ(arena.length(adopter), n_tokens + 1);
    expect_entries(adopter, 0, n_tokens);  // the copied history, verbatim
    for (std::size_t l = 0; l < c.n_layers; ++l) {
        for (std::size_t h = 0; h < c.n_kv_heads; ++h) {
            EXPECT_EQ(arena.key(adopter, l, h, n_tokens).codes,
                      want_k[at(n_tokens, l, h)].codes);
        }
    }
    // The donor never sees the adopter's write.
    EXPECT_EQ(arena.length(donor), n_tokens);
    expect_entries(donor, 0, n_tokens);
}

TEST(PagedKvArena, SequencesInterleaveWithoutCrosstalk) {
    const model::ModelConfig c = cfg();
    PagedKvArena arena(c, {.page_tokens = 2, .n_pages = 32});
    model::KvCache oracle_a(c), oracle_b(c);
    const std::size_t a = arena.create_sequence();
    const std::size_t b = arena.create_sequence();

    Xoshiro256 rng(3);
    for (std::size_t t = 0; t < 7; ++t) {
        for (std::size_t l = 0; l < c.n_layers; ++l) {
            const std::vector<float> ka = random_vec(rng, c.kv_dim());
            const std::vector<float> va = random_vec(rng, c.kv_dim());
            const std::vector<float> kb = random_vec(rng, c.kv_dim());
            const std::vector<float> vb = random_vec(rng, c.kv_dim());
            arena.append(a, l, ka, va);
            arena.append(b, l, kb, vb);
            oracle_a.append(l, ka, va);
            oracle_b.append(l, kb, vb);
        }
    }
    std::vector<float> scratch(7 * c.head_dim());
    for (std::size_t h = 0; h < c.n_kv_heads; ++h) {
        const auto ga = arena.gather_keys(a, 1, h, 7, scratch);
        const auto wa = oracle_a.keys_span(1, h, 7);
        for (std::size_t i = 0; i < ga.size(); ++i) ASSERT_EQ(ga[i], wa[i]);
        const auto gb = arena.gather_values(b, 1, h, 7, scratch);
        const auto wb = oracle_b.values_span(1, h, 7);
        for (std::size_t i = 0; i < gb.size(); ++i) ASSERT_EQ(gb[i], wb[i]);
    }
}

TEST(PagedKvArena, ExhaustionThrowsAndFreedPagesRecycle) {
    const model::ModelConfig c = cfg();
    // 4 pages of 2 tokens: one sequence can hold at most 8 tokens.
    PagedKvArena arena(c, {.page_tokens = 2, .n_pages = 4});
    const std::size_t a = arena.create_sequence();
    Xoshiro256 rng(5);
    auto push = [&](std::size_t seq) {
        for (std::size_t l = 0; l < c.n_layers; ++l) {
            arena.append(seq, l, random_vec(rng, c.kv_dim()),
                         random_vec(rng, c.kv_dim()));
        }
    };
    for (int t = 0; t < 8; ++t) push(a);
    EXPECT_THROW(push(a), efld::Error);

    // Retiring the hog returns its pages; a new sequence grows again.
    arena.free_sequence(a);
    const std::size_t b = arena.create_sequence();
    for (int t = 0; t < 8; ++t) push(b);
    EXPECT_EQ(arena.length(b), 8u);
    EXPECT_EQ(arena.pool().pages_used(), 4u);
}

}  // namespace
}  // namespace efld::kvpool
