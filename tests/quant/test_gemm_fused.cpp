// Skinny-GEMM fast path vs. the reference oracle: one weight walk serving a
// batch of activation vectors must be bit-for-bit identical to independent
// GEMV calls — the accumulation contract extends per (row, batch column).
#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "quant/groupquant.hpp"

namespace efld::quant {
namespace {

std::vector<float> random_floats(std::size_t n, std::uint64_t seed, double scale = 0.05) {
    efld::Xoshiro256 rng(seed);
    std::vector<float> w(n);
    for (auto& v : w) v = static_cast<float>(rng.gaussian(0.0, scale));
    return w;
}

QuantizedLinear make_layer(std::size_t rows, std::size_t cols, unsigned bits,
                           std::size_t group_size, std::uint64_t seed) {
    GroupQuantConfig cfg;
    cfg.bits = bits;
    cfg.group_size = group_size;
    return QuantizedLinear::quantize(random_floats(rows * cols, seed), rows, cols, cfg);
}

TEST(GemmFused, ReferenceIsExactlyIndependentGemvs) {
    const QuantizedLinear q = make_layer(24, 256, 4, 128, 11);
    const std::size_t batch = 5;
    const auto x = random_floats(batch * 256, 12, 1.0);
    std::vector<float> want(batch * 24);
    for (std::size_t b = 0; b < batch; ++b) {
        q.gemv_reference(std::span<const float>(x).subspan(b * 256, 256),
                         std::span<float>(want).subspan(b * 24, 24));
    }
    std::vector<float> got(batch * 24, -1.0f);
    q.gemm_reference(x, batch, got);
    EXPECT_EQ(got, want);
}

TEST(GemmFused, ScalarMatchesReferenceBitForBit) {
    // Sweep bits x group size x shape x batch (crossing the register-tile
    // boundary at kGemmBatchTile).
    std::uint64_t seed = 1;
    for (const unsigned bits : {2u, 4u, 8u}) {
        for (const std::size_t gs : {32u, 128u}) {
            for (const auto& [rows, cols] :
                 std::vector<std::pair<std::size_t, std::size_t>>{{3, 128}, {40, 256}}) {
                if (cols % gs != 0) continue;
                const QuantizedLinear q = make_layer(rows, cols, bits, gs, seed++);
                for (const std::size_t batch : {1u, 2u, 4u, 8u, 9u, 17u}) {
                    const auto x = random_floats(batch * cols, seed++, 1.0);
                    std::vector<float> want(batch * rows);
                    q.gemm_reference(x, batch, want);
                    std::vector<float> got(batch * rows, -1.0f);
                    q.gemm(x, batch, got);
                    EXPECT_EQ(got, want) << "bits=" << bits << " gs=" << gs << " "
                                         << rows << "x" << cols << " batch=" << batch;
                }
            }
        }
    }
}

TEST(GemmFused, Batch1IsIdenticalToGemv) {
    for (const unsigned bits : {4u, 8u}) {
        const QuantizedLinear q = make_layer(48, 384, bits, 128, 100 + bits);
        const auto x = random_floats(384, 200 + bits, 1.0);
        std::vector<float> via_gemv(48, -1.0f), via_gemm(48, -2.0f);
        q.gemv(x, via_gemv);
        q.gemm(x, 1, via_gemm);
        EXPECT_EQ(via_gemm, via_gemv) << "bits=" << bits;
    }
}

TEST(GemmFused, ThreadedMatchesScalarBitForBit) {
    const QuantizedLinear q = make_layer(96, 512, 4, 128, 77);
    for (const std::size_t batch : {1u, 3u, 8u}) {
        const auto x = random_floats(batch * 512, 78 + batch, 1.0);
        std::vector<float> scalar(batch * 96);
        q.gemm(x, batch, scalar);
        for (const std::size_t threads : {2u, 4u, 8u}) {
            ThreadPool pool(threads);
            std::vector<float> threaded(batch * 96, -1.0f);
            q.gemm(x, batch, threaded, &pool);
            EXPECT_EQ(threaded, scalar) << threads << " threads, batch " << batch;
        }
    }
}

TEST(GemmFused, Packed4BitMatchesReferenceBitForBit) {
    for (const std::size_t gs : {32u, 128u}) {
        const QuantizedLinear q = make_layer(33, 256, 4, gs, 7 + gs);
        const auto packed = q.pack_codes();
        for (const std::size_t batch : {1u, 2u, 4u, 8u, 11u}) {
            const auto x = random_floats(batch * 256, 8 + gs + batch, 1.0);
            std::vector<float> want(batch * 33);
            q.gemm_reference(x, batch, want);
            std::vector<float> got(batch * 33, -1.0f);
            q.gemm_packed(packed, x, batch, got);
            EXPECT_EQ(got, want) << "gs=" << gs << " batch=" << batch;

            ThreadPool pool(4);
            std::vector<float> got_mt(batch * 33, -1.0f);
            q.gemm_packed(packed, x, batch, got_mt, &pool);
            EXPECT_EQ(got_mt, want) << "threaded, gs=" << gs << " batch=" << batch;
        }
    }
}

TEST(GemmFused, PackedBatch1IsIdenticalToGemvPacked) {
    const QuantizedLinear q = make_layer(20, 384, 4, 128, 55);
    const auto packed = q.pack_codes();
    const auto x = random_floats(384, 56, 1.0);
    std::vector<float> via_gemv(20, -1.0f), via_gemm(20, -2.0f);
    q.gemv_packed(packed, x, via_gemv);
    q.gemm_packed(packed, x, 1, via_gemm);
    EXPECT_EQ(via_gemm, via_gemv);
}

TEST(GemmFused, EveryTileWidthMatchesReferenceBitForBit) {
    // Batches 1..17 reach every compiled tile width 1..kGemmBatchTile, alone
    // and as the remainder after one or two full tiles. The layer is big
    // enough that pools of 2 and 3 really split it: even the packed stream
    // spans three kMinChunkBytes chunks, and the odd row count leaves uneven
    // chunk edges.
    static_assert(kGemmBatchTile == 8, "sweep covers two full tiles plus a remainder");
    const std::size_t cols = 512;
    const std::size_t rows = 3 * 2 * kMinChunkBytes / cols + 5;
    const QuantizedLinear q = make_layer(rows, cols, 4, 64, 91);
    const auto packed = q.pack_codes();
    ThreadPool pool2(2), pool3(3);
    for (std::size_t batch = 1; batch <= 2 * kGemmBatchTile + 1; ++batch) {
        const auto x = random_floats(batch * cols, 92 + batch, 1.0);
        std::vector<float> want(batch * rows);
        q.gemm_reference(x, batch, want);
        for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2, &pool3}) {
            const std::size_t threads = pool == nullptr ? 1 : pool->size();
            std::vector<float> got(batch * rows, -1.0f);
            q.gemm(x, batch, got, pool);
            EXPECT_EQ(got, want) << "bytes, batch " << batch << ", " << threads << " threads";
            std::vector<float> got_packed(batch * rows, -1.0f);
            q.gemm_packed(packed, x, batch, got_packed, pool);
            EXPECT_EQ(got_packed, want)
                << "packed, batch " << batch << ", " << threads << " threads";
        }
    }
}

TEST(GemmFused, RejectsBadShapes) {
    const QuantizedLinear q = make_layer(4, 128, 4, 64, 41);
    std::vector<float> x(2 * 128), y(2 * 4);
    EXPECT_THROW(q.gemm(x, 0, std::span<float>()), efld::Error);
    EXPECT_THROW(q.gemm(std::span<const float>(x).first(255), 2, y), efld::Error);
    EXPECT_THROW(q.gemm(x, 2, std::span<float>(y).first(7)), efld::Error);
    const auto packed = q.pack_codes();
    EXPECT_THROW(
        q.gemm_packed(std::span<const Word512>(packed).first(0), x, 2, y),
        efld::Error);
}

}  // namespace
}  // namespace efld::quant
