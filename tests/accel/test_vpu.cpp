// VPU: dequantization unit and FP16 dot engine.
#include <gtest/gtest.h>

#include <cmath>

#include "accel/vpu.hpp"
#include "common/rng.hpp"
#include "quant/weight_format.hpp"

namespace efld::accel {
namespace {

TEST(DequantUnit, MatchesScalarFormula) {
    Word512 w;
    for (std::size_t i = 0; i < kVpuLanes; ++i) {
        w.set_nibble(i, static_cast<std::uint8_t>(i % 16));
    }
    const Fp16 scale = Fp16::from_float(0.125f);
    const auto lanes = DequantUnit::run(w, scale, 7);
    for (std::size_t i = 0; i < kVpuLanes; ++i) {
        const float expect = (static_cast<float>(i % 16) - 7.0f) * 0.125f;
        EXPECT_FLOAT_EQ(lanes[i].to_float(), expect) << i;
    }
}

TEST(DequantUnit, CodesOverloadAgrees) {
    Xoshiro256 rng(1);
    Word512 w;
    std::vector<std::uint8_t> codes(kVpuLanes);
    for (std::size_t i = 0; i < kVpuLanes; ++i) {
        codes[i] = static_cast<std::uint8_t>(rng.below(16));
        w.set_nibble(i, codes[i]);
    }
    const Fp16 s = Fp16::from_float(0.07f);
    const auto a = DequantUnit::run(w, s, 3);
    const auto b = DequantUnit::run(codes, s, 3);
    for (std::size_t i = 0; i < kVpuLanes; ++i) EXPECT_EQ(a[i].bits(), b[i].bits());
}

TEST(DequantUnit, KvVariant) {
    const std::vector<std::uint8_t> codes{0, 100, 200, 255};
    quant::KvQuantParams p{Fp16::from_float(0.5f), 100};
    std::vector<Fp16> vals(codes.size());
    DequantUnit::run_kv(codes, p, vals);
    EXPECT_FLOAT_EQ(vals[0].to_float(), -50.0f);
    EXPECT_FLOAT_EQ(vals[1].to_float(), 0.0f);
    EXPECT_FLOAT_EQ(vals[2].to_float(), 50.0f);
    EXPECT_FLOAT_EQ(vals[3].to_float(), 77.5f);
}

TEST(DotEngine, TreeSumSmall) {
    std::vector<Fp16> v;
    for (const float f : {1.0f, 2.0f, 3.0f, 4.0f, 5.0f}) v.push_back(Fp16::from_float(f));
    EXPECT_FLOAT_EQ(DotEngine::tree_sum(v).to_float(), 15.0f);
}

TEST(DotEngine, TreeSumEmptyAndSingle) {
    EXPECT_TRUE(DotEngine::tree_sum({}).is_zero());
    const std::vector<Fp16> one{Fp16::from_float(-2.5f)};
    EXPECT_FLOAT_EQ(DotEngine::tree_sum(one).to_float(), -2.5f);
}

TEST(DotEngine, TreeSumIsDeterministicBinaryTree) {
    // The tree reduction order is fixed — the same inputs must give
    // bit-identical results run to run (RTL equivalence requirement).
    Xoshiro256 rng(2);
    std::vector<Fp16> v(128);
    for (auto& x : v) x = Fp16::from_float(static_cast<float>(rng.gaussian()));
    const Fp16 a = DotEngine::tree_sum(v);
    const Fp16 b = DotEngine::tree_sum(v);
    EXPECT_EQ(a.bits(), b.bits());
}

TEST(DotEngine, Dot128CloseToFloat) {
    Xoshiro256 rng(3);
    std::vector<Fp16> a(128), b(128);
    double exact = 0;
    for (std::size_t i = 0; i < 128; ++i) {
        a[i] = Fp16::from_float(static_cast<float>(rng.gaussian(0, 0.1)));
        b[i] = Fp16::from_float(static_cast<float>(rng.gaussian(0, 0.1)));
        exact += static_cast<double>(a[i].to_float()) * b[i].to_float();
    }
    EXPECT_NEAR(DotEngine::dot128(a, b).to_float(), exact, 0.02);
}

TEST(DotEngine, DotHandlesNonMultipleLengths) {
    std::vector<Fp16> a(200, Fp16::one()), b(200, Fp16::one());
    EXPECT_FLOAT_EQ(DotEngine::dot(a, b).to_float(), 200.0f);
}

TEST(DotEngine, GemvMatchesQuantizedReference) {
    // The full path: quantize -> pack stream -> VPU gemv must match the
    // scalar dequantized GEMV within fp16 accumulation error.
    Xoshiro256 rng(4);
    const std::size_t rows = 8, cols = 512;
    std::vector<float> w(rows * cols);
    for (auto& v : w) v = static_cast<float>(rng.gaussian(0.0, 0.05));
    const auto q = quant::QuantizedLinear::quantize(w, rows, cols, {});
    const auto stream = quant::pack_weight_stream(q);

    std::vector<float> xf(cols);
    for (auto& v : xf) v = static_cast<float>(rng.gaussian(0.0, 0.5));
    const auto x = to_fp16(xf);

    std::vector<Fp16> y(rows);
    DotEngine::gemv(stream, rows, cols, x, y);
    const auto y_ref = q.gemv_reference(to_float(x));
    for (std::size_t r = 0; r < rows; ++r) {
        EXPECT_NEAR(y[r].to_float(), y_ref[r], 0.05f + 0.02f * std::abs(y_ref[r])) << r;
    }
}

TEST(DotEngine, GemvCycles) {
    EXPECT_EQ(DotEngine::gemv_cycles(4096, 4096), 4096u * 32);
    EXPECT_EQ(DotEngine::gemv_cycles(128, 128), 128u);
}

TEST(Fp16Bridge, RoundTrips) {
    const std::vector<float> xs{0.0f, 1.0f, -2.5f, 100.0f};
    const auto h = to_fp16(xs);
    const auto back = to_float(h);
    for (std::size_t i = 0; i < xs.size(); ++i) EXPECT_FLOAT_EQ(back[i], xs[i]);
}

// ---- vector kernel == scalar reference --------------------------------------

// A random fp16 lane: N(0, sigma) most of the time, otherwise (with
// probability `special_pct` %) ±inf, a NaN, a subnormal, or a magnitude near
// 65504 so products and tree nodes overflow. NaNs are negative unless
// `both_nan_signs`: x86's own NaNs (inf - inf, 0 · inf) are negative and
// every op keeps a NaN operand's sign, so one sign makes every output bit
// independent of operand order.
Fp16 random_lane(Xoshiro256& rng, double sigma, std::uint64_t special_pct,
                 bool both_nan_signs = false) {
    if (rng.below(100) >= special_pct) {
        return Fp16::from_float(static_cast<float>(rng.gaussian(0.0, sigma)));
    }
    const std::uint16_t sign = rng.below(2) ? 0x8000 : 0x0000;
    switch (rng.below(4)) {
        case 0:
            return Fp16::from_bits(static_cast<std::uint16_t>(sign | 0x7C00));
        case 1: {
            // Quiet or signaling, with a payload.
            const std::uint16_t nan_sign = both_nan_signs ? sign : 0x8000;
            const auto payload = static_cast<std::uint16_t>(1 + rng.below(0x3FF));
            return Fp16::from_bits(static_cast<std::uint16_t>(nan_sign | 0x7C00 | payload));
        }
        case 2:
            return Fp16::from_bits(static_cast<std::uint16_t>(sign | (1 + rng.below(0x3FF))));
        default:
            return Fp16::from_float((sign ? -1.0f : 1.0f) *
                                    static_cast<float>(rng.uniform(2e4, 65504.0)));
    }
}

std::vector<Fp16> random_lanes(Xoshiro256& rng, std::size_t n, double sigma,
                               std::uint64_t special_pct, bool both_nan_signs = false) {
    std::vector<Fp16> v(n);
    for (auto& x : v) x = random_lane(rng, sigma, special_pct, both_nan_signs);
    return v;
}

// Runs `f` once per lane kernel; returns {scalar reference, vector}.
template <typename F>
auto both_kernels(F&& f) {
    decltype(f()) ref, vec;
    {
        const ScopedLaneKernel pin(LaneKernel::kScalar);
        ref = f();
    }
    {
        const ScopedLaneKernel pin(LaneKernel::kVector);
        vec = f();
    }
    return std::make_pair(ref, vec);
}

class VectorKernel : public ::testing::Test {
protected:
    void SetUp() override {
        if (!vector_kernel_supported()) GTEST_SKIP() << "CPU lacks AVX2/F16C";
    }
};

TEST_F(VectorKernel, IsTheDefaultWhenSupported) {
    EXPECT_EQ(active_lane_kernel(), LaneKernel::kVector);
    {
        const ScopedLaneKernel pin(LaneKernel::kScalar);
        EXPECT_EQ(active_lane_kernel(), LaneKernel::kScalar);
    }
    EXPECT_EQ(active_lane_kernel(), LaneKernel::kVector);
}

TEST_F(VectorKernel, TreeSumAndDotAreBitIdenticalToScalar) {
    Xoshiro256 rng(11);
    for (int trial = 0; trial < 3000; ++trial) {
        const std::size_t n = rng.below(300);
        const std::uint64_t special = trial % 3 == 0 ? 0 : (trial % 3 == 1 ? 2 : 15);
        const auto a = random_lanes(rng, n, 1.0, special);
        const auto b = random_lanes(rng, n, 4.0, special);
        const std::size_t n128 = std::min<std::size_t>(n, kVpuLanes);
        const std::span<const Fp16> a128(a.data(), n128), b128(b.data(), n128);

        const auto [t_ref, t_vec] = both_kernels([&] { return DotEngine::tree_sum(a); });
        const auto [d_ref, d_vec] = both_kernels([&] { return DotEngine::dot(a, b); });
        const auto [w_ref, w_vec] = both_kernels([&] { return DotEngine::dot128(a128, b128); });
        ASSERT_EQ(t_vec.bits(), t_ref.bits()) << "tree_sum n=" << n << " trial " << trial;
        ASSERT_EQ(d_vec.bits(), d_ref.bits()) << "dot n=" << n << " trial " << trial;
        ASSERT_EQ(w_vec.bits(), w_ref.bits()) << "dot128 n=" << n128 << " trial " << trial;
    }
}

TEST_F(VectorKernel, GemvIsBitIdenticalToScalar) {
    // Shapes with one and several groups per row, and enough groups for full
    // and partial 128-group chunks and 32-group scale blocks.
    Xoshiro256 rng(12);
    const std::pair<std::size_t, std::size_t> shapes[] = {
        {1, 128}, {3, 256}, {8, 640}, {130, 128}, {37, 384}, {96, 256}};
    for (const auto& [rows, cols] : shapes) {
        for (const std::uint64_t special : {0u, 1u, 10u}) {
            const std::size_t groups = rows * cols / kVpuLanes;
            std::vector<std::uint8_t> codes(rows * cols), zeros(groups);
            for (auto& c : codes) c = static_cast<std::uint8_t>(rng.below(16));
            for (auto& z : zeros) z = static_cast<std::uint8_t>(rng.below(16));
            const auto scales = random_lanes(rng, groups, 0.02, special);
            const auto layer = quant::QuantizedLinear::from_parts(codes, scales, zeros, rows,
                                                                  cols, {});
            const auto stream = quant::pack_weight_stream(layer);
            const auto x = random_lanes(rng, cols, 2.0, special);

            const auto [ref, vec] = both_kernels([&] {
                std::vector<Fp16> y(rows);
                DotEngine::gemv(stream, rows, cols, x, y);
                return y;
            });
            for (std::size_t r = 0; r < rows; ++r) {
                ASSERT_EQ(vec[r].bits(), ref[r].bits())
                    << rows << "x" << cols << " special " << special << "% row " << r;
            }
        }
    }
}

TEST_F(VectorKernel, NanSignIsTheOnlyFreedomWithMixedSignNans) {
    // With NaNs of both signs, an add of two NaNs may keep either sign
    // depending on operand order; everything else must still match bit for
    // bit, and NaN-ness always.
    Xoshiro256 rng(13);
    for (int trial = 0; trial < 2000; ++trial) {
        const std::size_t n = 1 + rng.below(256);
        const auto a = random_lanes(rng, n, 1.0, 5, /*both_nan_signs=*/true);
        const auto b = random_lanes(rng, n, 1.0, 5, /*both_nan_signs=*/true);
        const auto [ref, vec] = both_kernels([&] { return DotEngine::dot(a, b); });
        if (ref.is_nan()) {
            ASSERT_TRUE(vec.is_nan()) << "trial " << trial;
        } else {
            ASSERT_EQ(vec.bits(), ref.bits()) << "trial " << trial;
        }
    }
}

TEST(LaneKernel, ScalarPinIsAlwaysHonoured) {
    const ScopedLaneKernel pin(LaneKernel::kScalar);
    EXPECT_EQ(active_lane_kernel(), LaneKernel::kScalar);
    {
        const ScopedLaneKernel inner(LaneKernel::kVector);
        EXPECT_EQ(active_lane_kernel(), vector_kernel_supported() ? LaneKernel::kVector
                                                                  : LaneKernel::kScalar);
    }
    EXPECT_EQ(active_lane_kernel(), LaneKernel::kScalar);
}

}  // namespace
}  // namespace efld::accel
