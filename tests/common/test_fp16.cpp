// Bit-level tests of the IEEE binary16 soft float — the foundation of the
// accelerator's numerics.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/fp16.hpp"
#include "common/rng.hpp"

namespace efld {
namespace {

TEST(Fp16, KnownEncodings) {
    EXPECT_EQ(Fp16::from_float(0.0f).bits(), 0x0000);
    EXPECT_EQ(Fp16::from_float(-0.0f).bits(), 0x8000);
    EXPECT_EQ(Fp16::from_float(1.0f).bits(), 0x3C00);
    EXPECT_EQ(Fp16::from_float(-1.0f).bits(), 0xBC00);
    EXPECT_EQ(Fp16::from_float(2.0f).bits(), 0x4000);
    EXPECT_EQ(Fp16::from_float(0.5f).bits(), 0x3800);
    EXPECT_EQ(Fp16::from_float(65504.0f).bits(), 0x7BFF);  // max normal
    EXPECT_EQ(Fp16::from_float(-65504.0f).bits(), 0xFBFF);
}

TEST(Fp16, KnownDecodings) {
    EXPECT_FLOAT_EQ(Fp16::from_bits(0x3C00).to_float(), 1.0f);
    EXPECT_FLOAT_EQ(Fp16::from_bits(0x3555).to_float(), 0.333251953125f);
    EXPECT_FLOAT_EQ(Fp16::from_bits(0x0001).to_float(), 5.960464477539063e-8f);  // min subnormal
    EXPECT_FLOAT_EQ(Fp16::from_bits(0x03FF).to_float(), 6.097555160522461e-5f);  // max subnormal
    EXPECT_FLOAT_EQ(Fp16::from_bits(0x0400).to_float(), 6.103515625e-5f);        // min normal
}

TEST(Fp16, OverflowToInfinity) {
    EXPECT_TRUE(Fp16::from_float(65536.0f).is_inf());
    EXPECT_TRUE(Fp16::from_float(1e10f).is_inf());
    EXPECT_TRUE(Fp16::from_float(-1e10f).is_inf());
    EXPECT_TRUE(Fp16::from_float(-1e10f).sign());
    // 65520 is the rounding boundary: rounds up to inf.
    EXPECT_TRUE(Fp16::from_float(65520.0f).is_inf());
    // 65519 rounds down to max.
    EXPECT_EQ(Fp16::from_float(65519.0f).bits(), 0x7BFF);
}

TEST(Fp16, UnderflowToZero) {
    EXPECT_TRUE(Fp16::from_float(1e-10f).is_zero());
    EXPECT_TRUE(Fp16::from_float(-1e-10f).is_zero());
    EXPECT_TRUE(Fp16::from_float(-1e-10f).sign());  // signed zero preserved
}

TEST(Fp16, JustAboveHalfTheSmallestSubnormalRoundsUp) {
    // 2^-25 is the tie between 0 and the smallest subnormal 2^-24 (rounds to
    // the even 0); anything above it rounds up.
    EXPECT_EQ(float_to_half_bits(0x1.0p-25f), 0x0000);
    EXPECT_EQ(float_to_half_bits(0x1.000002p-25f), 0x0001);
    EXPECT_EQ(float_to_half_bits(-0x1.8p-25f), 0x8001);
    EXPECT_EQ(float_to_half_bits(0x1.fffffep-26f), 0x0000);
    EXPECT_EQ(Fp16::from_float(0x1.000002p-25f).bits(), 0x0001);
}

TEST(Fp16, NanPropagation) {
    const Fp16 nan = Fp16::from_float(std::numeric_limits<float>::quiet_NaN());
    EXPECT_TRUE(nan.is_nan());
    EXPECT_TRUE(std::isnan(nan.to_float()));
    EXPECT_FALSE(nan == nan);
    EXPECT_TRUE((nan + Fp16::one()).is_nan());
}

TEST(Fp16, RoundToNearestEven) {
    // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10: ties-to-even
    // keeps 1.0 (even mantissa).
    EXPECT_EQ(Fp16::from_float(1.0f + 0x1.0p-11f).bits(), 0x3C00);
    // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9: rounds to even
    // (mantissa 2).
    EXPECT_EQ(Fp16::from_float(1.0f + 3 * 0x1.0p-11f).bits(), 0x3C02);
    // Just above the halfway point rounds up.
    EXPECT_EQ(Fp16::from_float(1.0f + 0x1.2p-11f).bits(), 0x3C01);
}

TEST(Fp16, RoundTripAllFiniteBitPatterns) {
    // Every finite half value converts to float and back to the same bits —
    // float32 represents all half values exactly.
    for (std::uint32_t b = 0; b <= 0xFFFF; ++b) {
        const Fp16 h = Fp16::from_bits(static_cast<std::uint16_t>(b));
        if (h.is_nan()) continue;
        const Fp16 back = Fp16::from_float(h.to_float());
        EXPECT_EQ(back.bits(), h.bits()) << "bits=0x" << std::hex << b;
    }
}

TEST(Fp16, ConversionMatchesRoundTripProperty) {
    // For random floats within half range the stored value is within half an
    // ULP of the original (correct rounding).
    Xoshiro256 rng(42);
    for (int i = 0; i < 10000; ++i) {
        const float f = static_cast<float>(rng.uniform(-60000.0, 60000.0));
        const Fp16 h = Fp16::from_float(f);
        const float back = h.to_float();
        // ULP at |f|: 2^(floor(log2|f|) - 10).
        const float ulp =
            std::ldexp(1.0f, std::max(-14, std::ilogb(std::abs(f) + 1e-30f)) - 10);
        EXPECT_LE(std::abs(back - f), ulp * 0.5f + 1e-12f) << "f=" << f;
    }
}

TEST(Fp16, ArithmeticIsCorrectlyRounded) {
    Xoshiro256 rng(7);
    for (int i = 0; i < 10000; ++i) {
        const Fp16 a = Fp16::from_float(static_cast<float>(rng.uniform(-100.0, 100.0)));
        const Fp16 b = Fp16::from_float(static_cast<float>(rng.uniform(-100.0, 100.0)));
        // float32 computes the exact product/sum of two halves; rounding that
        // to half is the correctly rounded result.
        EXPECT_EQ((a + b).bits(), Fp16::from_float(a.to_float() + b.to_float()).bits());
        EXPECT_EQ((a * b).bits(), Fp16::from_float(a.to_float() * b.to_float()).bits());
    }
}

TEST(Fp16, ComparisonSemantics) {
    EXPECT_TRUE(Fp16::from_float(1.0f) < Fp16::from_float(2.0f));
    EXPECT_FALSE(Fp16::from_float(2.0f) < Fp16::from_float(1.0f));
    EXPECT_TRUE(Fp16::from_float(-2.0f) < Fp16::from_float(-1.0f));
    EXPECT_TRUE(Fp16::from_float(0.0f) == Fp16::from_float(-0.0f));
}

TEST(Fp16, NegationFlipsSignBitOnly) {
    const Fp16 x = Fp16::from_float(3.14f);
    EXPECT_EQ((-x).bits(), x.bits() ^ 0x8000);
    EXPECT_FLOAT_EQ((-x).to_float(), -x.to_float());
}

TEST(Fp16, Constants) {
    EXPECT_FLOAT_EQ(Fp16::one().to_float(), 1.0f);
    EXPECT_FLOAT_EQ(Fp16::max().to_float(), 65504.0f);
    EXPECT_FLOAT_EQ(Fp16::lowest().to_float(), -65504.0f);
    EXPECT_TRUE(Fp16::infinity().is_inf());
    EXPECT_FLOAT_EQ(Fp16::epsilon().to_float(), 0x1.0p-10f);
}

TEST(Fp16, SubnormalArithmetic) {
    const Fp16 tiny = Fp16::from_bits(0x0001);  // min subnormal
    const Fp16 sum = tiny + tiny;
    EXPECT_EQ(sum.bits(), 0x0002);
    EXPECT_EQ((tiny - tiny).bits(), 0x0000);
}

// ---- fast path == software reference ---------------------------------------
//
// Fp16::from_float/to_float run on F16C where the build targets it, and on
// the inline software converters otherwise; float_to_half_bits and
// half_bits_to_float are the reference either way.

std::uint32_t float_bits(float f) { return std::bit_cast<std::uint32_t>(f); }

void expect_from_float_matches_reference(std::uint32_t bits) {
    const float f = std::bit_cast<float>(bits);
    ASSERT_EQ(Fp16::from_float(f).bits(), float_to_half_bits(f))
        << "float bits 0x" << std::hex << bits;
}

TEST(Fp16Conversion, HalfToFloatMatchesReferenceOnAllHalves) {
    // Every one of the 2^16 patterns, signaling NaNs included: the reference
    // keeps an sNaN's quiet bit clear, and so must the fast path.
    for (std::uint32_t b = 0; b <= 0xFFFF; ++b) {
        const auto h = static_cast<std::uint16_t>(b);
        ASSERT_EQ(float_bits(Fp16::from_bits(h).to_float()), float_bits(half_bits_to_float(h)))
            << "half bits 0x" << std::hex << b;
    }
    EXPECT_EQ(float_bits(Fp16::from_bits(0x7C01).to_float()), 0x7F80'2000u);  // sNaN kept
    EXPECT_EQ(float_bits(Fp16::from_bits(0xFE00).to_float()), 0xFFC0'0000u);
}

TEST(Fp16Conversion, FloatToHalfMatchesReferenceOnStridedSweep) {
    // About a million floats spread over all 2^32 patterns; the prime stride
    // walks through every exponent with varied low mantissa bits.
    // bench_micro_kernels --full-fp16-sweep checks all 2^32.
    constexpr std::uint64_t kStride = 4093;
    for (std::uint64_t b = 0; b <= 0xFFFF'FFFFull; b += kStride) {
        expect_from_float_matches_reference(static_cast<std::uint32_t>(b));
    }
}

TEST(Fp16Conversion, FloatToHalfMatchesReferenceAtEveryRoundingEdge) {
    // For every sign and exponent (normals, subnormals, inf/NaN), mantissas
    // around each bit position: 2^s - 1, 2^s, 2^s + 1 and the odd multiples
    // 3·2^s ± 1. Whatever the exponent, the half rounding point lies at one of
    // these positions, so this hits every halfway tie (with an even and an
    // odd kept bit), just-below and just-above it, the subnormal shifts, the
    // overflow edge, and NaN payloads with high, low and no quiet bits.
    for (std::uint32_t sign = 0; sign < 2; ++sign) {
        for (std::uint32_t exp = 0; exp < 256; ++exp) {
            std::vector<std::uint32_t> mants{0, 0x7F'FFFF};
            for (std::uint32_t s = 0; s < 23; ++s) {
                for (const std::uint32_t m : {(1u << s) - 1, 1u << s, (1u << s) + 1,
                                              (3u << s) - 1, 3u << s, (3u << s) + 1}) {
                    mants.push_back(m & 0x7F'FFFF);
                }
            }
            for (const std::uint32_t m : mants) {
                expect_from_float_matches_reference((sign << 31) | (exp << 23) | m);
            }
        }
    }
}

TEST(Fp16Conversion, FloatToHalfMatchesReferenceBetweenAdjacentHalves) {
    // Every finite half, the exact midpoint to its successor (a tie), and the
    // floats one ulp either side of that midpoint.
    for (std::uint32_t b = 0; b < 0x7C00; ++b) {
        for (const std::uint32_t sign : {0u, 0x8000u}) {
            const float lo = half_bits_to_float(static_cast<std::uint16_t>(sign | b));
            const float hi = half_bits_to_float(static_cast<std::uint16_t>(sign | (b + 1)));
            const float mid = lo + (hi - lo) / 2;
            for (const float f : {lo, mid, std::nextafter(mid, lo), std::nextafter(mid, hi)}) {
                expect_from_float_matches_reference(float_bits(f));
            }
        }
    }
}

TEST(Fp16Conversion, NanResultsAreCanonical) {
    // F16C would keep a truncated payload (0x7FFF here); the reference
    // returns sign | 0x7E00 for every NaN, signaling or quiet.
    EXPECT_EQ(Fp16::from_float(std::bit_cast<float>(0x7FFF'FFFFu)).bits(), 0x7E00);
    EXPECT_EQ(Fp16::from_float(std::bit_cast<float>(0xFF80'0001u)).bits(), 0xFE00);
    EXPECT_EQ(Fp16::from_float(std::bit_cast<float>(0x7FA0'0000u)).bits(), 0x7E00);
}

TEST(Fp16Conversion, ArithmeticMatchesReferenceFormula) {
    // Each op is reference-convert, float32 op, reference-round. Operands
    // cover every half pattern on one side and special values on the other;
    // when both operands are NaN, which NaN's sign survives depends on
    // operand order in the generated code, so only NaN-ness is compared.
    const std::uint16_t specials[] = {0x0000, 0x8000, 0x0001, 0x83FF, 0x0400, 0x3C00,
                                      0xBC01, 0x7BFF, 0xFBFF, 0x7C00, 0xFC00, 0x7E00,
                                      0xFC01, 0x5A3B, 0x1234};
    for (std::uint32_t ab = 0; ab <= 0xFFFF; ++ab) {
        const auto a = static_cast<std::uint16_t>(ab);
        for (const std::uint16_t b : specials) {
            const float fa = half_bits_to_float(a);
            const float fb = half_bits_to_float(b);
            const Fp16 ha = Fp16::from_bits(a);
            const Fp16 hb = Fp16::from_bits(b);
            const std::pair<Fp16, std::uint16_t> results[] = {
                {ha + hb, float_to_half_bits(fa + fb)},
                {ha - hb, float_to_half_bits(fa - fb)},
                {ha * hb, float_to_half_bits(fa * fb)},
                {ha / hb, float_to_half_bits(fa / fb)},
            };
            for (const auto& [got, want] : results) {
                if (ha.is_nan() && hb.is_nan()) {
                    ASSERT_TRUE(got.is_nan());
                } else {
                    ASSERT_EQ(got.bits(), want)
                        << std::hex << "a=0x" << a << " b=0x" << b;
                }
            }
        }
    }
}

}  // namespace
}  // namespace efld
