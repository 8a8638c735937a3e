// IEEE 754 binary16 ("half") floating point for the VPU emulation.
//
// The paper's VPU computes in FP16 on the FPGA fabric (multipliers, adder
// tree, accumulator). To make the simulator bit-comparable with such a
// datapath, every arithmetic operation converts both operands to float32,
// computes there, and rounds the result back to binary16 with
// round-to-nearest-even. float32's 24-bit significand is at least 2·11+2
// bits, so that double rounding is harmless: the result equals what a
// correctly rounded FP16 FPU produces for +, -, *, /.
//
// How it executes: everything is inline. Where the compiler targets F16C
// (`__F16C__`, e.g. -march=native on x86-64) the two conversions are single
// vcvtps2ph/vcvtph2ps instructions; otherwise they are the software
// converters `float_to_half_bits`/`half_bits_to_float` below, which stay the
// reference on every build. The hardware path returns the reference's bits
// on every input: F16C agrees on every non-NaN value, and its two NaN
// differences are canonicalized away —
//   - float -> half keeps a truncated NaN payload; the reference returns
//     sign | 0x7E00;
//   - half -> float quiets a signaling NaN; the reference keeps it.
// tests/common/test_fp16.cpp checks this over all 2^16 halves and a strided
// sweep of the 2^32 floats (bench_micro_kernels runs the full sweep).
#pragma once

#include <bit>
#include <cstdint>
#include <iosfwd>

#if defined(__F16C__)
#include <immintrin.h>
#endif

namespace efld {

// Software conversion primitives: the bit-level reference for every
// conversion (also used by packing code and tests).
[[nodiscard]] inline std::uint16_t float_to_half_bits(float f) noexcept {
    const std::uint32_t x = std::bit_cast<std::uint32_t>(f);
    const std::uint32_t sign = (x & 0x8000'0000u) >> 16;
    const std::uint32_t absx = x & 0x7FFF'FFFFu;

    if ((x & 0x7F80'0000u) == 0x7F80'0000u) {
        // Inf or NaN. Preserve NaN-ness with a quiet mantissa bit.
        if (absx > 0x7F80'0000u) {
            return static_cast<std::uint16_t>(sign | 0x7E00u);
        }
        return static_cast<std::uint16_t>(sign | 0x7C00u);
    }

    // Overflow to infinity: anything >= 2^16 - 2^4 (half max + 1/2 ulp).
    // Values in [65504 + 16, 65536) also round to inf; the generic path below
    // covers them because the exponent arithmetic carries.
    if (absx >= 0x4780'0000u) {  // 65536.0f
        return static_cast<std::uint16_t>(sign | 0x7C00u);
    }

    const std::int32_t exp32 = static_cast<std::int32_t>((absx >> 23) & 0xFF) - 127;
    if (exp32 < -25) {
        // Below half the smallest subnormal (2^-25): rounds to signed zero.
        return static_cast<std::uint16_t>(sign);
    }

    if (exp32 < -14) {
        // Subnormal half. Shift the (implicit-1) mantissa right with RNE;
        // [2^-25, 2^-24) rounds to zero on the exact tie and to the smallest
        // subnormal above it.
        const std::uint32_t mant = (absx & 0x007F'FFFFu) | 0x0080'0000u;
        const int shift = -exp32 - 14 + 13;  // 14..24
        const std::uint32_t half_mant = mant >> shift;
        const std::uint32_t rem = mant & ((1u << shift) - 1u);
        const std::uint32_t halfway = 1u << (shift - 1);
        std::uint32_t rounded = half_mant;
        if (rem > halfway || (rem == halfway && (half_mant & 1u))) {
            ++rounded;
        }
        return static_cast<std::uint16_t>(sign | rounded);
    }

    // Normal half. Round the 23-bit mantissa to 10 bits with RNE, letting the
    // carry propagate into the exponent (this also produces inf for values in
    // (65504, 65520]).
    std::uint32_t half = ((static_cast<std::uint32_t>(exp32 + 15) << 10) |
                          ((absx >> 13) & 0x03FFu));
    const std::uint32_t rem = absx & 0x1FFFu;
    if (rem > 0x1000u || (rem == 0x1000u && (half & 1u))) {
        ++half;
    }
    return static_cast<std::uint16_t>(sign | half);
}

[[nodiscard]] inline float half_bits_to_float(std::uint16_t h) noexcept {
    const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
    const std::uint32_t exp = (h >> 10) & 0x1Fu;
    const std::uint32_t mant = h & 0x03FFu;

    std::uint32_t out;
    if (exp == 0) {
        if (mant == 0) {
            out = sign;  // signed zero
        } else {
            // Subnormal: normalize into a float32 normal.
            int e = -1;
            std::uint32_t m = mant;
            do {
                ++e;
                m <<= 1;
            } while ((m & 0x0400u) == 0);
            out = sign | (static_cast<std::uint32_t>(127 - 15 - e) << 23) |
                  ((m & 0x03FFu) << 13);
        }
    } else if (exp == 0x1Fu) {
        out = sign | 0x7F80'0000u | (mant << 13);  // inf, or NaN keeping its payload
    } else {
        out = sign | ((exp + 127 - 15) << 23) | (mant << 13);
    }
    return std::bit_cast<float>(out);
}

class Fp16 {
public:
    constexpr Fp16() = default;

    // Named constructors keep implicit conversions out of user code.
    [[nodiscard]] static Fp16 from_float(float f) noexcept {
#if defined(__F16C__)
        auto h = static_cast<std::uint16_t>(_cvtss_sh(f, _MM_FROUND_TO_NEAREST_INT));
        if ((h & 0x7FFFu) > 0x7C00u) [[unlikely]] {
            h = static_cast<std::uint16_t>((h & 0x8000u) | 0x7E00u);
        }
        return from_bits(h);
#else
        return from_bits(float_to_half_bits(f));
#endif
    }
    [[nodiscard]] static constexpr Fp16 from_bits(std::uint16_t b) noexcept {
        Fp16 h;
        h.bits_ = b;
        return h;
    }

    [[nodiscard]] float to_float() const noexcept {
#if defined(__F16C__)
        if (is_nan()) [[unlikely]] return half_bits_to_float(bits_);
        return _cvtsh_ss(bits_);
#else
        return half_bits_to_float(bits_);
#endif
    }
    [[nodiscard]] constexpr std::uint16_t bits() const noexcept { return bits_; }

    [[nodiscard]] constexpr bool is_nan() const noexcept {
        return (bits_ & 0x7C00u) == 0x7C00u && (bits_ & 0x03FFu) != 0;
    }
    [[nodiscard]] constexpr bool is_inf() const noexcept {
        return (bits_ & 0x7FFFu) == 0x7C00u;
    }
    [[nodiscard]] constexpr bool is_zero() const noexcept {
        return (bits_ & 0x7FFFu) == 0;
    }
    [[nodiscard]] constexpr bool sign() const noexcept { return (bits_ & 0x8000u) != 0; }

    // Correctly rounded FP16 arithmetic: exact-enough float32 op, one RNE
    // rounding back to half.
    friend Fp16 operator+(Fp16 a, Fp16 b) noexcept {
        return from_float(a.to_float() + b.to_float());
    }
    friend Fp16 operator-(Fp16 a, Fp16 b) noexcept {
        return from_float(a.to_float() - b.to_float());
    }
    friend Fp16 operator*(Fp16 a, Fp16 b) noexcept {
        return from_float(a.to_float() * b.to_float());
    }
    friend Fp16 operator/(Fp16 a, Fp16 b) noexcept {
        return from_float(a.to_float() / b.to_float());
    }
    Fp16 operator-() const noexcept { return from_bits(static_cast<std::uint16_t>(bits_ ^ 0x8000u)); }

    friend bool operator==(Fp16 a, Fp16 b) noexcept {
        if (a.is_nan() || b.is_nan()) return false;
        if (a.is_zero() && b.is_zero()) return true;  // +0 == -0
        return a.bits() == b.bits();
    }
    friend bool operator<(Fp16 a, Fp16 b) noexcept {
        if (a.is_nan() || b.is_nan()) return false;
        return a.to_float() < b.to_float();
    }

    static constexpr Fp16 zero() noexcept { return from_bits(0x0000); }
    static constexpr Fp16 one() noexcept { return from_bits(0x3C00); }
    static constexpr Fp16 infinity() noexcept { return from_bits(0x7C00); }
    static constexpr Fp16 neg_infinity() noexcept { return from_bits(0xFC00); }
    static constexpr Fp16 lowest() noexcept { return from_bits(0xFBFF); }   // -65504
    static constexpr Fp16 max() noexcept { return from_bits(0x7BFF); }      // +65504
    static constexpr Fp16 epsilon() noexcept { return from_bits(0x1400); }  // 2^-10

private:
    std::uint16_t bits_ = 0;
};

std::ostream& operator<<(std::ostream& os, Fp16 h);

}  // namespace efld
