// Vector Processing Unit: on-the-fly dequantization + 128-lane FP16 dot
// engine (Fig. 5B).
//
// The VPU is deliberately a *vector* engine, not a matrix engine: during
// decoding every weight is used exactly once, so compute only needs to keep
// pace with the 512-bit weight stream — 128 dequantized fp16 values per
// clock. It consists of the dequant stage (512b -> 2048b), 128 fp16
// multipliers, a binary adder tree, a scaling multiplier and an accumulator.
// All arithmetic is correctly rounded fp16, so results are bit-comparable to
// an RTL FP16 datapath with the same reduction order.
//
// How it executes: every lane op is "float32 op, round to half" (see
// common/fp16.hpp), so the lanes run as float32 SIMD with a vcvtps2ph /
// vcvtph2ps round trip after each multiply and each adder-tree node. On
// x86-64 CPUs with AVX2 + F16C (checked once at run time; the kernel is
// compiled for that target even in portable builds) DotEngine processes 8
// lanes per instruction: dequant (code - zero)·scale -> round -> ·x -> round,
// then each tree stage as pairwise adds (hadd + permute keeps the pair order)
// rounded per node. Elsewhere the scalar Fp16 loop runs. Rounding the same
// float32 results at the same nodes gives the same bits, and the scalar loop
// stays in the binary as the reference that tests and bench_host_decode
// compare the vector kernel against.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/bitpack.hpp"
#include "common/fp16.hpp"
#include "quant/kvquant.hpp"
#include "quant/weight_format.hpp"

namespace efld::accel {

inline constexpr std::size_t kVpuLanes = 128;

// 512b weight word + group scale/zero -> 128 fp16 lanes.
class DequantUnit {
public:
    [[nodiscard]] static std::array<Fp16, kVpuLanes> run(const Word512& word, Fp16 scale,
                                                         std::uint8_t zero) noexcept;

    // Same dequantization over already-demultiplexed 4-bit codes.
    [[nodiscard]] static std::array<Fp16, kVpuLanes> run(
        std::span<const std::uint8_t> codes, Fp16 scale, std::uint8_t zero) noexcept;

    // KV8 variant: one fp16 per 8-bit code, written to out[0, codes.size()).
    static void run_kv(std::span<const std::uint8_t> codes, quant::KvQuantParams params,
                       std::span<Fp16> out) noexcept;
};

// Which implementation executes DotEngine's lane arithmetic. Both give the
// same bits; kScalar is the reference.
enum class LaneKernel : std::uint8_t { kScalar, kVector };

// True when this CPU runs the vector kernel (x86-64 with AVX2 and F16C).
[[nodiscard]] bool vector_kernel_supported() noexcept;

// The kernel DotEngine uses: kVector when supported, unless a
// ScopedLaneKernel pins another one.
[[nodiscard]] LaneKernel active_lane_kernel() noexcept;

// Pins the process-wide lane kernel for its lifetime, so the scalar reference
// and the vector kernel can be compared and timed in one binary. Pinning
// kVector on a CPU without AVX2/F16C pins kScalar.
class ScopedLaneKernel {
public:
    explicit ScopedLaneKernel(LaneKernel k) noexcept;
    ~ScopedLaneKernel();
    ScopedLaneKernel(const ScopedLaneKernel&) = delete;
    ScopedLaneKernel& operator=(const ScopedLaneKernel&) = delete;

private:
    int prev_;
};

class DotEngine {
public:
    // Binary-tree fp16 reduction (the hardware adder tree). Length need not
    // be a power of two; odd elements pass through a stage unchanged.
    [[nodiscard]] static Fp16 tree_sum(std::span<const Fp16> vals) noexcept;

    // One cycle of the engine: elementwise multiply + tree reduce.
    [[nodiscard]] static Fp16 dot128(std::span<const Fp16> a, std::span<const Fp16> b) noexcept;

    // Accumulating dot over arbitrary-length fp16 vectors, processed in
    // 128-lane waves exactly as the hardware would.
    [[nodiscard]] static Fp16 dot(std::span<const Fp16> a, std::span<const Fp16> b) noexcept;

    // Full GEMV over a packed weight stream: y[rows] = W x.
    // Walks the Fig. 4A stream through a WeightStreamDecoder, dequantizes
    // group by group and accumulates per output row in fp16.
    static void gemv(std::span<const Word512> stream, std::size_t rows, std::size_t cols,
                     std::span<const Fp16> x, std::span<Fp16> y);

    // Cycle cost of that GEMV: one group per clock, fully pipelined.
    [[nodiscard]] static std::uint64_t gemv_cycles(std::size_t rows, std::size_t cols) noexcept {
        return rows * (cols / kVpuLanes);
    }
};

// Helpers bridging float vectors and fp16 lanes.
[[nodiscard]] std::vector<Fp16> to_fp16(std::span<const float> x);
[[nodiscard]] std::vector<float> to_float(std::span<const Fp16> x);

}  // namespace efld::accel
