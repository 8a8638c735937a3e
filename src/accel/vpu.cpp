#include "accel/vpu.hpp"

#include <algorithm>
#include <atomic>

#include "common/check.hpp"

#if (defined(__GNUC__) || defined(__clang__)) && (defined(__x86_64__) || defined(__i386__))
#define EFLD_VPU_X86 1
#include <immintrin.h>
// The vector kernel is compiled for AVX2 + F16C whatever the build's -march,
// and only called after vector_kernel_supported() said the CPU has both.
#define EFLD_VPU_AVX2 __attribute__((target("avx2,f16c")))
#else
#define EFLD_VPU_X86 0
#endif

namespace efld::accel {

namespace {

// -1 when no ScopedLaneKernel is alive, else the pinned LaneKernel.
std::atomic<int> g_pinned_kernel{-1};

bool use_vector() noexcept { return active_lane_kernel() == LaneKernel::kVector; }

// Scratch for one reduction: on the stack up to one 128-lane wave.
template <typename T>
class LaneScratch {
public:
    explicit LaneScratch(std::size_t n) {
        if (n > kVpuLanes) heap_.resize(n);
    }
    T* data() noexcept { return heap_.empty() ? stack_.data() : heap_.data(); }

private:
    std::array<T, kVpuLanes> stack_;
    std::vector<T> heap_;
};

// ---- scalar reference ------------------------------------------------------

// In-place adder tree over v[0, n), n >= 1: each stage adds adjacent pairs
// (one rounded fp16 adder per node) into the front of the buffer; an odd
// last element passes through the stage unchanged.
Fp16 tree_scalar(Fp16* v, std::size_t n) noexcept {
    while (n > 1) {
        const std::size_t pairs = n / 2;
        for (std::size_t i = 0; i < pairs; ++i) v[i] = v[2 * i] + v[2 * i + 1];
        if (n % 2 == 1) v[pairs] = v[n - 1];
        n = pairs + n % 2;
    }
    return v[0];
}

Fp16 dot128_scalar(const Fp16* a, const Fp16* b, std::size_t n) noexcept {
    if (n == 0) return Fp16::zero();
    std::array<Fp16, kVpuLanes> prod;
    for (std::size_t i = 0; i < n; ++i) prod[i] = a[i] * b[i];
    return tree_scalar(prod.data(), n);
}

void gemv_scalar(std::span<const Word512> stream, std::size_t rows, std::size_t cols,
                 std::span<const Fp16> x, std::span<Fp16> y) {
    const std::size_t groups_per_row = cols / kVpuLanes;
    quant::WeightStreamDecoder dec(rows * groups_per_row);

    std::size_t group_index = 0;
    Fp16 acc = Fp16::zero();
    for (const Word512& word : stream) {
        const auto group = dec.consume_packed(word);
        if (!group) continue;
        const auto lanes = DequantUnit::run(word, group->scale, group->zero);

        const std::size_t col_base = (group_index % groups_per_row) * kVpuLanes;
        acc = acc + dot128_scalar(lanes.data(), x.data() + col_base, kVpuLanes);

        if ((group_index + 1) % groups_per_row == 0) {
            y[group_index / groups_per_row] = acc;
            acc = Fp16::zero();
        }
        ++group_index;
    }
    check(group_index == rows * groups_per_row, "DotEngine::gemv: stream too short");
}

// ---- vector kernel (AVX2 + F16C) ---------------------------------------------
//
// Lanes hold float32 copies of fp16 values; every op is followed by a round
// trip through half (RNE), exactly where the scalar reference rounds. NaN
// payloads may differ inside the kernel (F16C quiets and truncates them), but
// NaN-ness and sign do not, and results leave through Fp16::from_float, which
// canonicalizes NaNs like the reference.
#if EFLD_VPU_X86

EFLD_VPU_AVX2 inline __m256 round8(__m256 v) {
    return _mm256_cvtph_ps(_mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT));
}

EFLD_VPU_AVX2 inline __m128 round4(__m128 v) {
    return _mm_cvtph_ps(_mm_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT));
}

EFLD_VPU_AVX2 inline float round1(float v) {
    return _cvtsh_ss(_cvtss_sh(v, _MM_FROUND_TO_NEAREST_INT));
}

// One tree stage over 16 lanes: {a0+a1, a2+a3, ..., b6+b7}, rounded. hadd
// interleaves 128-bit halves; the 64-bit permute restores pair order.
EFLD_VPU_AVX2 inline __m256 pair_sums(__m256 a, __m256 b) {
    const __m256d h = _mm256_castps_pd(_mm256_hadd_ps(a, b));
    return round8(_mm256_castpd_ps(_mm256_permute4x64_pd(h, 0xD8)));
}

// The last three stages, 8 lanes -> 1.
EFLD_VPU_AVX2 inline float tree8(__m256 v) {
    __m128 s = round4(_mm_hadd_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1)));
    s = round4(_mm_hadd_ps(s, s));  // {s0+s1, s2+s3, ...}
    return round1(_mm_cvtss_f32(s) + _mm_cvtss_f32(_mm_shuffle_ps(s, s, 1)));
}

// tree_scalar over float lanes, 16 inputs per vector step.
EFLD_VPU_AVX2 float tree_vector(float* v, std::size_t n) {
    while (n > 1) {
        const std::size_t pairs = n / 2;
        std::size_t i = 0;
        for (; i + 8 <= pairs; i += 8) {
            const __m256 sums = pair_sums(_mm256_loadu_ps(v + 2 * i), _mm256_loadu_ps(v + 2 * i + 8));
            _mm256_storeu_ps(v + i, sums);
        }
        for (; i < pairs; ++i) v[i] = round1(v[2 * i] + v[2 * i + 1]);
        if (n % 2 == 1) v[pairs] = v[n - 1];
        n = pairs + n % 2;
    }
    return v[0];
}

EFLD_VPU_AVX2 void halfs_to_floats(const Fp16* h, std::size_t n, float* out) {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i bits = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + i));
        _mm256_storeu_ps(out + i, _mm256_cvtph_ps(bits));
    }
    for (; i < n; ++i) out[i] = _cvtsh_ss(h[i].bits());
}

// Rounded products a[i]·b[i] into `prod`, then the adder tree.
EFLD_VPU_AVX2 float dot128_vector(const Fp16* a, const Fp16* b, std::size_t n) {
    if (n == 0) return 0.0f;
    alignas(32) float fa[kVpuLanes];
    alignas(32) float fb[kVpuLanes];
    halfs_to_floats(a, n, fa);
    halfs_to_floats(b, n, fb);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        _mm256_store_ps(fa + i, round8(_mm256_mul_ps(_mm256_load_ps(fa + i), _mm256_load_ps(fb + i))));
    }
    for (; i < n; ++i) fa[i] = round1(fa[i] * fb[i]);
    return tree_vector(fa, n);
}

// dot128 waves into a rounded fp16 accumulator.
EFLD_VPU_AVX2 float dot_vector(const Fp16* a, const Fp16* b, std::size_t n) {
    float acc = 0.0f;
    for (std::size_t base = 0; base < n; base += kVpuLanes) {
        acc = round1(acc + dot128_vector(a + base, b + base, std::min(kVpuLanes, n - base)));
    }
    return acc;
}

EFLD_VPU_AVX2 void gemv_vector(std::span<const Word512> stream, std::size_t rows,
                               std::size_t cols, std::span<const Fp16> x,
                               std::span<Fp16> y) {
    std::vector<float> xf(cols);
    halfs_to_floats(x.data(), cols, xf.data());
    const std::size_t groups_per_row = cols / kVpuLanes;
    quant::WeightStreamDecoder dec(rows * groups_per_row);

    // Nibble j of a 32-bit slice of the word is lane j of an 8-lane vector.
    const __m256i shifts = _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28);
    const __m256i nibble_mask = _mm256_set1_epi32(0xF);
    std::size_t group_index = 0;
    float acc = 0.0f;
    for (const Word512& word : stream) {
        const auto group = dec.consume_packed(word);
        if (!group) continue;
        const __m256 scale = _mm256_set1_ps(_cvtsh_ss(group->scale.bits()));
        const __m256i zero = _mm256_set1_epi32(group->zero);
        const float* xs = xf.data() + (group_index % groups_per_row) * kVpuLanes;

        // Dequant (code - zero)·scale -> round -> ·x -> round, 8 lanes a step.
        __m256 p[kVpuLanes / 8];
        for (std::size_t k = 0; k < kVpuLanes / 8; ++k) {
            const auto slice = static_cast<std::uint32_t>(word.lanes[k / 2] >> (32 * (k % 2)));
            const __m256i codes = _mm256_and_si256(
                _mm256_srlv_epi32(_mm256_set1_epi32(static_cast<int>(slice)), shifts),
                nibble_mask);
            const __m256 w = round8(
                _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_sub_epi32(codes, zero)), scale));
            p[k] = round8(_mm256_mul_ps(w, _mm256_loadu_ps(xs + 8 * k)));
        }
        // Adder tree: 128 -> 64 -> 32 -> 16 -> 8 lanes in registers, then 1.
        for (std::size_t n = kVpuLanes / 8; n > 1; n /= 2) {
            for (std::size_t i = 0; i < n / 2; ++i) p[i] = pair_sums(p[2 * i], p[2 * i + 1]);
        }
        acc = round1(acc + tree8(p[0]));

        if ((group_index + 1) % groups_per_row == 0) {
            y[group_index / groups_per_row] = Fp16::from_float(acc);
            acc = 0.0f;
        }
        ++group_index;
    }
    check(group_index == rows * groups_per_row, "DotEngine::gemv: stream too short");
}

#endif  // EFLD_VPU_X86

}  // namespace

bool vector_kernel_supported() noexcept {
#if EFLD_VPU_X86
    static const bool supported = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c");
    }();
    return supported;
#else
    return false;
#endif
}

LaneKernel active_lane_kernel() noexcept {
    const int pinned = g_pinned_kernel.load();
    if (pinned >= 0) return static_cast<LaneKernel>(pinned);
    return vector_kernel_supported() ? LaneKernel::kVector : LaneKernel::kScalar;
}

ScopedLaneKernel::ScopedLaneKernel(LaneKernel k) noexcept
    : prev_(g_pinned_kernel.load()) {
    if (k == LaneKernel::kVector && !vector_kernel_supported()) k = LaneKernel::kScalar;
    g_pinned_kernel.store(static_cast<int>(k));
}

ScopedLaneKernel::~ScopedLaneKernel() {
    g_pinned_kernel.store(prev_);
}

std::array<Fp16, kVpuLanes> DequantUnit::run(const Word512& word, Fp16 scale,
                                             std::uint8_t zero) noexcept {
    std::array<Fp16, kVpuLanes> out;
    const float s = scale.to_float();
    const int z = zero;
    for (std::size_t i = 0; i < kVpuLanes; ++i) {
        // (code - zero) * scale, rounded once to fp16 — the hardware computes
        // this as a small integer subtract feeding an fp16 multiply.
        const int code = word.nibble(i);
        out[i] = Fp16::from_float(static_cast<float>(code - z) * s);
    }
    return out;
}

std::array<Fp16, kVpuLanes> DequantUnit::run(std::span<const std::uint8_t> codes,
                                             Fp16 scale, std::uint8_t zero) noexcept {
    std::array<Fp16, kVpuLanes> out{};
    const float s = scale.to_float();
    const int z = zero;
    const std::size_t n = std::min(codes.size(), kVpuLanes);
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = Fp16::from_float(static_cast<float>(static_cast<int>(codes[i]) - z) * s);
    }
    return out;
}

void DequantUnit::run_kv(std::span<const std::uint8_t> codes, quant::KvQuantParams params,
                         std::span<Fp16> out) noexcept {
    const float s = params.scale.to_float();
    const int z = params.zero;
    for (std::size_t i = 0; i < codes.size(); ++i) {
        out[i] = Fp16::from_float(static_cast<float>(static_cast<int>(codes[i]) - z) * s);
    }
}

Fp16 DotEngine::tree_sum(std::span<const Fp16> vals) noexcept {
    const std::size_t n = vals.size();
    if (n <= 1) return n == 0 ? Fp16::zero() : vals[0];
#if EFLD_VPU_X86
    if (use_vector()) {
        LaneScratch<float> buf(n);
        halfs_to_floats(vals.data(), n, buf.data());
        return Fp16::from_float(tree_vector(buf.data(), n));
    }
#endif
    LaneScratch<Fp16> buf(n);
    std::copy(vals.begin(), vals.end(), buf.data());
    return tree_scalar(buf.data(), n);
}

Fp16 DotEngine::dot128(std::span<const Fp16> a, std::span<const Fp16> b) noexcept {
    const std::size_t n = std::min({a.size(), b.size(), kVpuLanes});
#if EFLD_VPU_X86
    if (use_vector()) return Fp16::from_float(dot128_vector(a.data(), b.data(), n));
#endif
    return dot128_scalar(a.data(), b.data(), n);
}

Fp16 DotEngine::dot(std::span<const Fp16> a, std::span<const Fp16> b) noexcept {
    const std::size_t n = std::min(a.size(), b.size());
#if EFLD_VPU_X86
    if (use_vector()) return Fp16::from_float(dot_vector(a.data(), b.data(), n));
#endif
    Fp16 acc = Fp16::zero();
    for (std::size_t base = 0; base < n; base += kVpuLanes) {
        const std::size_t len = std::min(kVpuLanes, n - base);
        acc = acc + dot128_scalar(a.data() + base, b.data() + base, len);
    }
    return acc;
}

void DotEngine::gemv(std::span<const Word512> stream, std::size_t rows, std::size_t cols,
                     std::span<const Fp16> x, std::span<Fp16> y) {
    check(cols % kVpuLanes == 0, "DotEngine::gemv: cols must be a multiple of 128");
    check(x.size() == cols, "DotEngine::gemv: x size mismatch");
    check(y.size() == rows, "DotEngine::gemv: y size mismatch");
#if EFLD_VPU_X86
    if (use_vector()) return gemv_vector(stream, rows, cols, x, y);
#endif
    gemv_scalar(stream, rows, cols, x, y);
}

std::vector<Fp16> to_fp16(std::span<const float> x) {
    std::vector<Fp16> out(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = Fp16::from_float(x[i]);
    return out;
}

std::vector<float> to_float(std::span<const Fp16> x) {
    std::vector<float> out(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i].to_float();
    return out;
}

}  // namespace efld::accel
