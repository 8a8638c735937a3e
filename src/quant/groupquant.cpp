#include "quant/groupquant.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.hpp"
#include "common/threadpool.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace efld::quant {

namespace {

// Fixed combine order of the partial lanes (the adder-tree reduction of the
// GEMV accumulation contract). Every GEMV variant must use exactly this.
inline float lane_tree_sum(const float p[kGemvLanes]) noexcept {
    return ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]));
}

// The fast paths keep the kGemvLanes partial sums in SIMD registers where the
// compiler supports it: each SIMD lane IS a contract lane, every lane
// performs the same correctly-rounded convert/mul/add sequence as the scalar
// code, so results stay bit-for-bit identical to the oracle (FMA contraction
// is disabled project-wide). Registers are the target's native width — one
// 8-float register with AVX, two 4-float ones without — so the partial sums
// stay in registers rather than in a wider vector the compiler would emulate
// through the stack.
#if defined(__GNUC__) || defined(__clang__)
#define EFLD_GEMV_VECTOR 1
#if defined(__AVX__)
inline constexpr std::size_t kVecLanes = 8;
#else
inline constexpr std::size_t kVecLanes = 4;
#endif
typedef float Vf __attribute__((vector_size(kVecLanes * sizeof(float))));
typedef int Vi __attribute__((vector_size(kVecLanes * sizeof(int))));
typedef unsigned Vu __attribute__((vector_size(kVecLanes * sizeof(unsigned))));

// The partial sums of one (row, column): contract lane k is element
// k % kVecLanes of register k / kVecLanes.
struct Partials {
    Vf v[kGemvLanes / kVecLanes];
};

inline float lane_tree_sum(const Partials& p) noexcept {
    const auto l = [&p](std::size_t k) { return p.v[k / kVecLanes][k % kVecLanes]; };
    return ((l(0) + l(1)) + (l(2) + l(3))) + ((l(4) + l(5)) + (l(6) + l(7)));
}

#if defined(__SSE2__) && !defined(__AVX__)
// The low four bytes of `v` zero-extended to ints: baseline x86-64 has no
// widening byte load, so interleave with zeros.
inline Vi widen_bytes(__m128i v) noexcept {
    const __m128i zero = _mm_setzero_si128();
    const __m128i w = _mm_unpacklo_epi16(_mm_unpacklo_epi8(v, zero), zero);
    Vi out;
    std::memcpy(&out, &w, sizeof out);
    return out;
}
#endif

// code[0..kVecLanes) - z.
inline Vf centered_bytes(const std::uint8_t* code, const Vi& zv) noexcept {
#if defined(__AVX__)
    const Vi c = {code[0], code[1], code[2], code[3], code[4], code[5], code[6], code[7]};
#elif defined(__SSE2__)
    std::int32_t four;
    std::memcpy(&four, code, sizeof four);
    const Vi c = widen_bytes(_mm_cvtsi32_si128(four));
#else
    const Vi c = {code[0], code[1], code[2], code[3]};
#endif
    return __builtin_convertvector(c - zv, Vf);
}

// Nibbles [0, kVecLanes) of `bits` - z, nibble k on lane k.
inline Vf centered_nibbles(std::uint64_t bits, const Vi& zv) noexcept {
#if defined(__SSE2__) && !defined(__AVX__)
    // No per-lane shifts: split each byte into its two nibbles, interleaved.
    const __m128i v = _mm_cvtsi32_si128(static_cast<int>(bits & 0xFFFF));
    const __m128i mask = _mm_set1_epi8(0x0F);
    const Vi c = widen_bytes(
        _mm_unpacklo_epi8(_mm_and_si128(v, mask), _mm_and_si128(_mm_srli_epi16(v, 4), mask)));
#else
    Vu shift;
    for (std::size_t k = 0; k < kVecLanes; ++k) shift[k] = static_cast<unsigned>(4 * k);
    const Vi c = __builtin_convertvector(
        ((Vu{} + static_cast<unsigned>(bits)) >> shift) & 0xFu, Vi);
#endif
    return __builtin_convertvector(c - zv, Vf);
}

// Adds d * x_b to the register holding contract lanes [e, e + kVecLanes) of
// each of the NB columns of a tile, `stride` floats apart: one decoded code
// vector feeds every column before the next is decoded.
template <std::size_t NB>
inline void accumulate(Partials (&p)[NB], std::size_t e, const Vf& d, const float* x,
                       std::size_t stride) noexcept {
    for (std::size_t b = 0; b < NB; ++b) {
        Vf xv;
        std::memcpy(&xv, x + b * stride, sizeof xv);
        p[b].v[e / kVecLanes] += d * xv;
    }
}
#endif

// One fused GEMM call: the layer's weights (byte codes, or the packed nibble
// stream when `words` is set), X as [batch][cols], Y as [batch][rows].
struct GemmArgs {
    const std::uint8_t* codes = nullptr;
    const Word512* words = nullptr;
    const Fp16* scales = nullptr;
    const std::uint8_t* zeros = nullptr;
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::size_t group_size = 0;
    const float* x = nullptr;
    std::size_t batch = 0;
    float* y = nullptr;
};

// Rows [row_begin, row_end) of one batch tile of NB columns (x, y point at
// the tile's first column). Each (row, column) pair runs the per-row GEMV
// recipe of the accumulation contract; a decoded group feeds all NB columns
// before the next group is touched, so the weights are walked once per tile.
template <bool Packed, std::size_t NB>
void tile_rows(const GemmArgs& a, const float* x, float* y, std::size_t row_begin,
               std::size_t row_end) {
    const std::size_t rows = a.rows;
    const std::size_t cols = a.cols;
    const std::size_t gs = a.group_size;
    const std::size_t gpr = cols / gs;
    for (std::size_t r = row_begin; r < row_end; ++r) {
        const std::uint8_t* code = a.codes + r * cols;  // byte path
        std::size_t nib = r * cols;                     // packed path
        const Word512* words = a.words;
        const Fp16* srow = a.scales + r * gpr;
        const std::uint8_t* zrow = a.zeros + r * gpr;
        const float* xg = x;
        float acc[NB] = {};
        for (std::size_t g = 0; g < gpr; ++g) {
            const float s = srow[g].to_float();
            const int z = zrow[g];
#if EFLD_GEMV_VECTOR
            Partials p[NB] = {};
            const Vi zv = Vi{} + z;
            if constexpr (Packed) {
                // Row starts are 16-nibble aligned (cols is a multiple of
                // group_size, group_size a multiple of 16), so groups walk
                // whole 64-bit lanes. Elements i..i+7 land on contract lanes
                // 0..7, then i+8..i+15 on the same lanes again — sequential
                // vector steps keep each lane's accumulation order identical
                // to the oracle's.
                for (std::size_t i = 0; i < gs; i += 16, nib += 16) {
                    const std::uint64_t lane = words[nib >> 7].lanes[(nib >> 4) & 7];
                    for (std::size_t e = 0; e < 16; e += kVecLanes) {
                        accumulate(p, e % kGemvLanes, centered_nibbles(lane >> (4 * e), zv),
                                   xg + i + e, cols);
                    }
                }
            } else {
                std::size_t i = 0;
                for (; i + kGemvLanes <= gs; i += kGemvLanes) {
                    for (std::size_t e = 0; e < kGemvLanes; e += kVecLanes) {
                        accumulate(p, e, centered_bytes(code + i + e, zv), xg + i + e, cols);
                    }
                }
                for (; i < gs; ++i) {
                    const std::size_t k = i % kGemvLanes;
                    const float d = static_cast<float>(static_cast<int>(code[i]) - z);
                    for (std::size_t b = 0; b < NB; ++b) {
                        p[b].v[k / kVecLanes][k % kVecLanes] += d * xg[b * cols + i];
                    }
                }
            }
#else
            float p[NB][kGemvLanes] = {};
            for (std::size_t i = 0; i < gs; ++i, ++nib) {
                const std::uint64_t lane = Packed ? words[nib >> 7].lanes[(nib >> 4) & 7] : 0;
                const int c = Packed ? static_cast<int>((lane >> (4 * (nib & 15))) & 0xF) : code[i];
                const float d = static_cast<float>(c - z);
                for (std::size_t b = 0; b < NB; ++b) {
                    p[b][i % kGemvLanes] += d * xg[b * cols + i];
                }
            }
#endif
            for (std::size_t b = 0; b < NB; ++b) acc[b] += s * lane_tree_sum(p[b]);
            code += gs;
            xg += gs;
        }
        for (std::size_t b = 0; b < NB; ++b) y[b * rows + r] = acc[b];
    }
}

// Rows [row_begin, row_end) of the whole batch: full tiles of kGemmBatchTile
// columns, then the remainder, each tile width its own compiled kernel.
static_assert(kGemmBatchTile == 8, "gemm_rows dispatches tile widths 1..8");
template <bool Packed>
void gemm_rows(const GemmArgs& a, std::size_t row_begin, std::size_t row_end) {
    for (std::size_t bt = 0; bt < a.batch; bt += kGemmBatchTile) {
        const float* x = a.x + bt * a.cols;
        float* y = a.y + bt * a.rows;
        switch (std::min(kGemmBatchTile, a.batch - bt)) {
            case 1: tile_rows<Packed, 1>(a, x, y, row_begin, row_end); break;
            case 2: tile_rows<Packed, 2>(a, x, y, row_begin, row_end); break;
            case 3: tile_rows<Packed, 3>(a, x, y, row_begin, row_end); break;
            case 4: tile_rows<Packed, 4>(a, x, y, row_begin, row_end); break;
            case 5: tile_rows<Packed, 5>(a, x, y, row_begin, row_end); break;
            case 6: tile_rows<Packed, 6>(a, x, y, row_begin, row_end); break;
            case 7: tile_rows<Packed, 7>(a, x, y, row_begin, row_end); break;
            default: tile_rows<Packed, 8>(a, x, y, row_begin, row_end); break;
        }
    }
}

// Partitions rows across `pool`, each chunk streaming at least
// kMinChunkBytes of weight codes.
template <bool Packed>
void run_gemm(const GemmArgs& a, ThreadPool* pool) {
    if (pool == nullptr) {
        gemm_rows<Packed>(a, 0, a.rows);
        return;
    }
    const std::size_t code_bytes = Packed ? a.rows * a.cols / 2 : a.rows * a.cols;
    pool->parallel_for(
        a.rows, [&](std::size_t b, std::size_t e) { gemm_rows<Packed>(a, b, e); },
        code_bytes / kMinChunkBytes);
}

GemmArgs gemm_args(const QuantizedLinear& q, const Word512* words, const float* x,
                   std::size_t batch, float* y) {
    return GemmArgs{q.codes().data(), words, q.scales().data(), q.zeros().data(), q.rows(),
                    q.cols(), q.config().group_size, x, batch, y};
}

}  // namespace

QuantizedLinear QuantizedLinear::quantize(std::span<const float> weights,
                                          std::size_t rows, std::size_t cols,
                                          const GroupQuantConfig& cfg) {
    check(rows > 0 && cols > 0, "QuantizedLinear: empty matrix");
    check(weights.size() == rows * cols, "QuantizedLinear: size mismatch");
    check(cfg.group_size > 0 && cols % cfg.group_size == 0,
          "QuantizedLinear: cols must be a multiple of group_size");
    check(cfg.bits >= 2 && cfg.bits <= 8, "QuantizedLinear: bits out of range");

    QuantizedLinear q;
    q.cfg_ = cfg;
    q.rows_ = rows;
    q.cols_ = cols;
    q.codes_.resize(rows * cols);
    const std::size_t groups = q.num_groups();
    q.scales_.resize(groups);
    q.zeros_.resize(groups);

    const float qmaxf = static_cast<float>(cfg.qmax());
    for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t base = g * cfg.group_size;
        float lo = weights[base];
        float hi = weights[base];
        for (std::size_t i = 1; i < cfg.group_size; ++i) {
            lo = std::min(lo, weights[base + i]);
            hi = std::max(hi, weights[base + i]);
        }
        // Asymmetric min/max quantization; zero point must itself be a code.
        lo = std::min(lo, 0.0f);
        hi = std::max(hi, 0.0f);
        float scale = (hi - lo) / qmaxf;
        if (scale <= 0.0f) scale = 1.0f;
        // The hardware stores the scale as fp16; quantize codes against the
        // *stored* scale so dequantization is exact w.r.t. the codes.
        const Fp16 scale_h = Fp16::from_float(scale);
        const float scale_q = scale_h.to_float();
        const std::uint8_t zp = static_cast<std::uint8_t>(std::clamp(
            static_cast<int>(std::lround(-lo / scale_q)), 0, static_cast<int>(cfg.qmax())));

        q.scales_[g] = scale_h;
        q.zeros_[g] = zp;
        for (std::size_t i = 0; i < cfg.group_size; ++i) {
            const int code = static_cast<int>(std::lround(weights[base + i] / scale_q)) + zp;
            q.codes_[base + i] = static_cast<std::uint8_t>(
                std::clamp(code, 0, static_cast<int>(cfg.qmax())));
        }
    }
    return q;
}

std::vector<float> QuantizedLinear::dequantize() const {
    std::vector<float> out(rows_ * cols_);
    const std::size_t groups = num_groups();
    for (std::size_t g = 0; g < groups; ++g) {
        dequantize_group(g, std::span<float>(out).subspan(g * cfg_.group_size, cfg_.group_size));
    }
    return out;
}

void QuantizedLinear::dequantize_group(std::size_t group_index, std::span<float> out) const {
    check(group_index < num_groups(), "dequantize_group: group out of range");
    check(out.size() == cfg_.group_size, "dequantize_group: bad output span");
    const float s = scales_[group_index].to_float();
    const int z = zeros_[group_index];
    const std::size_t base = group_index * cfg_.group_size;
    for (std::size_t i = 0; i < cfg_.group_size; ++i) {
        out[i] = static_cast<float>(static_cast<int>(codes_[base + i]) - z) * s;
    }
}

void QuantizedLinear::gemv_reference(std::span<const float> x, std::span<float> y) const {
    check(x.size() == cols_, "gemv_reference: input size mismatch");
    check(y.size() == rows_, "gemv_reference: output size mismatch");
    const std::size_t gs = cfg_.group_size;
    const std::size_t gpr = groups_per_row();
    for (std::size_t r = 0; r < rows_; ++r) {
        float acc = 0.0f;
        for (std::size_t g = 0; g < gpr; ++g) {
            const std::size_t gi = r * gpr + g;
            const float s = scales_[gi].to_float();
            const int z = zeros_[gi];
            const std::size_t base = gi * gs;
            const std::size_t xbase = g * gs;
            float p[kGemvLanes] = {};
            for (std::size_t i = 0; i < gs; ++i) {
                p[i % kGemvLanes] +=
                    static_cast<float>(static_cast<int>(codes_[base + i]) - z) *
                    x[xbase + i];
            }
            acc += s * lane_tree_sum(p);
        }
        y[r] = acc;
    }
}

std::vector<float> QuantizedLinear::gemv_reference(std::span<const float> x) const {
    std::vector<float> y(rows_);
    gemv_reference(x, y);
    return y;
}

std::vector<float> QuantizedLinear::gemv_seed_baseline(std::span<const float> x) const {
    check(x.size() == cols_, "gemv_seed_baseline: input size mismatch");
    std::vector<float> y(rows_, 0.0f);
    std::vector<float> group(cfg_.group_size);
    const std::size_t gpr = groups_per_row();
    for (std::size_t r = 0; r < rows_; ++r) {
        float acc = 0.0f;
        for (std::size_t g = 0; g < gpr; ++g) {
            dequantize_group(r * gpr + g, group);
            const std::size_t xbase = g * cfg_.group_size;
            for (std::size_t i = 0; i < cfg_.group_size; ++i) {
                acc += group[i] * x[xbase + i];
            }
        }
        y[r] = acc;
    }
    return y;
}

void QuantizedLinear::gemv(std::span<const float> x, std::span<float> y,
                           ThreadPool* pool) const {
    check(x.size() == cols_, "gemv: input size mismatch");
    check(y.size() == rows_, "gemv: output size mismatch");
    run_gemm<false>(gemm_args(*this, nullptr, x.data(), 1, y.data()), pool);
}

void QuantizedLinear::gemm_reference(std::span<const float> x, std::size_t batch,
                                     std::span<float> y) const {
    check(batch > 0, "gemm_reference: empty batch");
    check(x.size() == batch * cols_, "gemm_reference: input size mismatch");
    check(y.size() == batch * rows_, "gemm_reference: output size mismatch");
    for (std::size_t b = 0; b < batch; ++b) {
        gemv_reference(x.subspan(b * cols_, cols_), y.subspan(b * rows_, rows_));
    }
}

void QuantizedLinear::gemm(std::span<const float> x, std::size_t batch,
                           std::span<float> y, ThreadPool* pool) const {
    check(batch > 0, "gemm: empty batch");
    check(x.size() == batch * cols_, "gemm: input size mismatch");
    check(y.size() == batch * rows_, "gemm: output size mismatch");
    run_gemm<false>(gemm_args(*this, nullptr, x.data(), batch, y.data()), pool);
}

std::vector<Word512> QuantizedLinear::pack_codes() const {
    check(cfg_.bits == 4, "pack_codes: codes wider than a nibble");
    return pack_nibbles(codes_);
}

void QuantizedLinear::gemv_packed(std::span<const Word512> packed,
                                  std::span<const float> x, std::span<float> y,
                                  ThreadPool* pool) const {
    check(cfg_.bits == 4, "gemv_packed: codes wider than a nibble");
    check(cfg_.group_size % 16 == 0, "gemv_packed: group_size must align to word lanes");
    check(x.size() == cols_, "gemv_packed: input size mismatch");
    check(y.size() == rows_, "gemv_packed: output size mismatch");
    check(packed.size() == div_ceil(rows_ * cols_, kNibblesPerWord),
          "gemv_packed: packed stream size mismatch");
    run_gemm<true>(gemm_args(*this, packed.data(), x.data(), 1, y.data()), pool);
}

void QuantizedLinear::gemm_packed(std::span<const Word512> packed,
                                  std::span<const float> x, std::size_t batch,
                                  std::span<float> y, ThreadPool* pool) const {
    check(cfg_.bits == 4, "gemm_packed: codes wider than a nibble");
    check(cfg_.group_size % 16 == 0, "gemm_packed: group_size must align to word lanes");
    check(batch > 0, "gemm_packed: empty batch");
    check(x.size() == batch * cols_, "gemm_packed: input size mismatch");
    check(y.size() == batch * rows_, "gemm_packed: output size mismatch");
    check(packed.size() == div_ceil(rows_ * cols_, kNibblesPerWord),
          "gemm_packed: packed stream size mismatch");
    run_gemm<true>(gemm_args(*this, packed.data(), x.data(), batch, y.data()), pool);
}

std::uint64_t QuantizedLinear::packed_bytes() const noexcept {
    const std::uint64_t code_bits =
        static_cast<std::uint64_t>(rows_) * cols_ * cfg_.bits;
    const std::uint64_t scale_bits = static_cast<std::uint64_t>(num_groups()) * 16;
    const std::uint64_t zero_bits = static_cast<std::uint64_t>(num_groups()) * cfg_.bits;
    return (code_bits + scale_bits + zero_bits) / 8;
}

QuantizedLinear QuantizedLinear::from_parts(std::vector<std::uint8_t> codes,
                                            std::vector<Fp16> scales,
                                            std::vector<std::uint8_t> zeros,
                                            std::size_t rows, std::size_t cols,
                                            const GroupQuantConfig& cfg) {
    check(codes.size() == rows * cols, "from_parts: codes size mismatch");
    check(cols % cfg.group_size == 0, "from_parts: cols not group aligned");
    const std::size_t groups = rows * (cols / cfg.group_size);
    check(scales.size() == groups, "from_parts: scales size mismatch");
    check(zeros.size() == groups, "from_parts: zeros size mismatch");
    QuantizedLinear q;
    q.cfg_ = cfg;
    q.rows_ = rows;
    q.cols_ = cols;
    q.codes_ = std::move(codes);
    q.scales_ = std::move(scales);
    q.zeros_ = std::move(zeros);
    return q;
}

QuantError quant_error(std::span<const float> original,
                       std::span<const float> reconstructed) {
    QuantError e;
    for (std::size_t i = 0; i < original.size(); ++i) {
        const double d = static_cast<double>(original[i]) - static_cast<double>(reconstructed[i]);
        e.mse += d * d;
        e.max_abs = std::max(e.max_abs, std::abs(d));
    }
    if (!original.empty()) e.mse /= static_cast<double>(original.size());
    return e;
}

}  // namespace efld::quant
