// Micro-kernel benchmarks (google-benchmark): the simulator's own hot paths.
//
// `--full-fp16-sweep` instead checks Fp16::from_float against the software
// reference float_to_half_bits on all 2^32 float bit patterns (ctest checks a
// strided sample) and exits nonzero on any mismatch.
#include <benchmark/benchmark.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "accel/hw_exp.hpp"
#include "accel/spu_rope.hpp"
#include "accel/spu_softmax.hpp"
#include "accel/vpu.hpp"
#include "common/rng.hpp"
#include "memsim/memory_system.hpp"
#include "quant/groupquant.hpp"
#include "quant/kvquant.hpp"
#include "quant/weight_format.hpp"

using namespace efld;

namespace {

std::vector<Fp16> random_halfs(std::size_t n, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<Fp16> v(n);
    for (auto& x : v) x = Fp16::from_float(static_cast<float>(rng.gaussian()));
    return v;
}

void BM_Fp16Conversion(benchmark::State& state) {
    Xoshiro256 rng(1);
    std::vector<float> xs(1024);
    for (auto& x : xs) x = static_cast<float>(rng.gaussian());
    for (auto _ : state) {
        for (const float x : xs) {
            benchmark::DoNotOptimize(float_to_half_bits(x));
        }
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_Fp16Conversion);

void BM_Fp16FromFloat(benchmark::State& state) {
    Xoshiro256 rng(1);
    std::vector<float> xs(1024);
    for (auto& x : xs) x = static_cast<float>(rng.gaussian());
    for (auto _ : state) {
        for (const float x : xs) {
            benchmark::DoNotOptimize(Fp16::from_float(x));
        }
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_Fp16FromFloat);

void BM_Dot128(benchmark::State& state) {
    const auto a = random_halfs(128, 2);
    const auto b = random_halfs(128, 3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(accel::DotEngine::dot128(a, b));
    }
    state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_Dot128);

void BM_PackedGemv(benchmark::State& state) {
    const std::size_t rows = static_cast<std::size_t>(state.range(0));
    const std::size_t cols = 512;
    Xoshiro256 rng(4);
    std::vector<float> w(rows * cols);
    for (auto& x : w) x = static_cast<float>(rng.gaussian(0.0, 0.05));
    const auto q = quant::QuantizedLinear::quantize(w, rows, cols, {});
    const auto stream = quant::pack_weight_stream(q);
    const auto x = random_halfs(cols, 5);
    std::vector<Fp16> y(rows);
    const accel::ScopedLaneKernel pin(state.range(1) != 0 ? accel::LaneKernel::kVector
                                                         : accel::LaneKernel::kScalar);
    state.SetLabel(accel::active_lane_kernel() == accel::LaneKernel::kVector ? "vector"
                                                                             : "scalar");
    for (auto _ : state) {
        accel::DotEngine::gemv(stream, rows, cols, x, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * rows * cols);
}
// Second argument: 0 = scalar reference lane kernel, 1 = vector kernel.
BENCHMARK(BM_PackedGemv)->ArgsProduct({{16, 64, 256}, {0, 1}});

void BM_WeightPack(benchmark::State& state) {
    Xoshiro256 rng(6);
    std::vector<float> w(64 * 512);
    for (auto& x : w) x = static_cast<float>(rng.gaussian(0.0, 0.05));
    const auto q = quant::QuantizedLinear::quantize(w, 64, 512, {});
    for (auto _ : state) {
        benchmark::DoNotOptimize(quant::pack_weight_stream(q));
    }
    state.SetBytesProcessed(state.iterations() * 64 * 512 / 2);
}
BENCHMARK(BM_WeightPack);

void BM_KvQuantize(benchmark::State& state) {
    Xoshiro256 rng(7);
    std::vector<float> x(128);
    for (auto& v : x) v = static_cast<float>(rng.gaussian());
    for (auto _ : state) {
        benchmark::DoNotOptimize(quant::kv_quantize(x));
    }
    state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_KvQuantize);

void BM_HwExp(benchmark::State& state) {
    const accel::HwExp hw;
    const auto xs = random_halfs(256, 8);
    for (auto _ : state) {
        for (const Fp16 x : xs) benchmark::DoNotOptimize(hw.exp(x));
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_HwExp);

void BM_SpuSoftmax(benchmark::State& state) {
    const accel::HwExp hw;
    const accel::SpuSoftmax sm(hw);
    const auto x = random_halfs(static_cast<std::size_t>(state.range(0)), 9);
    std::vector<Fp16> out(x.size());
    for (auto _ : state) {
        sm.run(x, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SpuSoftmax)->Arg(128)->Arg(1024);

void BM_SpuRope(benchmark::State& state) {
    const accel::SpuRope rope;
    auto v = random_halfs(128, 10);
    std::size_t pos = 0;
    for (auto _ : state) {
        rope.run(v, pos++ % 1024);
        benchmark::DoNotOptimize(v.data());
    }
    state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_SpuRope);

void BM_MemorySystemSequential(benchmark::State& state) {
    memsim::MemorySystem mem(memsim::MemorySystemConfig::kv260());
    const std::uint64_t bytes = static_cast<std::uint64_t>(state.range(0)) << 20;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mem.sequential_read_ns(0, bytes));
    }
    state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_MemorySystemSequential)->Arg(1)->Arg(16)->Arg(128);

int full_fp16_sweep() {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t mismatches = 0;
    for (std::uint64_t b = 0; b <= 0xFFFF'FFFFull; ++b) {
        const float f = std::bit_cast<float>(static_cast<std::uint32_t>(b));
        if (Fp16::from_float(f).bits() != float_to_half_bits(f) && mismatches++ < 8) {
            std::printf("mismatch: float bits 0x%08llx\n", static_cast<unsigned long long>(b));
        }
    }
    const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    std::printf("float->half over all 2^32 floats: %llu mismatches (%.1f s)\n",
                static_cast<unsigned long long>(mismatches), dt.count());
    return mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--full-fp16-sweep") == 0) return full_fp16_sweep();
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
