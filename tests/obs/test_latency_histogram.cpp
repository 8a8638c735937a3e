// LatencyHistogram: bucket geometry, the quantile error bound the log-scale
// layout promises, lock-free concurrent recording, and cross-shard merge.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "obs/latency_histogram.hpp"

namespace efld::obs {
namespace {

TEST(LatencyHistogram, SmallValuesAreExact) {
    // Values below 16 land in unit-wide buckets: no quantization at all.
    for (std::uint64_t v = 0; v < 16; ++v) {
        EXPECT_EQ(LatencyHistogram::bucket_of(v), static_cast<std::size_t>(v));
        EXPECT_EQ(LatencyHistogram::bucket_lower_bound(
                      LatencyHistogram::bucket_of(v)),
                  v);
        EXPECT_EQ(LatencyHistogram::bucket_upper_bound(
                      LatencyHistogram::bucket_of(v)),
                  v);
    }
}

TEST(LatencyHistogram, BucketBoundsContainTheirValues) {
    // Every probed value must fall inside [lower, upper] of its own bucket,
    // and buckets must be monotone in the value.
    std::size_t prev = 0;
    for (std::uint64_t v = 1; v < (1ull << 40); v = v * 3 / 2 + 1) {
        const std::size_t b = LatencyHistogram::bucket_of(v);
        EXPECT_GE(v, LatencyHistogram::bucket_lower_bound(b)) << "value " << v;
        EXPECT_LE(v, LatencyHistogram::bucket_upper_bound(b)) << "value " << v;
        EXPECT_GE(b, prev) << "bucket index regressed at value " << v;
        prev = b;
    }
    // The largest representable value still maps inside the table.
    EXPECT_LT(LatencyHistogram::bucket_of(~0ull),
              histogram_detail::kBucketCount);
}

TEST(LatencyHistogram, RelativeBucketWidthIsBounded) {
    // The quantile error bound: above the exact range, each bucket spans at
    // most 1/8 of its lower bound (3 sub-bucket bits).
    for (std::uint64_t v = 16; v < (1ull << 48); v = v * 2 + 7) {
        const std::size_t b = LatencyHistogram::bucket_of(v);
        const std::uint64_t lo = LatencyHistogram::bucket_lower_bound(b);
        const std::uint64_t hi = LatencyHistogram::bucket_upper_bound(b);
        EXPECT_LE(hi - lo, lo / 8) << "bucket " << b << " at value " << v;
    }
}

TEST(LatencyHistogram, CountSumMinMax) {
    LatencyHistogram h;
    EXPECT_TRUE(h.snapshot().empty());
    h.record(100);
    h.record(300);
    h.record(200);
    const HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, 3u);
    EXPECT_EQ(s.sum, 600u);
    EXPECT_EQ(s.min, 100u);
    EXPECT_EQ(s.max, 300u);
    EXPECT_DOUBLE_EQ(s.mean(), 200.0);
    h.reset();
    EXPECT_TRUE(h.snapshot().empty());
}

TEST(LatencyHistogram, QuantileWithinRelativeErrorBound) {
    // Record 1..N exactly once each: the true q-quantile is q*N, and the
    // histogram's answer must be within one bucket width (12.5% relative).
    LatencyHistogram h;
    constexpr std::uint64_t kN = 100000;
    for (std::uint64_t v = 1; v <= kN; ++v) h.record(v);
    const HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, kN);
    for (const double q : {0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 0.999}) {
        const double truth = q * static_cast<double>(kN);
        const double got = static_cast<double>(s.quantile(q));
        EXPECT_NEAR(got, truth, truth * 0.125 + 1.0) << "quantile " << q;
    }
    // Extremes clamp to the observed range.
    EXPECT_EQ(s.quantile(0.0), 1u);
    EXPECT_EQ(s.quantile(1.0), kN);
}

TEST(LatencyHistogram, QuantileOfSingleValue) {
    LatencyHistogram h;
    h.record(12345);
    const HistogramSnapshot s = h.snapshot();
    for (const double q : {0.0, 0.5, 0.99, 1.0}) {
        EXPECT_EQ(s.quantile(q), 12345u);
    }
}

TEST(LatencyHistogram, ExtremeQuantilesAreTheObservedMinAndMax) {
    // 200 and 193 each sit alone in a bucket wider than one value, where
    // interpolation would answer near the bucket midpoint (199 for the
    // {10, 30, 200} case) instead of the sample itself.
    LatencyHistogram h;
    for (const std::uint64_t v : {10u, 30u, 200u}) h.record(v);
    const HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.quantile(1.0), 200u);
    EXPECT_EQ(s.quantile(1.0), s.max);

    LatencyHistogram low;
    low.record(193);
    low.record(5000);
    EXPECT_EQ(low.snapshot().quantile(0.0), 193u);
}

TEST(LatencyHistogram, EmptySnapshotIsSafe) {
    const HistogramSnapshot s = LatencyHistogram().snapshot();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.quantile(0.5), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    const LatencySummary sum = LatencySummary::from(s);
    EXPECT_EQ(sum.count, 0u);
    EXPECT_EQ(sum.p99_ns, 0u);
}

TEST(LatencyHistogram, ConcurrentWritersLoseNothing) {
    // The TSan job runs this: racing relaxed-atomic recorders must neither
    // data-race nor drop counts.
    LatencyHistogram h;
    constexpr int kThreads = 4;
    constexpr std::uint64_t kPerThread = 20000;
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&h, t] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                h.record(i * static_cast<std::uint64_t>(t + 1) + 1);
            }
        });
    }
    for (auto& w : writers) w.join();
    const HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, kThreads * kPerThread);
    EXPECT_EQ(s.min, 1u);
    EXPECT_EQ(s.max, (kPerThread - 1) * kThreads + 1);
}

TEST(LatencyHistogram, MergeEqualsSingleHistogram) {
    // Cluster aggregation: merging shard snapshots must answer exactly like
    // one histogram that saw every sample.
    LatencyHistogram all;
    LatencyHistogram shard_a;
    LatencyHistogram shard_b;
    for (std::uint64_t v = 1; v <= 5000; ++v) {
        all.record(v);
        (v % 2 == 0 ? shard_a : shard_b).record(v);
    }
    HistogramSnapshot merged = shard_a.snapshot();
    merged.merge(shard_b.snapshot());
    const HistogramSnapshot truth = all.snapshot();
    EXPECT_EQ(merged.count, truth.count);
    EXPECT_EQ(merged.sum, truth.sum);
    EXPECT_EQ(merged.min, truth.min);
    EXPECT_EQ(merged.max, truth.max);
    for (const double q : {0.5, 0.95, 0.99}) {
        EXPECT_EQ(merged.quantile(q), truth.quantile(q)) << "quantile " << q;
    }
}

TEST(LatencyHistogram, MergeWithEmptyIsIdentity) {
    LatencyHistogram h;
    h.record(42);
    HistogramSnapshot s = h.snapshot();
    s.merge(HistogramSnapshot{});
    EXPECT_EQ(s.count, 1u);
    EXPECT_EQ(s.min, 42u);
    EXPECT_EQ(s.max, 42u);

    HistogramSnapshot empty;
    empty.merge(h.snapshot());
    EXPECT_EQ(empty.count, 1u);
    EXPECT_EQ(empty.min, 42u);
}

TEST(LatencySummary, FromSnapshot) {
    LatencyHistogram h;
    for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
    const LatencySummary s = LatencySummary::from(h.snapshot());
    EXPECT_EQ(s.count, 1000u);
    EXPECT_NEAR(static_cast<double>(s.p50_ns), 500.0, 500.0 * 0.125 + 1.0);
    EXPECT_NEAR(static_cast<double>(s.p95_ns), 950.0, 950.0 * 0.125 + 1.0);
    EXPECT_NEAR(static_cast<double>(s.p99_ns), 990.0, 990.0 * 0.125 + 1.0);
    EXPECT_EQ(s.max_ns, 1000u);
    EXPECT_EQ(s.mean_ns, 500u);  // mean 500.5, truncated to whole ns
}

}  // namespace
}  // namespace efld::obs
