// RollingWindow over the shared TimeRing: bucket wraparound, idle-gap
// expiry, the trailing-window query and its rate, cross-shard merge of
// window snapshots, windowed quantiles, and concurrent recording — all under
// ManualClock so every boundary is exact.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "obs/clock.hpp"
#include "obs/rolling_window.hpp"
#include "obs/time_ring.hpp"

namespace efld::obs {
namespace {

RollingWindow::Options small_opts(std::uint64_t bucket_ns, std::size_t buckets) {
    RollingWindow::Options o;
    o.bucket_ns = bucket_ns;
    o.buckets = buckets;
    return o;
}

TEST(TimeRing, WindowVisitsOnlyLiveIndicesOldestFirst) {
    TimeRing<int> ring(100, 4);
    for (std::uint64_t b = 0; b < 10; ++b) ring.at(b * 100) = static_cast<int>(b);
    std::vector<std::uint64_t> starts;
    std::vector<int> cells;
    const auto collect = [&](std::uint64_t now, std::uint64_t span) {
        starts.clear();
        cells.clear();
        ring.for_each(now, span, [&](std::uint64_t t, int c) {
            starts.push_back(t);
            cells.push_back(c);
        });
    };
    collect(950, 10);  // span clamps to the 4 slots: buckets 6..9
    EXPECT_EQ(starts, (std::vector<std::uint64_t>{600, 700, 800, 900}));
    EXPECT_EQ(cells, (std::vector<int>{6, 7, 8, 9}));
    collect(750, 2);  // buckets 8 and 9 lie in the future of t=750
    EXPECT_EQ(cells, (std::vector<int>{6, 7}));
    collect(1350, 4);  // buckets 10..13 were never written
    EXPECT_TRUE(cells.empty());
    EXPECT_EQ(ring.span_between(250, 950), 8u);
    EXPECT_EQ(ring.span_between(950, 250), 0u);
    EXPECT_EQ(ring.span_of(50), 1u);
    EXPECT_EQ(ring.covered_ns(950, 2), 150u);
    EXPECT_EQ(ring.covered_ns(900, 1), 1u);  // never zero
}

TEST(RollingWindow, CountsLandInTheCurrentBucketWindow) {
    ManualClock clock;
    RollingWindow win(&clock, small_opts(100, 8));
    clock.set_ns(0);
    win.add(3);
    clock.set_ns(150);  // bucket 1
    win.add(2);

    // 1-bucket window: only the current bucket.
    EXPECT_EQ(win.over(100).count, 2u);
    // 2-bucket window: both, over the 150ns it has covered so far (one
    // whole bucket plus 50ns of the current one).
    EXPECT_EQ(win.over(200).count, 5u);
    EXPECT_DOUBLE_EQ(win.rate_per_s(200), 5.0 * 1e9 / 150.0);
    // The value buckets stay empty when only counts were added.
    EXPECT_TRUE(win.over(200).buckets.empty());
}

TEST(RollingWindow, RateDividesByTheTimeTheWindowCovered) {
    // A steady 100 events/s (one every 10ms, mid-slot) on the default
    // 64 x 1s ring reads 100/s at any point into the current second.
    ManualClock clock;
    RollingWindow win(&clock);
    constexpr std::uint64_t kMs = 1'000'000;
    std::uint64_t next = 5 * kMs;
    for (const std::uint64_t ms : {10'050u, 10'250u, 10'500u, 10'990u}) {
        for (; next <= ms * kMs; next += 10 * kMs) {
            clock.set_ns(next);
            win.add();
        }
        clock.set_ns(ms * kMs);
        EXPECT_NEAR(win.rate_per_s(1'000'000'000), 100.0, 1e-9) << ms;
        EXPECT_NEAR(win.rate_per_s(10'000'000'000), 100.0, 1e-9) << ms;
    }
}

TEST(RollingWindow, RingWraparoundRecyclesLappedBuckets) {
    ManualClock clock;
    RollingWindow win(&clock, small_opts(100, 4));  // ring spans 400ns
    for (std::uint64_t b = 0; b < 10; ++b) {
        clock.set_ns(b * 100);
        win.add(1);
    }
    // At t=900 (bucket 9) the ring holds buckets 6, 7, 8, 9 — the earlier
    // occupants of those slots were recycled, not double counted.
    EXPECT_EQ(win.over(400).count, 4u);
    EXPECT_EQ(win.over(100).count, 1u);
}

TEST(RollingWindow, IdleGapExpiresStaleBuckets) {
    ManualClock clock;
    RollingWindow win(&clock, small_opts(100, 8));
    clock.set_ns(0);
    win.add(5);
    // A long idle gap, shorter than the ring's lap: the old bucket still
    // physically sits in the ring but its index is out of any window.
    clock.set_ns(650);
    EXPECT_EQ(win.over(200).count, 0u);
    EXPECT_EQ(win.over(800).count, 5u);  // clamped to the ring span (8x100)
    // After a full lap the slot gets recycled on next touch.
    clock.set_ns(800);
    win.add(1);
    EXPECT_EQ(win.over(800).count, 1u);
}

TEST(RollingWindow, RecordTracksMinMaxSumPerWindow) {
    ManualClock clock;
    RollingWindow win(&clock, small_opts(100, 8));
    clock.set_ns(0);
    win.record(40);
    win.record(10);
    clock.set_ns(100);
    win.record(70);

    const HistogramSnapshot w1 = win.over(100);
    EXPECT_EQ(w1.count, 1u);
    EXPECT_EQ(w1.min, 70u);
    EXPECT_EQ(w1.max, 70u);
    const HistogramSnapshot w2 = win.over(200);
    EXPECT_EQ(w2.count, 3u);
    EXPECT_EQ(w2.sum, 120u);
    EXPECT_EQ(w2.min, 10u);
    EXPECT_EQ(w2.max, 70u);
}

TEST(RollingWindow, WindowedHistogramYieldsQuantiles) {
    ManualClock clock;
    RollingWindow win(&clock, small_opts(1'000'000'000, 64));
    clock.set_ns(0);
    for (std::uint64_t v = 1; v <= 100; ++v) win.record(v * 1'000'000);
    const HistogramSnapshot h = win.over(10'000'000'000);
    EXPECT_EQ(h.count, 100u);
    // Log-bucket quantiles: p50 lands within a bucket width of 50ms.
    const std::uint64_t p50 = h.quantile(0.5);
    EXPECT_GE(p50, 40'000'000u);
    EXPECT_LE(p50, 70'000'000u);
}

TEST(RollingWindow, SnapshotsMergeAcrossShards) {
    ManualClock clock;
    RollingWindow a(&clock, small_opts(100, 8));
    RollingWindow b(&clock, small_opts(100, 8));
    clock.set_ns(50);
    a.record(10);
    a.record(30);
    b.record(200);

    HistogramSnapshot merged = a.over(100);
    merged.merge(b.over(100));
    EXPECT_EQ(merged.count, 3u);
    EXPECT_EQ(merged.sum, 240u);
    EXPECT_EQ(merged.min, 10u);
    EXPECT_EQ(merged.max, 200u);
    std::uint64_t in_buckets = 0;
    for (const std::uint64_t n : merged.buckets) in_buckets += n;
    EXPECT_EQ(in_buckets, 3u);  // the value buckets merged too

    // Merging an empty shard changes nothing.
    RollingWindow idle(&clock, small_opts(100, 8));
    merged.merge(idle.over(100));
    EXPECT_EQ(merged.count, 3u);
    EXPECT_EQ(merged.min, 10u);
}

TEST(RollingWindow, ConcurrentRecordsAllLand) {
    ManualClock clock;
    clock.set_ns(42);
    RollingWindow win(&clock, small_opts(1'000'000'000, 4));
    constexpr int kThreads = 4;
    constexpr int kPerThread = 1000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kPerThread; ++i) win.add();
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(win.over(1'000'000'000).count,
              static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(RollingWindow, BackwardsClockStepExcludesFutureBuckets) {
    // A clock that steps backwards (ManualClock rewound; ntp-ish slews on a
    // misconfigured timebase) leaves buckets stamped with FUTURE indices.
    // over() must not count them toward the now-earlier window.
    ManualClock clock;
    RollingWindow win(&clock, small_opts(100, 8));
    clock.set_ns(900);
    win.add(5);  // bucket index 9
    clock.set_ns(300);  // rewind: current bucket is now 3
    EXPECT_EQ(win.over(400).count, 0u);  // the future bucket is invisible
    win.add(2);  // lands in bucket 3, recycling nothing
    EXPECT_EQ(win.over(400).count, 2u);
    // Once the clock re-advances past the stale stamp, new traffic lands in
    // fresh buckets and the 1-bucket window sees exactly it.
    clock.set_ns(1000);
    win.add(1);
    EXPECT_EQ(win.over(100).count, 1u);
}

TEST(RollingWindow, PauseLongerThanRingSpanDropsEverything) {
    // Ring spans 800ns; a pause far past that must expire every bucket, even
    // the ones whose slots no new traffic has recycled.
    ManualClock clock;
    RollingWindow win(&clock, small_opts(100, 8));
    for (std::uint64_t b = 0; b < 8; ++b) {
        clock.set_ns(b * 100);
        win.add(1);
    }
    EXPECT_EQ(win.over(800).count, 8u);
    clock.set_ns(100'000);  // long pause, no touches
    EXPECT_EQ(win.over(800).count, 0u);
    // The window clamps to the ring span: asking for more history than the
    // ring retains cannot resurrect recycled slots either.
    EXPECT_EQ(win.over(1'000'000).count, 0u);
    // Traffic resumes cleanly after the gap.
    win.add(3);
    EXPECT_EQ(win.over(800).count, 3u);
}

TEST(RollingWindow, ZeroOptionsClampSafely) {
    ManualClock clock;
    RollingWindow win(&clock, small_opts(0, 0));
    win.add();
    EXPECT_EQ(win.over(0).count, 1u);
    const double rate = win.rate_per_s(0);
    EXPECT_TRUE(std::isfinite(rate));
    EXPECT_GT(rate, 0.0);
}

}  // namespace
}  // namespace efld::obs
