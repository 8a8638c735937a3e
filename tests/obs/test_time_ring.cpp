// TimeRing, the one windowed-history primitive: bucket placement, lapped-slot
// recycling, idle-gap expiry, clock steps backwards and pauses longer than
// the ring, zero-size clamping, and HistogramCell windows (min/max/sum,
// quantiles, cross-shard merge). Times are plain nanosecond values, so every
// bucket boundary is exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/latency_histogram.hpp"
#include "obs/time_ring.hpp"

namespace efld::obs {
namespace {

using Ring = TimeRing<HistogramCell>;

// Everything in the window of `span` buckets ending at now_ns, as one
// snapshot: the query the serve engine's TTFT window makes.
HistogramSnapshot over(const Ring& ring, std::uint64_t now_ns, std::uint64_t span) {
    HistogramSnapshot out;
    ring.for_each(now_ns, span, [&out](std::uint64_t, const HistogramCell& c) {
        c.merge_into(out);
    });
    return out;
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
}

TEST(TimeRing, CountsLandInTheCurrentBucketWindow) {
    Ring ring(100, 8);
    ring.at(0).count += 3;
    ring.at(150).count += 2;  // bucket 1

    EXPECT_EQ(over(ring, 150, 1).count, 2u);  // only the current bucket
    EXPECT_EQ(over(ring, 150, 2).count, 5u);
    // The value buckets stay empty when only counts were added.
    EXPECT_TRUE(over(ring, 150, 2).buckets.empty());
}

TEST(TimeRing, LappedBucketsAreRecycled) {
    Ring ring(100, 4);  // spans 400 ns
    for (std::uint64_t b = 0; b < 10; ++b) ring.at(b * 100).count += 1;
    // At t=900 (bucket 9) the ring holds buckets 6, 7, 8, 9: the earlier
    // occupants of those slots were recycled, not double counted.
    EXPECT_EQ(over(ring, 900, 4).count, 4u);
    EXPECT_EQ(over(ring, 900, 1).count, 1u);
}

TEST(TimeRing, IdleGapExpiresStaleBuckets) {
    Ring ring(100, 8);
    ring.at(0).count += 5;
    // A long idle gap, shorter than the ring's lap: the old bucket still
    // physically sits in the ring but its index is out of the short window.
    EXPECT_EQ(over(ring, 650, 2).count, 0u);
    EXPECT_EQ(over(ring, 650, 8).count, 5u);
    // After a full lap the slot is recycled on the next touch.
    ring.at(800).count += 1;
    EXPECT_EQ(over(ring, 800, 8).count, 1u);
}

TEST(TimeRing, BackwardsClockStepExcludesFutureBuckets) {
    // A clock that steps backwards leaves buckets stamped with FUTURE
    // indices; a window ending at the now-earlier time must not read them.
    Ring ring(100, 8);
    ring.at(900).count += 5;  // bucket 9
    EXPECT_EQ(over(ring, 300, 4).count, 0u);  // rewound to bucket 3
    ring.at(300).count += 2;  // lands in bucket 3, recycling nothing
    EXPECT_EQ(over(ring, 300, 4).count, 2u);
    // Once the clock re-advances past the stale stamp, new traffic lands in
    // fresh buckets and the 1-bucket window sees exactly it.
    ring.at(1000).count += 1;
    EXPECT_EQ(over(ring, 1000, 1).count, 1u);
}

TEST(TimeRing, PauseLongerThanTheRingDropsEverything) {
    // The ring spans 800 ns; a pause far past that expires every bucket, even
    // the ones whose slots no new traffic has recycled.
    Ring ring(100, 8);
    for (std::uint64_t b = 0; b < 8; ++b) ring.at(b * 100).count += 1;
    EXPECT_EQ(over(ring, 700, 8).count, 8u);
    EXPECT_EQ(over(ring, 100'000, 8).count, 0u);
    // Asking for more history than the ring keeps cannot resurrect recycled
    // slots either: the span clamps to the slot count.
    EXPECT_EQ(over(ring, 100'000, 10'000).count, 0u);
    // Traffic resumes cleanly after the gap.
    ring.at(100'000).count += 3;
    EXPECT_EQ(over(ring, 100'000, 8).count, 3u);
}

TEST(TimeRing, ZeroSizesClampToOne) {
    Ring ring(0, 0);
    EXPECT_EQ(ring.slots(), 1u);
    ring.at(5).count += 1;
    EXPECT_EQ(over(ring, 5, 1).count, 1u);
    EXPECT_EQ(over(ring, 6, 1).count, 0u);  // 1 ns step: 6 is a new bucket
    EXPECT_EQ(over(ring, 5, 0).count, 0u);  // an empty window reads nothing
}

TEST(TimeRing, HistogramCellMergeKeepsMinMaxSum) {
    HistogramCell a;
    a.record(40);
    a.record(10);
    HistogramCell b;
    b.record(70);
    b.record(40);
    a.merge(b);
    EXPECT_EQ(a.count, 4u);
    EXPECT_EQ(a.sum, 160u);
    EXPECT_EQ(a.min, 10u);
    EXPECT_EQ(a.max, 70u);
    std::uint64_t in_buckets = 0;
    for (const auto& bucket : a.buckets) in_buckets += bucket.second;
    EXPECT_EQ(in_buckets, 4u);

    // An empty cell is the identity on either side: its zero min must not
    // drag the merged min down.
    a.merge(HistogramCell{});
    EXPECT_EQ(a.count, 4u);
    EXPECT_EQ(a.min, 10u);
    HistogramCell fresh;
    fresh.merge(a);
    EXPECT_EQ(fresh.min, 10u);
    EXPECT_EQ(fresh.max, 70u);
    EXPECT_EQ(fresh.sum, 160u);
}

TEST(TimeRing, HistogramCellsTrackMinMaxSumPerWindow) {
    Ring ring(100, 8);
    ring.at(0).record(40);
    ring.at(0).record(10);
    ring.at(100).record(70);

    const HistogramSnapshot w1 = over(ring, 100, 1);
    EXPECT_EQ(w1.count, 1u);
    EXPECT_EQ(w1.min, 70u);
    EXPECT_EQ(w1.max, 70u);
    const HistogramSnapshot w2 = over(ring, 100, 2);
    EXPECT_EQ(w2.count, 3u);
    EXPECT_EQ(w2.sum, 120u);
    EXPECT_EQ(w2.min, 10u);
    EXPECT_EQ(w2.max, 70u);
    EXPECT_DOUBLE_EQ(w2.mean(), 40.0);
}

TEST(TimeRing, WindowedHistogramYieldsQuantiles) {
    Ring ring(1'000'000'000, 10);
    for (std::uint64_t v = 1; v <= 100; ++v) ring.at(0).record(v * 1'000'000);
    const HistogramSnapshot h = over(ring, 0, ring.slots());
    EXPECT_EQ(h.count, 100u);
    // Log-bucket quantiles: p50 lands within a bucket width of 50ms.
    const std::uint64_t p50 = h.quantile(0.5);
    EXPECT_GE(p50, 40'000'000u);
    EXPECT_LE(p50, 70'000'000u);
}

TEST(TimeRing, WindowSnapshotsMergeAcrossShards) {
    Ring a(100, 8);
    Ring b(100, 8);
    a.at(50).record(10);
    a.at(50).record(30);
    b.at(50).record(200);

    HistogramSnapshot merged = over(a, 50, 1);
    merged.merge(over(b, 50, 1));
    EXPECT_EQ(merged.count, 3u);
    EXPECT_EQ(merged.sum, 240u);
    EXPECT_EQ(merged.min, 10u);
    EXPECT_EQ(merged.max, 200u);
    std::uint64_t in_buckets = 0;
    for (const std::uint64_t n : merged.buckets) in_buckets += n;
    EXPECT_EQ(in_buckets, 3u);  // the value buckets merged too

    // Merging an empty shard changes nothing.
    const Ring idle(100, 8);
    merged.merge(over(idle, 50, 1));
    EXPECT_EQ(merged.count, 3u);
    EXPECT_EQ(merged.min, 10u);
}

}  // namespace
}  // namespace efld::obs
