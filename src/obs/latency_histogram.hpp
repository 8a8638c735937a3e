// Fixed-bucket log-scale latency histogram (HDR-histogram style).
//
// record() is a handful of atomic relaxed RMWs — safe from any number of
// writer threads with no locking, cheap enough for per-token hot paths.
// Bucketing: values < 16 get exact unit buckets; above that each power-of-two
// octave splits into 8 sub-buckets (kSubBits = 3), so the relative bucket
// width is <= 1/8 and any quantile estimate is within ~12.5% of the true
// value. 496 buckets cover the full uint64 nanosecond range in ~4 KB.
//
// Snapshots are plain structs: merge() them across shards, ask for
// quantile(q), or feed them to obs::to_prometheus for wire exposition.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace efld::obs {

namespace histogram_detail {

inline constexpr std::uint32_t kSubBits = 3;
inline constexpr std::uint32_t kSubBuckets = 1u << kSubBits;  // 8
// Buckets 0..15 are exact; octaves 4..63 contribute 8 sub-buckets each.
inline constexpr std::size_t kBucketCount =
    (1u << (kSubBits + 1)) + (64 - kSubBits - 1) * kSubBuckets;  // 496

[[nodiscard]] constexpr std::size_t bucket_index(std::uint64_t v) noexcept {
    if (v < (1u << (kSubBits + 1))) return static_cast<std::size_t>(v);
    const std::uint32_t octave = 63u - static_cast<std::uint32_t>(std::countl_zero(v));
    const std::uint64_t sub = (v >> (octave - kSubBits)) & (kSubBuckets - 1);
    return static_cast<std::size_t>((octave - kSubBits) * kSubBuckets) +
           kSubBuckets + static_cast<std::size_t>(sub);
}

// Inclusive upper bound of a bucket: the largest value mapping to `index`.
[[nodiscard]] constexpr std::uint64_t bucket_upper(std::size_t index) noexcept {
    if (index < (1u << (kSubBits + 1))) return static_cast<std::uint64_t>(index);
    const std::uint64_t slot = index - kSubBuckets;
    const std::uint32_t octave = static_cast<std::uint32_t>(slot / kSubBuckets) + kSubBits;
    const std::uint64_t sub = slot % kSubBuckets;
    const std::uint64_t base = (std::uint64_t{1} << octave) +
                               (sub << (octave - kSubBits));
    const std::uint64_t width = std::uint64_t{1} << (octave - kSubBits);
    return base + width - 1;
}

[[nodiscard]] constexpr std::uint64_t bucket_lower(std::size_t index) noexcept {
    return index == 0 ? 0 : bucket_upper(index - 1) + 1;
}

}  // namespace histogram_detail

// Immutable point-in-time copy of a histogram (or a merge of several).
struct HistogramSnapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;  // meaningful only when count > 0
    std::uint64_t max = 0;
    std::vector<std::uint64_t> buckets;  // kBucketCount entries (empty => all-zero)

    [[nodiscard]] bool empty() const noexcept { return count == 0; }
    [[nodiscard]] double mean() const noexcept {
        return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
    }

    // Quantile estimate, q in [0, 1]. Linearly interpolates inside the
    // containing bucket and clamps to the observed min/max, so p0 == min and
    // p100 == max exactly and everything between is within the bucket's
    // <= 12.5% relative width.
    [[nodiscard]] std::uint64_t quantile(double q) const;

    // Accumulate another snapshot (cluster aggregation across shards).
    void merge(const HistogramSnapshot& other);
};

// One time bucket's share of a distribution, as a TimeRing cell: count, sum,
// min/max and only the value buckets that were hit (sparse). A cell that
// only counts events keeps no value buckets.
struct HistogramCell {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;  // meaningful only when count > 0
    std::uint64_t max = 0;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;  // (bucket, n)

    void record(std::uint64_t value);
    void merge(const HistogramCell& other);
    // Adds this cell to a (dense) snapshot: a window query's accumulator.
    void merge_into(HistogramSnapshot& out) const;
};

class LatencyHistogram {
public:
    static constexpr std::size_t kBucketCount = histogram_detail::kBucketCount;

    LatencyHistogram() = default;
    LatencyHistogram(const LatencyHistogram&) = delete;
    LatencyHistogram& operator=(const LatencyHistogram&) = delete;

    // Lock-free; any thread. Values are nanoseconds by convention but the
    // histogram is unit-agnostic.
    void record(std::uint64_t value) noexcept;

    [[nodiscard]] std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }

    // Point-in-time copy. Concurrent record() calls may or may not be
    // included (counts are read bucket-by-bucket, monotonically — never
    // negative, never double-counted).
    [[nodiscard]] HistogramSnapshot snapshot() const;

    void reset() noexcept;

    // Exposed for tests: which bucket a value lands in and its bounds.
    [[nodiscard]] static constexpr std::size_t bucket_of(std::uint64_t v) noexcept {
        return histogram_detail::bucket_index(v);
    }
    [[nodiscard]] static constexpr std::uint64_t bucket_upper_bound(std::size_t i) noexcept {
        return histogram_detail::bucket_upper(i);
    }
    [[nodiscard]] static constexpr std::uint64_t bucket_lower_bound(std::size_t i) noexcept {
        return histogram_detail::bucket_lower(i);
    }

private:
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max_{0};
    std::atomic<std::uint64_t> buckets_[kBucketCount] = {};
};

// Compact percentile digest for embedding in load/stats snapshots where a
// full 496-bucket snapshot would be overkill (e.g. ServeLoad shipped to the
// placement policy on every submit).
struct LatencySummary {
    std::uint64_t count = 0;
    std::uint64_t mean_ns = 0;
    std::uint64_t p50_ns = 0;
    std::uint64_t p95_ns = 0;
    std::uint64_t p99_ns = 0;
    std::uint64_t max_ns = 0;

    [[nodiscard]] static LatencySummary from(const HistogramSnapshot& s);
};

}  // namespace efld::obs
