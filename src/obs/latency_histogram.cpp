#include "obs/latency_histogram.hpp"

#include <algorithm>

namespace efld::obs {

void LatencyHistogram::record(std::uint64_t value) noexcept {
    buckets_[histogram_detail::bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t seen = min_.load(std::memory_order_relaxed);
    while (value < seen &&
           !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
}

HistogramSnapshot LatencyHistogram::snapshot() const {
    HistogramSnapshot s;
    s.buckets.resize(kBucketCount, 0);
    // Sum the buckets rather than trusting count_: a concurrent record() may
    // have bumped one but not the other, and the buckets are what quantile()
    // walks — keeping count == sum(buckets) keeps the estimate consistent.
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
        s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
        total += s.buckets[i];
    }
    s.count = total;
    s.sum = sum_.load(std::memory_order_relaxed);
    const std::uint64_t lo = min_.load(std::memory_order_relaxed);
    s.min = (total == 0 || lo == ~std::uint64_t{0}) ? 0 : lo;
    s.max = max_.load(std::memory_order_relaxed);
    return s;
}

void LatencyHistogram::reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
}

std::uint64_t HistogramSnapshot::quantile(double q) const {
    if (count == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the target observation, 1-based.
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(q * static_cast<double>(count) + 0.5));
    // The first and last observations are known exactly; interpolating
    // inside their buckets would only blur them (a lone sample sits at the
    // bucket's midpoint).
    if (rank >= count) return max;
    if (rank == 1) return min;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        const std::uint64_t n = buckets[i];
        if (n == 0) continue;
        if (seen + n >= rank) {
            const std::uint64_t lo = histogram_detail::bucket_lower(i);
            const std::uint64_t hi = histogram_detail::bucket_upper(i);
            // Interpolate position-within-bucket by rank.
            const double frac = n <= 1
                                    ? 0.5
                                    : static_cast<double>(rank - seen - 1) /
                                          static_cast<double>(n - 1);
            std::uint64_t est =
                lo + static_cast<std::uint64_t>(frac * static_cast<double>(hi - lo));
            est = std::clamp(est, min, max);
            return est;
        }
        seen += n;
    }
    return max;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
    if (other.count == 0) return;
    if (buckets.empty()) buckets.resize(histogram_detail::kBucketCount, 0);
    if (!other.buckets.empty()) {
        for (std::size_t i = 0; i < buckets.size() && i < other.buckets.size(); ++i) {
            buckets[i] += other.buckets[i];
        }
    }
    min = (count == 0) ? other.min : std::min(min, other.min);
    max = std::max(max, other.max);
    count += other.count;
    sum += other.sum;
}

void HistogramCell::record(std::uint64_t value) {
    merge(HistogramCell{1, value, value, value,
                        {{static_cast<std::uint32_t>(
                              histogram_detail::bucket_index(value)),
                          1}}});
}

void HistogramCell::merge(const HistogramCell& other) {
    if (other.count == 0) return;
    min = count == 0 ? other.min : std::min(min, other.min);
    max = count == 0 ? other.max : std::max(max, other.max);
    count += other.count;
    sum += other.sum;
    for (const auto& [i, n] : other.buckets) {
        auto pos = std::find_if(buckets.begin(), buckets.end(),
                                [i = i](const auto& b) { return b.first == i; });
        if (pos == buckets.end()) {
            buckets.emplace_back(i, n);
        } else {
            pos->second += n;
        }
    }
}

void HistogramCell::merge_into(HistogramSnapshot& out) const {
    if (count == 0) return;
    out.min = out.count == 0 ? min : std::min(out.min, min);
    out.max = out.count == 0 ? max : std::max(out.max, max);
    out.count += count;
    out.sum += sum;
    if (!buckets.empty() && out.buckets.empty()) {
        out.buckets.assign(histogram_detail::kBucketCount, 0);
    }
    for (const auto& [i, n] : buckets) out.buckets[i] += n;
}

LatencySummary LatencySummary::from(const HistogramSnapshot& s) {
    LatencySummary out;
    out.count = s.count;
    if (s.count == 0) return out;
    out.mean_ns = static_cast<std::uint64_t>(s.mean());
    out.p50_ns = s.quantile(0.50);
    out.p95_ns = s.quantile(0.95);
    out.p99_ns = s.quantile(0.99);
    out.max_ns = s.max;
    return out;
}

}  // namespace efld::obs
