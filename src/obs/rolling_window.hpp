// Rolling-window rates and latency quantiles over the injectable Clock.
//
// Cumulative-since-start counters can't answer "what is the cluster doing
// RIGHT NOW" — a burst an hour ago and a burst this second look the same.
// A RollingWindow is a TimeRing of HistogramCells (default 64 x 1s) stamped
// by its clock: add() and record() land in the current bucket, and over()
// reads the trailing window, so idle gaps expire naturally and a 60s window
// over a 64-bucket ring is exact. The ring decides which buckets are in the
// window; this class only adds the clock and a lock.
//
// add() and record() are mutex-guarded: windows track control-plane events
// (arrivals, deferrals, tokens-per-step flushes, TTFTs), not per-token
// hot-path work, so a lock keeps the wraparound logic obviously correct
// under TSan.
//
// A window query is a plain HistogramSnapshot. Shards aggregate through
// MetricsSnapshot::merge: the engine exports windowed rates as gauges (which
// add) and windowed TTFTs as histograms (whose buckets add).
#pragma once

#include <cstdint>
#include <mutex>

#include "obs/clock.hpp"
#include "obs/latency_histogram.hpp"
#include "obs/time_ring.hpp"

namespace efld::obs {

class RollingWindow {
public:
    struct Options {
        std::uint64_t bucket_ns = 1'000'000'000;  // 1s buckets
        std::size_t buckets = 64;                 // ring span: 64s
    };

    // Overloads, not default arguments: a nested aggregate's member defaults
    // cannot feed a default argument inside the enclosing class. A null
    // clock means the process steady clock.
    explicit RollingWindow(const Clock* clock);
    RollingWindow(const Clock* clock, Options opts);
    RollingWindow(const RollingWindow&) = delete;
    RollingWindow& operator=(const RollingWindow&) = delete;

    // Count an event (arrival, deferral, n tokens) in the current bucket.
    void add(std::uint64_t n = 1);
    // Record a value (latency ns): count, sum, min/max and value bucket.
    void record(std::uint64_t value);

    // Everything recorded within the trailing `window_ns` (clamped to the
    // ring's span). The current partially-filled bucket is included. The
    // value buckets are empty when the window only counted events.
    [[nodiscard]] HistogramSnapshot over(std::uint64_t window_ns) const;
    // Events per second over the trailing window, divided by the time the
    // window has actually covered (the current bucket counts only its
    // elapsed part).
    [[nodiscard]] double rate_per_s(std::uint64_t window_ns) const;

private:
    [[nodiscard]] HistogramSnapshot over_locked(std::uint64_t now_ns,
                                                std::uint64_t span) const;

    const Clock* clock_;
    mutable std::mutex mu_;
    TimeRing<HistogramCell> ring_;
};

}  // namespace efld::obs
