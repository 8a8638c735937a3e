// In-process time-series store: retained history over MetricsSnapshots.
//
// Instantaneous gauges cannot answer "is TTFT degrading" or "how fast are we
// burning the error budget" — those are questions about the last N minutes.
// The TimeSeriesStore ingests whole MetricsSnapshots (one per sampler tick)
// and retains every series at multiple resolutions simultaneously: each
// ingest lands in the current bucket of EVERY level's TimeRing (1s×120,
// 10s×360, 60s×1440 by default), aggregating within coarse buckets as it
// goes — the downsampling a lap would force happens eagerly at write time, so
// recycling a fine slot never loses history the coarse rings still hold.
// Retention is therefore 2 minutes at 1s grain, 1 hour at 10s, 24 hours at
// 60s, in a few hundred KB.
//
// The rings (obs/time_ring.hpp) own all bucket arithmetic: which slot a time
// lands in, when a lapped slot is recycled, which buckets a window covers.
// The store itself only names series, fans each ingest out over the levels
// (and picks the level a query reads), turns cumulative values into
// per-interval ones, and renders JSON:
//   gauges    — the value, as-is.
//   counters  — converted to a per-second RATE from the delta against the
//               previous ingest (monotonic-reset safe: a counter that went
//               backwards restarts from its new value). Queries over a
//               counter series answer "events per second", not "total".
//   histograms — the DELTA against the previous ingest's snapshot, stored as
//               a sparse HistogramCell. A range query rebuilds the interval's
//               full HistogramSnapshot, so windowed quantiles and "fraction
//               of samples above X" (the burn-rate engine's bad fraction)
//               come from real per-interval data.
//
// Everything is driven by caller-passed timestamps from the injectable
// obs::Clock — a backwards or frozen clock read makes ingest() a counted
// no-op, and every test runs the whole subsystem on ManualClock. The
// MetricsSampler at the bottom is the production driver: a background thread
// that snapshots a source and ingests on a fixed interval; tests skip the
// thread and call sample_once().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/clock.hpp"
#include "obs/latency_histogram.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/time_ring.hpp"

namespace efld::obs {

// One scalar observation: bucket start time and the aggregated value (mean
// of the samples that landed in the bucket — identical to the sample itself
// at the finest grain, where buckets almost always hold one ingest).
struct SeriesPoint {
    std::uint64_t t_ns = 0;
    double value = 0.0;
};

class TimeSeriesStore {
public:
    struct Level {
        std::uint64_t step_ns = 0;  // bucket width
        std::size_t slots = 0;      // ring length; retention = step * slots
    };
    struct Options {
        // Finest first. Defaults: 2 min at 1s, 1 h at 10s, 24 h at 60s.
        std::vector<Level> levels = {
            {1'000'000'000ull, 120},
            {10'000'000'000ull, 360},
            {60'000'000'000ull, 1440},
        };
    };

    TimeSeriesStore();
    explicit TimeSeriesStore(Options opts);
    TimeSeriesStore(const TimeSeriesStore&) = delete;
    TimeSeriesStore& operator=(const TimeSeriesStore&) = delete;

    // Ingests one snapshot observed at `now_ns`. Returns false — and stores
    // nothing — when now_ns is not strictly after the previous ingest (a
    // backwards or frozen clock read; dropped_ingests() counts them).
    bool ingest(const MetricsSnapshot& snapshot, std::uint64_t now_ns);

    // Scalar range query over [from_ns, to_ns]: served from the finest level
    // whose retention still covers from_ns (falling back to the coarsest),
    // points in ascending time order. Unknown series → empty.
    [[nodiscard]] std::vector<SeriesPoint> query(const std::string& name,
                                                 std::uint64_t from_ns,
                                                 std::uint64_t to_ns) const;

    // Most recent scalar observation of a series (finest level).
    [[nodiscard]] std::optional<SeriesPoint> latest(const std::string& name) const;

    // Rebuilds the merged histogram DELTA over the trailing window — what
    // actually happened to the distribution in [now - window, now], not
    // since process start. Empty snapshot when the series is unknown.
    [[nodiscard]] HistogramSnapshot histogram_over(const std::string& name,
                                                   std::uint64_t window_ns,
                                                   std::uint64_t now_ns) const;

    // Fraction of the window's histogram samples whose bucket lies entirely
    // above `threshold` — the burn-rate engine's bad-event fraction. 0 when
    // the window holds no samples.
    [[nodiscard]] double bad_fraction(const std::string& name,
                                      std::uint64_t threshold,
                                      std::uint64_t window_ns,
                                      std::uint64_t now_ns) const;

    [[nodiscard]] std::vector<std::string> series_names() const;
    [[nodiscard]] std::uint64_t ingests() const noexcept {
        return ingests_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t dropped_ingests() const noexcept {
        return dropped_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] const Options& options() const noexcept { return opts_; }

    // One series' tail as JSON: {"series":"name","points":[[t_ns,v],...]}.
    [[nodiscard]] std::string query_json(const std::string& name,
                                         std::uint64_t window_ns,
                                         std::uint64_t now_ns) const;
    // Every scalar series' tail — the flight recorder's TSDB section.
    [[nodiscard]] std::string dump_json(std::uint64_t window_ns,
                                        std::uint64_t now_ns) const;

private:
    // Mean of the gauge values / counter rates ingested into one bucket.
    struct ScalarCell {
        double sum = 0.0;
        std::uint64_t count = 0;
    };
    struct ScalarSeries {
        std::vector<TimeRing<ScalarCell>> rings;  // one ring per level
    };
    struct HistSeries {
        std::vector<TimeRing<HistogramCell>> rings;
        HistogramSnapshot prev;  // last ingested cumulative snapshot
        bool has_prev = false;
    };

    template <class Series>
    Series& series(std::map<std::string, Series>& all, const std::string& name);
    // Level whose retention still covers from_ns (given now), finest first.
    [[nodiscard]] std::size_t level_for(std::uint64_t from_ns,
                                        std::uint64_t now_ns) const;
    [[nodiscard]] std::vector<SeriesPoint> collect(const ScalarSeries& s,
                                                   std::uint64_t from_ns,
                                                   std::uint64_t to_ns) const;

    const Options opts_;
    mutable std::mutex mu_;
    std::map<std::string, ScalarSeries> scalars_;
    std::map<std::string, HistSeries> hists_;
    std::map<std::string, std::uint64_t> counter_prev_;  // last raw cumulative
    std::uint64_t last_ingest_ns_ = 0;
    bool has_ingested_ = false;
    std::atomic<std::uint64_t> ingests_{0};
    std::atomic<std::uint64_t> dropped_{0};
};

// Background driver: snapshots `source` and ingests into `store` every
// `interval_ns`, then invokes `on_sample` (the alert engine's evaluation
// hook) with the ingest timestamp. The thread paces itself on real time but
// stamps samples from the injectable clock, so a ManualClock test can run
// the identical code path via sample_once() with no thread at all.
class MetricsSampler {
public:
    struct Options {
        std::uint64_t interval_ns = 1'000'000'000;  // 1s
        const Clock* clock = nullptr;               // null = process steady clock
    };

    MetricsSampler(std::function<MetricsSnapshot()> source, TimeSeriesStore* store,
                   Options opts);
    ~MetricsSampler();  // stops the thread if running
    MetricsSampler(const MetricsSampler&) = delete;
    MetricsSampler& operator=(const MetricsSampler&) = delete;

    // Post-ingest hook (alert evaluation). Set before start().
    void set_on_sample(std::function<void(std::uint64_t now_ns)> cb) {
        on_sample_ = std::move(cb);
    }

    // One snapshot→ingest→evaluate cycle at the clock's current time. The
    // manual-stepping path tests (and the thread body) use.
    void sample_once();

    void start();  // idempotent
    void stop();   // idempotent, joins
    [[nodiscard]] bool running() const noexcept {
        return running_.load(std::memory_order_acquire);
    }
    [[nodiscard]] std::uint64_t samples() const noexcept {
        return samples_.load(std::memory_order_relaxed);
    }

private:
    void loop();

    std::function<MetricsSnapshot()> source_;
    TimeSeriesStore* store_;
    Options opts_;
    const Clock* clock_;
    std::function<void(std::uint64_t)> on_sample_;
    std::atomic<std::uint64_t> samples_{0};
    std::thread thread_;
    std::atomic<bool> running_{false};
    std::mutex stop_mu_;
    std::condition_variable stop_cv_;
    bool stop_requested_ = false;  // guarded by stop_mu_
};

}  // namespace efld::obs
