// Failure flight recorder: a black-box bundle written the moment something
// goes wrong, while the evidence is still in memory.
//
// When a shard dies or an alert starts firing, the interesting state — the
// trace ring's recent lifecycle events, the metrics snapshot, the profiler's
// span timeline, the alert timeline, and the TSDB tail covering the lead-up
// — is all volatile. The FlightRecorder serializes it into one JSON bundle
// per incident under a configured directory:
//
//   {
//     "reason":   "shard_failure:0" | "alert:hot_queue" | ...,
//     "ts_ns":    capture timestamp (injected clock),
//     "seq":      capture ordinal in this process,
//     "metrics":  obs::to_json(snapshot),
//     "alerts":   AlertEngine::to_json() (null without an engine),
//     "trace":    [{ts_ns, request, shard, event, arg}, ...],
//     "profiler_spans": [{phase, shard, begin_ns, end_ns}, ...],
//     "tsdb":     TimeSeriesStore::dump_json over the tail window
//   }
//
// Bundles are capped (max_bundles) so a flapping alert cannot fill the disk,
// and captures within min_interval_ns of the previous one are coalesced into
// it (suppressed) — incidents cluster, recordings should not.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/alert_engine.hpp"
#include "obs/clock.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profiler.hpp"
#include "obs/time_series.hpp"
#include "obs/trace.hpp"

namespace efld::obs {

class FlightRecorder {
public:
    struct Options {
        std::string dir;                 // bundle directory (must exist or be creatable)
        const Clock* clock = nullptr;    // null = process steady clock
        std::uint64_t tail_window_ns = 120'000'000'000ull;  // TSDB tail: 2 min
        std::size_t max_bundles = 32;
        std::uint64_t min_interval_ns = 1'000'000'000;  // coalesce within 1s
    };

    explicit FlightRecorder(Options opts);
    FlightRecorder(const FlightRecorder&) = delete;
    FlightRecorder& operator=(const FlightRecorder&) = delete;

    // Serializes one bundle; any source may be null/empty. Returns the path
    // written, or "" when the capture was suppressed (cap / coalescing) or
    // the write failed.
    std::string capture(const std::string& reason,
                        const MetricsSnapshot& metrics,
                        const std::vector<TraceRecord>& trace,
                        const std::vector<SpanRecord>& spans,
                        const AlertEngine* alerts,
                        const TimeSeriesStore* store);

    // Bundles fully written to disk.
    [[nodiscard]] std::uint64_t captures() const;
    [[nodiscard]] std::uint64_t suppressed() const;
    [[nodiscard]] const Options& options() const noexcept { return opts_; }

private:
    Options opts_;
    const Clock* clock_;
    mutable std::mutex mu_;
    std::uint64_t seq_ = 0;      // next bundle's sequence number
    std::uint64_t written_ = 0;  // bundles on disk
    std::uint64_t suppressed_ = 0;
    std::uint64_t last_capture_ns_ = 0;
    bool captured_once_ = false;
};

}  // namespace efld::obs
