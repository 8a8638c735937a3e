#include "obs/flight_recorder.hpp"

#include <sys/stat.h>
#include <sys/types.h>

#include <cstdio>
#include <fstream>

#include "common/check.hpp"
#include "obs/exposition.hpp"

namespace efld::obs {

namespace {

// Filenames come from user-facing reasons ("alert:hot_queue"); keep them
// shell- and filesystem-safe.
std::string sanitize(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_';
        out.push_back(ok ? c : '_');
    }
    return out;
}

}  // namespace

FlightRecorder::FlightRecorder(Options opts) : opts_(std::move(opts)) {
    check(!opts_.dir.empty(), "FlightRecorder: empty directory");
    clock_ = opts_.clock != nullptr ? opts_.clock : &steady_clock();
    ::mkdir(opts_.dir.c_str(), 0755);  // best-effort; capture reports failures
}

std::string FlightRecorder::capture(const std::string& reason,
                                    const MetricsSnapshot& metrics,
                                    const std::vector<TraceRecord>& trace,
                                    const std::vector<SpanRecord>& spans,
                                    const AlertEngine* alerts,
                                    const TimeSeriesStore* store) {
    const std::uint64_t now = clock_->now_ns();
    std::uint64_t seq = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (seq_ >= opts_.max_bundles ||
            (captured_once_ && now >= last_capture_ns_ &&
             now - last_capture_ns_ < opts_.min_interval_ns)) {
            ++suppressed_;
            return "";
        }
        seq = seq_++;
        last_capture_ns_ = now;
        captured_once_ = true;
    }

    std::string body = "{\"reason\":\"" + sanitize(reason) + "\"";
    body += ",\"ts_ns\":" + std::to_string(now);
    body += ",\"seq\":" + std::to_string(seq);
    body += ",\"metrics\":" + to_json(metrics);
    body += ",\"alerts\":";
    body += alerts != nullptr ? alerts->to_json() : std::string("null");
    body += ",\"trace\":[";
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (i > 0) body.push_back(',');
        const TraceRecord& r = trace[i];
        body += "{\"ts_ns\":" + std::to_string(r.ts_ns);
        body += ",\"request\":" + std::to_string(r.request_id);
        body += ",\"shard\":" + std::to_string(r.shard);
        body += ",\"event\":\"" + std::string(to_string(r.event)) + "\"";
        body += ",\"arg\":" + std::to_string(r.arg) + "}";
    }
    body += "],\"profiler_spans\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (i > 0) body.push_back(',');
        const SpanRecord& s = spans[i];
        body += "{\"phase\":\"" + std::string(to_string(s.phase)) + "\"";
        body += ",\"shard\":" + std::to_string(s.shard);
        body += ",\"begin_ns\":" + std::to_string(s.begin_ns);
        body += ",\"end_ns\":" + std::to_string(s.end_ns) + "}";
    }
    body += "],\"tsdb\":";
    body += store != nullptr ? store->dump_json(opts_.tail_window_ns, now)
                             : std::string("null");
    body += "}\n";

    const std::string path = opts_.dir + "/flight_" + std::to_string(seq) +
                             "_" + sanitize(reason) + ".json";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return "";
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    out.close();
    if (!out) return "";
    // Counted only once the bundle is on disk, so a reader that sees
    // captures() move can open the file.
    std::lock_guard<std::mutex> lock(mu_);
    ++written_;
    return path;
}

std::uint64_t FlightRecorder::captures() const {
    std::lock_guard<std::mutex> lock(mu_);
    return written_;
}

std::uint64_t FlightRecorder::suppressed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return suppressed_;
}

}  // namespace efld::obs
