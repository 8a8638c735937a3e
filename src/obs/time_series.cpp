#include "obs/time_series.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/check.hpp"

namespace efld::obs {

namespace {

void append_num(std::string& out, double v) {
    char buf[64];
    const int n = std::snprintf(buf, sizeof(buf), "%g", v);
    if (n > 0) out.append(buf, static_cast<std::size_t>(n));
}

// The sparse delta between two cumulative histogram snapshots. A counter
// reset (count went backwards) restarts from the current snapshot,
// mirroring the scalar counter rule. Count 0 when nothing new landed.
HistogramCell histogram_delta(const HistogramSnapshot& prev,
                              const HistogramSnapshot& cur) {
    HistogramCell out;
    const bool reset = cur.count < prev.count;
    for (std::size_t i = 0; i < cur.buckets.size(); ++i) {
        const std::uint64_t c = cur.buckets[i];
        const std::uint64_t p =
            (reset || i >= prev.buckets.size()) ? 0 : prev.buckets[i];
        if (c > p) out.buckets.emplace_back(static_cast<std::uint32_t>(i), c - p);
    }
    if (out.buckets.empty()) return out;
    out.count = reset ? cur.count : cur.count - prev.count;
    out.sum = reset || cur.sum < prev.sum ? cur.sum : cur.sum - prev.sum;
    // Delta min/max are unknowable from cumulative snapshots; the occupied
    // bucket bounds bound them within the histogram's own error budget.
    out.min = histogram_detail::bucket_lower(out.buckets.front().first);
    out.max = histogram_detail::bucket_upper(out.buckets.back().first);
    return out;
}

}  // namespace

TimeSeriesStore::TimeSeriesStore() : TimeSeriesStore(Options{}) {}

TimeSeriesStore::TimeSeriesStore(Options opts) : opts_(std::move(opts)) {
    check(!opts_.levels.empty(), "TimeSeriesStore: at least one level");
    for (const Level& l : opts_.levels) {
        check(l.step_ns > 0 && l.slots > 0, "TimeSeriesStore: zero level");
    }
}

template <class Series>
Series& TimeSeriesStore::series(std::map<std::string, Series>& all,
                                const std::string& name) {
    auto it = all.find(name);
    if (it == all.end()) {
        it = all.emplace(name, Series{}).first;
        for (const Level& l : opts_.levels) {
            it->second.rings.emplace_back(l.step_ns, l.slots);
        }
    }
    return it->second;
}

bool TimeSeriesStore::ingest(const MetricsSnapshot& snapshot, std::uint64_t now_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    if (has_ingested_ && now_ns <= last_ingest_ns_) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    const bool first = !has_ingested_;
    const std::uint64_t dt_ns = first ? 0 : now_ns - last_ingest_ns_;

    const auto push = [&](const std::string& name, double value) {
        for (TimeRing<ScalarCell>& ring : series(scalars_, name).rings) {
            ScalarCell& c = ring.at(now_ns);
            c.sum += value;
            c.count += 1;
        }
    };
    for (const auto& [name, v] : snapshot.gauges) push(name, v);
    for (const auto& [name, v] : snapshot.counters) {
        auto it = counter_prev_.find(name);
        if (it == counter_prev_.end()) {
            // First sight baselines the counter; the next ingest has a delta.
            counter_prev_[name] = v;
            continue;
        }
        const std::uint64_t prev = it->second;
        it->second = v;
        if (dt_ns == 0) continue;
        const std::uint64_t delta = v >= prev ? v - prev : v;  // reset-safe
        push(name, static_cast<double>(delta) * 1e9 / static_cast<double>(dt_ns));
    }
    for (const auto& [name, h] : snapshot.histograms) {
        HistSeries& s = series(hists_, name);
        if (s.has_prev && dt_ns > 0) {
            const HistogramCell delta = histogram_delta(s.prev, h);
            if (delta.count > 0) {
                for (TimeRing<HistogramCell>& ring : s.rings) {
                    ring.at(now_ns).merge(delta);
                }
            }
        }
        s.prev = h;
        s.has_prev = true;
    }

    last_ingest_ns_ = now_ns;
    has_ingested_ = true;
    ingests_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

std::size_t TimeSeriesStore::level_for(std::uint64_t from_ns,
                                       std::uint64_t now_ns) const {
    for (std::size_t lvl = 0; lvl < opts_.levels.size(); ++lvl) {
        const Level& level = opts_.levels[lvl];
        const std::uint64_t retention = level.step_ns * (level.slots - 1);
        const std::uint64_t oldest = now_ns > retention ? now_ns - retention : 0;
        if (from_ns >= oldest) return lvl;
    }
    return opts_.levels.size() - 1;
}

std::vector<SeriesPoint> TimeSeriesStore::collect(const ScalarSeries& s,
                                                  std::uint64_t from_ns,
                                                  std::uint64_t to_ns) const {
    const TimeRing<ScalarCell>& ring = s.rings[level_for(from_ns, last_ingest_ns_)];
    // Nothing is newer than the last ingest.
    const std::uint64_t to = std::min(to_ns, last_ingest_ns_);
    std::vector<SeriesPoint> out;
    ring.for_each(to, ring.span_between(from_ns, to),
                  [&out](std::uint64_t t, const ScalarCell& c) {
                      out.push_back({t, c.sum / static_cast<double>(c.count)});
                  });
    return out;
}

std::vector<SeriesPoint> TimeSeriesStore::query(const std::string& name,
                                                std::uint64_t from_ns,
                                                std::uint64_t to_ns) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = scalars_.find(name);
    if (it == scalars_.end()) return {};
    return collect(it->second, from_ns, to_ns);
}

std::optional<SeriesPoint> TimeSeriesStore::latest(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = scalars_.find(name);
    if (it == scalars_.end()) return std::nullopt;
    const TimeRing<ScalarCell>& ring = it->second.rings[0];
    std::optional<SeriesPoint> out;
    ring.for_each(last_ingest_ns_, ring.slots(),
                  [&out](std::uint64_t t, const ScalarCell& c) {
                      out = SeriesPoint{t, c.sum / static_cast<double>(c.count)};
                  });
    return out;
}

HistogramSnapshot TimeSeriesStore::histogram_over(const std::string& name,
                                                  std::uint64_t window_ns,
                                                  std::uint64_t now_ns) const {
    std::lock_guard<std::mutex> lock(mu_);
    HistogramSnapshot out;
    auto it = hists_.find(name);
    if (it == hists_.end()) return out;
    const std::uint64_t from = now_ns > window_ns ? now_ns - window_ns : 0;
    const TimeRing<HistogramCell>& ring = it->second.rings[level_for(from, now_ns)];
    ring.for_each(now_ns, ring.span_between(from, now_ns),
                  [&out](std::uint64_t, const HistogramCell& c) {
                      c.merge_into(out);
                  });
    return out;
}

double TimeSeriesStore::bad_fraction(const std::string& name,
                                     std::uint64_t threshold,
                                     std::uint64_t window_ns,
                                     std::uint64_t now_ns) const {
    const HistogramSnapshot h = histogram_over(name, window_ns, now_ns);
    if (h.count == 0) return 0.0;
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
        if (h.buckets[i] == 0) continue;
        // A bucket counts as bad only when every value it can hold exceeds
        // the threshold — conservative within the bucket's <=12.5% width.
        if (histogram_detail::bucket_lower(i) > threshold) bad += h.buckets[i];
    }
    return static_cast<double>(bad) / static_cast<double>(h.count);
}

std::vector<std::string> TimeSeriesStore::series_names() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(scalars_.size() + hists_.size());
    for (const auto& [name, s] : scalars_) out.push_back(name);
    for (const auto& [name, s] : hists_) out.push_back(name + ":histogram");
    return out;
}

std::string TimeSeriesStore::query_json(const std::string& name,
                                        std::uint64_t window_ns,
                                        std::uint64_t now_ns) const {
    const std::uint64_t from = now_ns > window_ns ? now_ns - window_ns : 0;
    std::string out = "{\"series\":\"" + name + "\",\"points\":[";
    bool first = true;
    for (const SeriesPoint& p : query(name, from, now_ns)) {
        if (!first) out.push_back(',');
        first = false;
        out += "[" + std::to_string(p.t_ns) + ",";
        append_num(out, p.value);
        out += "]";
    }
    out += "]}";
    return out;
}

std::string TimeSeriesStore::dump_json(std::uint64_t window_ns,
                                       std::uint64_t now_ns) const {
    const std::uint64_t from = now_ns > window_ns ? now_ns - window_ns : 0;
    std::vector<std::string> names;
    {
        std::lock_guard<std::mutex> lock(mu_);
        names.reserve(scalars_.size());
        for (const auto& [name, s] : scalars_) names.push_back(name);
    }
    std::string out = "{";
    bool first = true;
    for (const std::string& name : names) {
        const std::vector<SeriesPoint> pts = query(name, from, now_ns);
        if (pts.empty()) continue;
        if (!first) out.push_back(',');
        first = false;
        out += "\"" + name + "\":[";
        for (std::size_t i = 0; i < pts.size(); ++i) {
            if (i > 0) out.push_back(',');
            out += "[" + std::to_string(pts[i].t_ns) + ",";
            append_num(out, pts[i].value);
            out += "]";
        }
        out += "]";
    }
    out += "}";
    return out;
}

// ---- MetricsSampler --------------------------------------------------------

MetricsSampler::MetricsSampler(std::function<MetricsSnapshot()> source,
                               TimeSeriesStore* store, Options opts)
    : source_(std::move(source)), store_(store), opts_(opts) {
    check(static_cast<bool>(source_), "MetricsSampler: null source");
    check(store_ != nullptr, "MetricsSampler: null store");
    check(opts_.interval_ns > 0, "MetricsSampler: zero interval");
    clock_ = opts_.clock != nullptr ? opts_.clock : &steady_clock();
}

MetricsSampler::~MetricsSampler() { stop(); }

void MetricsSampler::sample_once() {
    const MetricsSnapshot snap = source_();
    const std::uint64_t now = clock_->now_ns();
    store_->ingest(snap, now);
    samples_.fetch_add(1, std::memory_order_relaxed);
    if (on_sample_) on_sample_(now);
}

void MetricsSampler::start() {
    if (running_.load(std::memory_order_acquire)) return;
    {
        std::lock_guard<std::mutex> lock(stop_mu_);
        stop_requested_ = false;
    }
    running_.store(true, std::memory_order_release);
    thread_ = std::thread([this] { loop(); });
}

void MetricsSampler::stop() {
    if (!running_.load(std::memory_order_acquire)) return;
    {
        std::lock_guard<std::mutex> lock(stop_mu_);
        stop_requested_ = true;
    }
    stop_cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    running_.store(false, std::memory_order_release);
}

void MetricsSampler::loop() {
    const auto interval = std::chrono::nanoseconds(opts_.interval_ns);
    std::unique_lock<std::mutex> lock(stop_mu_);
    while (!stop_requested_) {
        lock.unlock();
        sample_once();
        lock.lock();
        stop_cv_.wait_for(lock, interval, [this] { return stop_requested_; });
    }
}

}  // namespace efld::obs
