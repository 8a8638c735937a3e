#include "obs/rolling_window.hpp"

namespace efld::obs {

RollingWindow::RollingWindow(const Clock* clock)
    : RollingWindow(clock, Options()) {}

RollingWindow::RollingWindow(const Clock* clock, Options opts)
    : clock_(clock ? clock : &steady_clock()), ring_(opts.bucket_ns, opts.buckets) {}

void RollingWindow::add(std::uint64_t n) {
    const std::lock_guard<std::mutex> lock(mu_);
    ring_.at(clock_->now_ns()).count += n;
}

void RollingWindow::record(std::uint64_t value) {
    const std::lock_guard<std::mutex> lock(mu_);
    ring_.at(clock_->now_ns()).record(value);
}

HistogramSnapshot RollingWindow::over_locked(std::uint64_t now_ns,
                                             std::uint64_t span) const {
    HistogramSnapshot out;
    ring_.for_each(now_ns, span, [&out](std::uint64_t, const HistogramCell& c) {
        c.merge_into(out);
    });
    return out;
}

HistogramSnapshot RollingWindow::over(std::uint64_t window_ns) const {
    const std::lock_guard<std::mutex> lock(mu_);
    return over_locked(clock_->now_ns(), ring_.span_of(window_ns));
}

double RollingWindow::rate_per_s(std::uint64_t window_ns) const {
    const std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t now = clock_->now_ns();
    const std::uint64_t span = ring_.span_of(window_ns);
    return static_cast<double>(over_locked(now, span).count) * 1e9 /
           static_cast<double>(ring_.covered_ns(now, span));
}

}  // namespace efld::obs
