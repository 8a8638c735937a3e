// Serve-layer observability: the engine's metrics snapshot must agree with
// its own ServeStats exactly, the latency histograms must fire once per
// request boundary, and the trace must tell each request's story in order.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_router.hpp"

#include "obs/clock.hpp"
#include "obs/exposition.hpp"
#include "obs/trace.hpp"
#include "runtime/serve.hpp"

namespace efld::serve {
namespace {

model::ModelConfig test_cfg() { return model::ModelConfig::micro_256(); }

TEST(ServeMetrics, CountersMatchServeStatsExactly) {
    ServeOptions opts;
    opts.max_batch = 3;
    runtime::ServeDeployment d = runtime::synthetic_serve(test_cfg(), 42, opts);

    constexpr std::size_t kRequests = 5;
    std::vector<RequestHandle> handles;
    for (std::size_t r = 0; r < kRequests; ++r) {
        handles.push_back(d.engine->submit(Request{
            .prompt = "metrics req " + std::to_string(r), .max_new_tokens = 6}));
    }
    d.engine->run_until_idle();
    for (auto& h : handles) (void)h.get();

    const ServeStats stats = d.engine->stats();
    const obs::MetricsSnapshot snap = d.engine->metrics_snapshot();
    EXPECT_EQ(stats.requests_completed, kRequests);
    EXPECT_EQ(snap.counters.at("serve_requests_completed"),
              stats.requests_completed);
    EXPECT_EQ(snap.counters.at("serve_steps"), stats.steps);
    EXPECT_EQ(snap.counters.at("serve_prompt_tokens"), stats.prompt_tokens);
    EXPECT_EQ(snap.counters.at("serve_generated_tokens"),
              stats.generated_tokens);
    EXPECT_EQ(snap.counters.at("serve_requests_lost"), stats.requests_lost);
    EXPECT_DOUBLE_EQ(snap.gauges.at("serve_queued"), 0.0);
    EXPECT_DOUBLE_EQ(snap.gauges.at("serve_active_sessions"), 0.0);

    // And the wire body round-trips those same numbers.
    const auto parsed = obs::parse_prometheus(obs::to_prometheus(snap));
    EXPECT_DOUBLE_EQ(parsed.at("serve_requests_completed"),
                     static_cast<double>(kRequests));
}

TEST(ServeMetrics, LatencyHistogramsFireOncePerBoundary) {
    ServeOptions opts;
    opts.max_batch = 2;
    runtime::ServeDeployment d = runtime::synthetic_serve(test_cfg(), 42, opts);

    constexpr std::size_t kRequests = 4;
    std::vector<RequestHandle> handles;
    for (std::size_t r = 0; r < kRequests; ++r) {
        handles.push_back(d.engine->submit(Request{
            .prompt = "latency req " + std::to_string(r), .max_new_tokens = 5}));
    }
    d.engine->run_until_idle();
    for (auto& h : handles) (void)h.get();

    const ServeStats stats = d.engine->stats();
    const obs::MetricsSnapshot snap = d.engine->metrics_snapshot();
    // One queue-wait, one TTFT, one e2e sample per request; one inter-token
    // gap per generated token after each request's first.
    EXPECT_EQ(snap.histograms.at("serve_queue_wait_ns").count, kRequests);
    EXPECT_EQ(snap.histograms.at("serve_ttft_ns").count, kRequests);
    EXPECT_EQ(snap.histograms.at("serve_e2e_ns").count, kRequests);
    EXPECT_EQ(snap.histograms.at("serve_intertoken_gap_ns").count,
              stats.generated_tokens - kRequests);

    // The load snapshot carries the same summaries for the placement layer.
    const ServeLoad load = d.engine->load();
    EXPECT_EQ(load.ttft.count, kRequests);
    EXPECT_EQ(load.e2e.count, kRequests);
}

TEST(ServeMetrics, TraceTellsEachRequestsStoryInOrder) {
    auto clock = std::make_shared<obs::ManualClock>();
    auto trace = std::make_shared<obs::TraceRecorder>(256, clock.get());
    ServeOptions opts;
    opts.max_batch = 2;
    opts.trace = trace;
    opts.clock = clock;
    opts.shard_id = 3;
    runtime::ServeDeployment d = runtime::synthetic_serve(test_cfg(), 42, opts);

    std::vector<RequestHandle> handles;
    handles.push_back(d.engine->submit(Request{
        .prompt = "trace one", .max_new_tokens = 4}));
    handles.push_back(d.engine->submit(Request{
        .prompt = "trace two", .max_new_tokens = 4}));
    d.engine->run_until_idle();
    std::vector<std::uint64_t> ids;
    for (auto& h : handles) ids.push_back(h.get().id);

    for (const std::uint64_t id : ids) {
        const std::vector<obs::TraceRecord> events = trace->for_request(id);
        // submitted → admitted → prefill_done → first_token → retired, all
        // tagged with this engine's shard id.
        ASSERT_GE(events.size(), 5u) << "request " << id;
        EXPECT_EQ(events.front().event, obs::TraceEvent::kSubmitted);
        std::vector<obs::TraceEvent> order;
        for (const obs::TraceRecord& e : events) {
            EXPECT_EQ(e.shard, 3u);
            order.push_back(e.event);
        }
        const std::vector<obs::TraceEvent> want{
            obs::TraceEvent::kSubmitted, obs::TraceEvent::kAdmitted,
            obs::TraceEvent::kPrefillDone, obs::TraceEvent::kFirstToken,
            obs::TraceEvent::kRetired};
        EXPECT_EQ(order, want) << "request " << id;
    }
}

constexpr std::uint64_t kSec = 1'000'000'000ull;

// The windowed series every engine exports, by name.
const char* const kWindowRates[] = {
    "serve_arrivals_per_s_window_1s",   "serve_arrivals_per_s_window_10s",
    "serve_arrivals_per_s_window_60s",  "serve_tokens_per_s_window_1s",
    "serve_tokens_per_s_window_10s",    "serve_tokens_per_s_window_60s",
    "serve_deferrals_per_s_window_1s",  "serve_deferrals_per_s_window_10s",
    "serve_deferrals_per_s_window_60s", "serve_failovers_per_s_window_1s",
    "serve_failovers_per_s_window_10s", "serve_failovers_per_s_window_60s"};
const char* const kWindowTtfts[] = {"serve_ttft_ns_window_10s",
                                    "serve_ttft_ns_window_60s"};

// The seconds a window of `span` one-second buckets has covered at 255 ms
// into the current second: span - 1 whole buckets plus the elapsed part.
double covered_s(double span) { return span - 1.0 + 0.255; }

TEST(ServeMetrics, WindowedSeriesTrackRecentTrafficAndExpire) {
    auto clock = std::make_shared<obs::ManualClock>(100 * kSec + kSec / 4);
    ServeOptions opts;
    opts.max_batch = 3;
    opts.clock = clock;
    runtime::ServeDeployment d = runtime::synthetic_serve(test_cfg(), 42, opts);

    std::vector<RequestHandle> hs;
    for (int r = 0; r < 3; ++r) {
        hs.push_back(d.engine->submit(
            Request{.prompt = "window " + std::to_string(r), .max_new_tokens = 4}));
    }
    clock->advance_ns(5'000'000);  // every TTFT is 5 ms
    d.engine->run_until_idle();
    for (const RequestHandle& h : hs) (void)h.get();

    const ServeStats stats = d.engine->stats();
    const obs::MetricsSnapshot snap = d.engine->metrics_snapshot();
    const auto& g = snap.gauges;
    const double tokens = static_cast<double>(stats.generated_tokens);
    EXPECT_DOUBLE_EQ(g.at("serve_arrivals_per_s_window_1s"), 3.0 / covered_s(1));
    EXPECT_DOUBLE_EQ(g.at("serve_arrivals_per_s_window_10s"), 3.0 / covered_s(10));
    EXPECT_DOUBLE_EQ(g.at("serve_arrivals_per_s_window_60s"), 3.0 / covered_s(60));
    EXPECT_DOUBLE_EQ(g.at("serve_tokens_per_s_window_1s"), tokens / covered_s(1));
    EXPECT_DOUBLE_EQ(g.at("serve_tokens_per_s_window_10s"), tokens / covered_s(10));
    EXPECT_DOUBLE_EQ(g.at("serve_tokens_per_s_window_60s"), tokens / covered_s(60));
    for (const char* name : {"serve_deferrals_per_s_window_1s",
                             "serve_deferrals_per_s_window_60s",
                             "serve_failovers_per_s_window_1s",
                             "serve_failovers_per_s_window_60s"}) {
        EXPECT_DOUBLE_EQ(g.at(name), 0.0) << name;
    }
    // Everything happened inside both TTFT windows, so each equals the
    // cumulative TTFT histogram.
    const obs::HistogramSnapshot& all = snap.histograms.at("serve_ttft_ns");
    EXPECT_EQ(all.count, 3u);
    for (const char* name : kWindowTtfts) {
        const obs::HistogramSnapshot& w = snap.histograms.at(name);
        EXPECT_EQ(w.count, all.count) << name;
        EXPECT_EQ(w.sum, all.sum) << name;
        EXPECT_EQ(w.min, 5'000'000u) << name;
        EXPECT_EQ(w.max, 5'000'000u) << name;
        EXPECT_EQ(w.buckets, all.buckets) << name;
    }

    // A 61 s idle advance moves every event out of every window.
    clock->advance_ns(61 * kSec);
    const obs::MetricsSnapshot idle = d.engine->metrics_snapshot();
    for (const char* name : kWindowRates) {
        EXPECT_DOUBLE_EQ(idle.gauges.at(name), 0.0) << name;
    }
    for (const char* name : kWindowTtfts) {
        EXPECT_EQ(idle.histograms.at(name).count, 0u) << name;
    }
}

TEST(ServeMetrics, ClusterWindowedSeriesSumTheShards) {
    auto clock = std::make_shared<obs::ManualClock>(100 * kSec + kSec / 4);
    cluster::ClusterOptions opts;
    opts.shards = 2;
    opts.shard.max_batch = 2;
    opts.shard.clock = clock;
    runtime::ClusterDeployment d =
        runtime::synthetic_cluster(test_cfg(), 42, opts);

    std::vector<RequestHandle> hs;
    for (int r = 0; r < 4; ++r) {
        hs.push_back(d.router->submit(
            Request{.prompt = "shard " + std::to_string(r), .max_new_tokens = 4}));
    }
    clock->advance_ns(5'000'000);
    d.router->drain();
    for (const RequestHandle& h : hs) (void)h.get();

    const obs::MetricsSnapshot merged = d.router->metrics_snapshot();
    const obs::MetricsSnapshot s0 = d.router->shard(0).metrics_snapshot();
    const obs::MetricsSnapshot s1 = d.router->shard(1).metrics_snapshot();
    for (const char* name : kWindowRates) {
        EXPECT_DOUBLE_EQ(merged.gauges.at(name),
                         s0.gauges.at(name) + s1.gauges.at(name))
            << name;
    }
    EXPECT_DOUBLE_EQ(merged.gauges.at("serve_arrivals_per_s_window_10s"),
                     4.0 / covered_s(10));
    for (const char* name : kWindowTtfts) {
        const obs::HistogramSnapshot& w = merged.histograms.at(name);
        EXPECT_EQ(w.count, 4u) << name;
        EXPECT_EQ(w.count, s0.histograms.at(name).count +
                               s1.histograms.at(name).count)
            << name;
        EXPECT_EQ(w.sum, s0.histograms.at(name).sum + s1.histograms.at(name).sum)
            << name;
    }
}

}  // namespace
}  // namespace efld::serve
