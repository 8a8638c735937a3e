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

TEST(ServeMetrics, SubmittedCountsEveryAcceptedSubmit) {
    ServeOptions opts;
    opts.max_batch = 2;
    runtime::ServeDeployment d = runtime::synthetic_serve(test_cfg(), 42, opts);

    std::vector<RequestHandle> hs;
    for (int r = 0; r < 3; ++r) {
        hs.push_back(d.engine->submit(Request{
            .prompt = "arrival " + std::to_string(r), .max_new_tokens = 4}));
    }
    // A zero budget resolves at once without a slot, but it did arrive.
    hs.push_back(d.engine->submit(Request{.prompt = "nothing to decode",
                                          .max_new_tokens = 0}));
    // A prompt longer than the context window is refused before it counts.
    EXPECT_THROW(
        (void)d.engine->submit(Request{
            .prompt = std::string(test_cfg().max_seq_len + 1, 'x'),
            .max_new_tokens = 4}),
        std::exception);
    d.engine->run_until_idle();
    for (const RequestHandle& h : hs) (void)h.get();

    const ServeStats stats = d.engine->stats();
    const obs::MetricsSnapshot snap = d.engine->metrics_snapshot();
    EXPECT_EQ(stats.requests_submitted, 4u);
    EXPECT_EQ(snap.counters.at("serve_requests_submitted"), 4u);
}

TEST(ServeMetrics, ClusterMergeSumsSubmittedOverShards) {
    cluster::ClusterOptions opts;
    opts.shards = 2;
    opts.shard.max_batch = 2;
    runtime::ClusterDeployment d =
        runtime::synthetic_cluster(test_cfg(), 42, opts);

    std::vector<RequestHandle> hs;
    for (int r = 0; r < 5; ++r) {
        hs.push_back(d.router->submit(
            Request{.prompt = "shard " + std::to_string(r), .max_new_tokens = 4}));
    }
    d.router->drain();
    for (const RequestHandle& h : hs) (void)h.get();

    const obs::MetricsSnapshot merged = d.router->metrics_snapshot();
    const std::uint64_t s0 =
        d.router->shard(0).metrics_snapshot().counters.at("serve_requests_submitted");
    const std::uint64_t s1 =
        d.router->shard(1).metrics_snapshot().counters.at("serve_requests_submitted");
    EXPECT_GT(s0, 0u);  // placement spread the load over both shards
    EXPECT_GT(s1, 0u);
    EXPECT_EQ(merged.counters.at("serve_requests_submitted"), s0 + s1);
    EXPECT_EQ(merged.counters.at("serve_requests_submitted"), 5u);
}

TEST(ServeMetrics, NoExportedSeriesIsWindowed) {
    // Windowed rates come from the counters (Prometheus rate(), or the SLO
    // store's kQuery); the engine exports no *_window_* series of its own.
    // Every optional family is switched on so none escapes the check.
    cluster::ClusterOptions opts;
    opts.shards = 2;
    opts.shard.max_batch = 2;
    opts.shard.paging = true;
    opts.shard.kv_page_tokens = 8;
    opts.shard.kv_pool_pages = 64;
    opts.shard.prefix_sharing = true;
    opts.shard.profile = true;
    opts.shard.trace = std::make_shared<obs::TraceRecorder>(256);
    runtime::ClusterDeployment d =
        runtime::synthetic_cluster(test_cfg(), 42, opts);
    std::vector<RequestHandle> hs;
    for (int r = 0; r < 4; ++r) {
        hs.push_back(d.router->submit(Request{
            .prompt = "a shared system prompt, then " + std::to_string(r),
            .max_new_tokens = 4}));
    }
    d.router->drain();
    for (const RequestHandle& h : hs) (void)h.get();

    const obs::MetricsSnapshot snap = d.router->metrics_snapshot();
    EXPECT_TRUE(snap.counters.count("serve_prefix_hits_total"));
    EXPECT_TRUE(snap.counters.count("serve_trace_dropped_total"));
    std::vector<std::string> names;
    for (const auto& [name, v] : snap.counters) names.push_back(name);
    for (const auto& [name, v] : snap.gauges) names.push_back(name);
    for (const auto& [name, v] : snap.histograms) names.push_back(name);
    EXPECT_GT(names.size(), 40u);
    for (const std::string& name : names) {
        EXPECT_EQ(name.find("_window_"), std::string::npos) << name;
    }
    EXPECT_EQ(obs::to_prometheus(snap).find("_window_"), std::string::npos);
}

}  // namespace
}  // namespace efld::serve
