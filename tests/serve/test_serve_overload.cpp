// OverloadGovernor: the actuator half of the SLO loop. Unit tests for the
// engagement state machine, plus the ServeEngine queue sweep that sheds
// deadline-hopeless requests with kShedOverload while the governor is
// engaged.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/serve.hpp"
#include "serve/overload.hpp"

namespace efld::serve {
namespace {

model::ModelConfig test_cfg() { return model::ModelConfig::micro_256(); }

}  // namespace

TEST(OverloadGovernor, EngagementCountsFiringAlerts) {
    OverloadGovernor g;
    EXPECT_FALSE(g.engaged());
    EXPECT_DOUBLE_EQ(g.retry_hint_scale(), 1.0);
    EXPECT_FALSE(g.shed_hopeless());
    EXPECT_FALSE(g.degraded_placement());

    g.on_alert_firing();
    EXPECT_TRUE(g.engaged());
    EXPECT_DOUBLE_EQ(g.retry_hint_scale(), 4.0);  // default scale
    EXPECT_TRUE(g.shed_hopeless());
    EXPECT_TRUE(g.degraded_placement());

    // Two overlapping alerts: disengages only when BOTH resolve.
    g.on_alert_firing();
    g.on_alert_resolved();
    EXPECT_TRUE(g.engaged());
    g.on_alert_resolved();
    EXPECT_FALSE(g.engaged());
    EXPECT_EQ(g.engagements(), 2u);
}

TEST(OverloadGovernor, ResolveWithoutFiringClampsAtZero) {
    // A subscriber attached mid-incident can see a resolve with no matched
    // firing; the count must not wedge negative.
    OverloadGovernor g;
    g.on_alert_resolved();
    g.on_alert_resolved();
    EXPECT_FALSE(g.engaged());
    g.on_alert_firing();
    EXPECT_TRUE(g.engaged());  // one firing still engages
    g.on_alert_resolved();
    EXPECT_FALSE(g.engaged());
}

TEST(OverloadGovernor, OptionsGateEachActuator) {
    OverloadGovernor::Options o;
    o.retry_hint_scale = 8.0;
    o.shed_hopeless = false;
    o.degrade_placement = false;
    OverloadGovernor g(o);
    g.on_alert_firing();
    EXPECT_TRUE(g.engaged());
    EXPECT_DOUBLE_EQ(g.retry_hint_scale(), 8.0);
    EXPECT_FALSE(g.shed_hopeless());
    EXPECT_FALSE(g.degraded_placement());

    g.count_shed();
    g.count_shed();
    EXPECT_EQ(g.shed_total(), 2u);
}

TEST(ServeOverload, EngagedGovernorShedsDeadlineHopelessQueuedRequests) {
    ServeOptions opts;
    opts.max_batch = 1;
    opts.sampler.temperature = 0.0f;
    opts.trace = std::make_shared<obs::TraceRecorder>(1024);
    // A huge hopelessness margin makes any finite deadline hopeless once a
    // single TTFT sample exists — the sweep's decision becomes deterministic
    // instead of racing the real clock.
    OverloadGovernor::Options go;
    go.hopeless_margin = 1e9;
    auto governor = std::make_shared<OverloadGovernor>(go);
    opts.overload = governor;
    runtime::ServeDeployment d = runtime::synthetic_serve(test_cfg(), 42, opts);

    // Warm up: one completed request seeds the 10s TTFT window the sweep
    // estimates from (no observation → no shedding).
    auto warm = d.engine->submit(Request{.prompt = "warmup", .max_new_tokens = 2});
    d.engine->run_until_idle();
    (void)warm.get();

    governor->on_alert_firing();
    Request blocker;
    blocker.prompt = "blocker";
    blocker.max_new_tokens = 8;
    RequestHandle hb = d.engine->submit(std::move(blocker));
    std::vector<RequestHandle> doomed;
    for (int i = 0; i < 3; ++i) {
        Request r;
        r.prompt = "hopeless";
        r.max_new_tokens = 4;
        r.deadline = std::chrono::steady_clock::now() +
                     std::chrono::seconds(10);  // future, but inside est TTFT
        doomed.push_back(d.engine->submit(std::move(r)));
    }
    d.engine->run_until_idle();

    EXPECT_EQ(hb.get().finish_reason, FinishReason::kBudget);
    for (RequestHandle& h : doomed) {
        const ServeResult& r = h.get();
        EXPECT_EQ(r.finish_reason, FinishReason::kShedOverload);
        EXPECT_TRUE(r.tokens.empty());  // shed from the queue, never decoded
    }
    EXPECT_EQ(d.engine->stats().requests_shed, 3u);
    EXPECT_EQ(governor->shed_total(), 3u);

    const obs::MetricsSnapshot snap = d.engine->metrics_snapshot();
    EXPECT_EQ(snap.counters.at("serve_requests_shed"), 3u);

    // Each shed leaves a kShed trace event carrying the remaining budget.
    std::size_t shed_events = 0;
    for (const obs::TraceRecord& e : opts.trace->snapshot()) {
        if (e.event == obs::TraceEvent::kShed) {
            ++shed_events;
            EXPECT_GT(e.arg, 0u);
        }
    }
    EXPECT_EQ(shed_events, 3u);
}

TEST(ServeOverload, DisengagedGovernorNeverSheds) {
    ServeOptions opts;
    opts.max_batch = 1;
    opts.sampler.temperature = 0.0f;
    OverloadGovernor::Options go;
    go.hopeless_margin = 1e9;
    auto governor = std::make_shared<OverloadGovernor>(go);
    opts.overload = governor;
    runtime::ServeDeployment d = runtime::synthetic_serve(test_cfg(), 42, opts);

    auto warm = d.engine->submit(Request{.prompt = "warmup", .max_new_tokens = 2});
    d.engine->run_until_idle();
    (void)warm.get();
    // Same hopeless shape as above — but no firing alert, so they decode.
    std::vector<RequestHandle> fine;
    for (int i = 0; i < 3; ++i) {
        Request r;
        r.prompt = "still fine";
        r.max_new_tokens = 2;
        r.deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        fine.push_back(d.engine->submit(std::move(r)));
    }
    d.engine->run_until_idle();
    for (RequestHandle& h : fine) {
        EXPECT_EQ(h.get().finish_reason, FinishReason::kBudget);
    }
    EXPECT_EQ(d.engine->stats().requests_shed, 0u);
    EXPECT_EQ(governor->shed_total(), 0u);
}

TEST(ServeOverload, NoTtftObservationMeansNoShedding) {
    // Engaged, but the TTFT window is empty: the sweep has no estimate to
    // judge hopelessness by, so it must not guess.
    ServeOptions opts;
    opts.max_batch = 2;
    opts.sampler.temperature = 0.0f;
    auto governor = std::make_shared<OverloadGovernor>();
    opts.overload = governor;
    runtime::ServeDeployment d = runtime::synthetic_serve(test_cfg(), 42, opts);

    governor->on_alert_firing();
    Request r;
    r.prompt = "first ever";
    r.max_new_tokens = 2;
    r.deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    RequestHandle h = d.engine->submit(std::move(r));
    d.engine->run_until_idle();
    EXPECT_EQ(h.get().finish_reason, FinishReason::kBudget);
    EXPECT_EQ(governor->shed_total(), 0u);
}

}  // namespace efld::serve
