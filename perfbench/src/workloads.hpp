// Workload definitions, request generation and the loops that feed requests
// through the public serve::ServeEngine API.
//
// Every shape parameter (model, server options, loop kind, rate, lengths,
// latency limits) arrives as a key=value parameter frozen in
// perfbench/workloads.json; the seed chooses only prompt bytes, arrival times
// and which request gets which length, so the shape of a workload never
// depends on the seed.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "model/weights.hpp"
#include "serve/serve_engine.hpp"
#include "tracing.hpp"

namespace perfbench {

struct Range {
    std::size_t lo = 0;
    std::size_t hi = 0;
};

struct WorkloadSpec {
    std::string model;  // "tiny-512" | "micro-256"
    efld::engine::BackendKind backend = efld::engine::BackendKind::kHost;
    std::size_t threads = 1;
    std::size_t max_batch = 1;
    bool paging = false;
    std::size_t kv_page_tokens = 16;
    std::size_t pool_pages = 0;
    bool prefix_sharing = false;
    // Open loop: `rate_rps` Poisson arrivals over the run. Closed loop:
    // `clients` callers, each sending its next request when the previous one
    // finishes; `requests_per_client` > 0 makes one pass a fixed batch of
    // requests (repeated on a fresh engine while time remains), 0 keeps
    // sending until the run's time is up.
    bool open_loop = false;
    double rate_rps = 0.0;
    std::size_t clients = 1;
    std::size_t requests_per_client = 0;
    std::size_t max_new = 0;
    // Prompt lengths in tokens, BOS included: `prompt_len` without system
    // prompts; with them, every prompt is one of `system_prompts` shared heads
    // of `system_len` tokens followed by a unique tail of `tail_len` tokens.
    Range prompt_len;
    std::size_t system_prompts = 0;
    std::size_t system_len = 0;
    Range tail_len;
    double ttft_limit_ms = 0.0;
    double itl_limit_ms = 0.0;
    std::size_t oracle_checks = 0;  // requests re-decoded solo per run
    std::size_t setup_repeats = 1;  // set-ups timed per run (median reported)

    [[nodiscard]] efld::model::ModelConfig model_config() const;
};

// Builds a spec from key=value parameters; throws std::invalid_argument on a
// missing, unknown or malformed key.
[[nodiscard]] WorkloadSpec parse_spec(
    const std::vector<std::pair<std::string, std::string>>& params);

// Prompts and arrival times for one seed. Request i's prompt depends only on
// (seed, i) and the spec; open-loop arrival times and prompt lengths are
// drawn once for the whole run.
class RequestGen {
public:
    RequestGen(const WorkloadSpec& spec, std::uint64_t seed, double seconds);

    [[nodiscard]] const std::string& prompt(std::size_t i);
    // Open loop: request count and due offsets (ns from run start).
    [[nodiscard]] const std::vector<std::uint64_t>& due_ns() const noexcept {
        return due_ns_;
    }

private:
    const WorkloadSpec& spec_;
    std::uint64_t seed_;
    std::vector<std::string> system_;
    std::vector<std::uint64_t> due_ns_;
    std::vector<std::size_t> length_;           // open loop: prompt (or tail) tokens
    std::vector<std::uint32_t> system_choice_;  // open loop: system prompt per request
    std::map<std::size_t, std::string> cache_;
};

// What happened to one request.
struct RequestRecord {
    std::uint64_t id = 0;  // request index + 1
    std::size_t prompt_tokens = 0;
    std::uint64_t due_ns = 0;
    std::uint64_t submit_ns = 0;
    std::uint64_t first_ns = 0;
    std::uint64_t last_ns = 0;
    std::uint64_t gap_sum_ns = 0;
    std::size_t gaps = 0;
    bool refused = false;
    bool done = false;
    efld::serve::FinishReason reason = efld::serve::FinishReason::kNone;
    std::vector<std::int32_t> tokens;

    [[nodiscard]] bool ok() const noexcept {
        return done && !refused &&
               (reason == efld::serve::FinishReason::kBudget ||
                reason == efld::serve::FinishReason::kEos);
    }
};

// Simulated statistics of one fixed pass on the twin; compared exactly.
struct SimStats {
    double sim_tok_s = 0.0;
    double sim_weight_bw_pct = 0.0;
    double sim_us_per_step = 0.0;
    double sim_mem_bound_pct = 0.0;
    double sim_compute_pct = 0.0;
    double sim_overhead_pct = 0.0;

    [[nodiscard]] bool operator==(const SimStats&) const = default;
};

struct RunResult {
    std::deque<RequestRecord> requests;
    std::vector<double> itl_ms;  // every inter-token gap
    std::vector<double> lag_ms;  // open loop: submit time minus due time
    double elapsed_s = 0.0;      // measured serving time (passes summed)
    double step_ns = 0.0;        // time inside ServeEngine::step()
    efld::serve::ServeStats stats;  // summed over passes
    std::size_t prefix_cow_copies = 0;  // summed over passes
    // Simulated statistics, one entry per pass (all zero off the twin).
    std::vector<SimStats> sim;
    std::size_t pass_mismatches = 0;  // tokens that differ between fixed passes
    // Traced run only.
    std::vector<double> util_pct;      // (committed + shared) / pool, per step
    std::vector<double> shared_pages;  // prefix pins, per step
    std::vector<double> queue_wait_ms;
    bool attribution_ok = true;        // FCFS request tagging confirmed
};

// The model a workload serves: weights plus the byte sizes the bandwidth
// metrics divide by (computed from tensor sizes).
struct Model {
    std::unique_ptr<efld::model::QuantizedModelWeights> weights;
    double host_weight_bytes = 0.0;    // byte-per-code functional storage
    double packed_weight_bytes = 0.0;  // 4-bit bus format (what DDR streams)
};

[[nodiscard]] Model build_model(const WorkloadSpec& spec);
[[nodiscard]] efld::serve::ServeOptions serve_options(const WorkloadSpec& spec);

// Serves the workload for `seconds`. `rec` null = the untraced run through
// the plain ServeEngine(weights, opts) constructor; non-null = the traced run
// through the bring-your-own-backend constructor with a TracingBackend.
[[nodiscard]] RunResult run_workload(const WorkloadSpec& spec, const Model& model,
                                     RequestGen& gen, double seconds, SpanRecorder* rec);

// Re-decodes `count` finished requests one at a time on a fresh single-slot
// backend (no batching, paging or prefix sharing) and compares tokens.
// Returns the number of mismatches; `checked` receives how many were run.
[[nodiscard]] std::size_t oracle_check(const WorkloadSpec& spec, const Model& model,
                                       RequestGen& gen, const RunResult& run,
                                       std::size_t& checked);

[[nodiscard]] std::uint64_t token_digest(const std::vector<std::int32_t>& tokens);

}  // namespace perfbench
