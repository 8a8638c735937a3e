// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
//             --param key=value ...
//
// The workload's shape arrives as --param pairs (perfbench/run.py passes the
// ones frozen in perfbench/workloads.json). One process sets the workload up,
// serves it through serve::ServeEngine for S seconds and checks the outputs.
//
// --trace 0 prints the end-to-end metrics of that untraced run.
// --trace 1 also serves the same requests again through a TracingBackend,
// times a QuantizedLinear::gemm sweep over the workload's weights, writes the
// spans to DIR/<workload>-seed<N>.spans.json and prints the per-layer
// metrics. Either way the last stdout line is one JSON object with the keys
// correct, attempted, failed and metrics; DIR/<workload>-seed<N>.outputs.json
// receives the per-request output digests that run.py compares with the
// recorded ones.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/threadpool.hpp"
#include "serve/serve_engine.hpp"
#include "tracing.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string out_dir;
    std::vector<std::pair<std::string, std::string>> params;
};

Args parse_args(int argc, char** argv) {
    Args a;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::stoull(v);
            have_seed = true;
        } else if (flag == "--seconds") {
            a.seconds = std::stod(v);
            have_seconds = a.seconds > 0.0;
        } else if (flag == "--trace") {
            if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
            a.trace = v == "1";
            have_trace = true;
        } else if (flag == "--out-dir") {
            a.out_dir = v;
        } else if (flag == "--param") {
            const std::size_t eq = v.find('=');
            if (eq == std::string::npos) throw std::invalid_argument("--param takes key=value");
            a.params.emplace_back(v.substr(0, eq), v.substr(eq + 1));
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (a.workload.empty() || !have_seed || !have_seconds || !have_trace || a.out_dir.empty()) {
        throw std::invalid_argument(
            "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
            "--out-dir DIR --param key=value ...");
    }
    return a;
}

// Nearest-rank percentile; 0 for an empty sample.
double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double s = 0.0;
    for (const double x : v) s += x;
    return s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb() {
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

class Metrics {
public:
    void add(const std::string& name, double value, const std::string& unit) {
        if (!std::isfinite(value)) throw std::runtime_error("metric " + name + " is not finite");
        list_.push_back({name, value, unit});
    }
    [[nodiscard]] const std::vector<Metric>& list() const noexcept { return list_; }

private:
    std::vector<Metric> list_;
};

// Percentile sample sizes, printed so a reader can see which tails the run
// supports (>= 10 samples beyond the percentile).
void print_support(const char* what, std::size_t n, double p) {
    const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
    const std::size_t beyond = n - std::min(n, rank);
    std::printf("  %-14s n=%zu, %zu beyond%s\n", what, n, beyond,
                beyond >= 10 ? "" : "  (fewer than 10: tail not supported by this run)");
}

std::vector<double> ttft_ms(const RunResult& r) {
    std::vector<double> v;
    for (const RequestRecord& q : r.requests) {
        if (q.ok() && q.first_ns != 0) v.push_back(static_cast<double>(q.first_ns - q.due_ns) / 1e6);
    }
    return v;
}

// Generated tokens per second spent inside ServeEngine::step(). On a closed
// loop that is the wall-clock rate; on the open loop it leaves out the idle
// gaps between arrivals, which the frozen arrival rate sets, and so does not
// depend on how many requests a seed's prompts end early at EOS.
double output_tok_s(const RunResult& r) {
    return ratio(static_cast<double>(r.stats.generated_tokens), r.step_ns / 1e9);
}

// First occurrence of each request id (later fixed passes repeat them).
std::map<std::uint64_t, const RequestRecord*> by_id(const RunResult& r) {
    std::map<std::uint64_t, const RequestRecord*> m;
    for (const RequestRecord& q : r.requests) m.emplace(q.id, &q);
    return m;
}

Metrics end_to_end(const WorkloadSpec& spec, const RunResult& r, double setup_s) {
    const std::vector<double> ttft = ttft_ms(r);
    std::size_t good = 0;
    for (const RequestRecord& q : r.requests) {
        if (!q.ok() || q.first_ns == 0) continue;
        const double t = static_cast<double>(q.first_ns - q.due_ns) / 1e6;
        const double itl = q.gaps > 0 ? static_cast<double>(q.gap_sum_ns) / 1e6 /
                                            static_cast<double>(q.gaps)
                                      : 0.0;
        if (t <= spec.ttft_limit_ms && itl <= spec.itl_limit_ms) ++good;
    }
    Metrics m;
    m.add("setup_s", setup_s, "s");
    m.add("output_tok_s", output_tok_s(r), "tok/s");
    m.add("peak_rss_mb", peak_rss_mb(), "MiB");
    m.add("ttft_p50_ms", percentile(ttft, 0.50), "ms");
    m.add("ttft_p90_ms", percentile(ttft, 0.90), "ms");
    m.add("itl_p50_ms", percentile(r.itl_ms, 0.50), "ms");
    m.add("itl_p90_ms", percentile(r.itl_ms, 0.90), "ms");
    m.add("goodput_rps", ratio(static_cast<double>(good), r.elapsed_s), "req/s");
    std::printf("sample sizes:\n");
    print_support("ttft p50", ttft.size(), 0.50);
    print_support("ttft p90", ttft.size(), 0.90);
    print_support("itl p50", r.itl_ms.size(), 0.50);
    print_support("itl p90", r.itl_ms.size(), 0.90);
    std::printf("  goodput        %zu of %zu requests met ttft <= %.0f ms and mean itl <= %.0f ms\n",
                good, r.requests.size(), spec.ttft_limit_ms, spec.itl_limit_ms);
    return m;
}

// quant layer: one full-model projection walk (every matrix of every layer
// plus lm_head) through QuantizedLinear::gemm at batch b, on the workload's
// weights and thread count. Median of repeated walks.
struct Sweep {
    double us[4] = {0, 0, 0, 0};
};

Sweep gemm_sweep(const Model& model, std::size_t threads, SpanRecorder& rec) {
    std::vector<const efld::quant::QuantizedLinear*> mats;
    for (const auto& l : model.weights->layers) {
        for (const auto* q : {&l.wq, &l.wk, &l.wv, &l.wo, &l.w_gate, &l.w_up, &l.w_down}) {
            mats.push_back(q);
        }
    }
    mats.push_back(&model.weights->lm_head);
    std::size_t max_in = 0;
    std::size_t max_out = 0;
    for (const auto* q : mats) {
        max_in = std::max(max_in, q->cols());
        max_out = std::max(max_out, q->rows());
    }
    std::vector<float> x(8 * max_in);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::sin(static_cast<float>(i) * 0.37f);
    std::vector<float> y(8 * max_out);
    std::unique_ptr<efld::ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<efld::ThreadPool>(threads);

    Sweep s;
    const std::size_t batches[4] = {1, 2, 4, 8};
    const ScopedSpan sweep(&rec, "quant.sweep");
    for (int bi = 0; bi < 4; ++bi) {
        const std::size_t b = batches[bi];
        std::vector<double> walks;
        const std::uint64_t start = now_ns();
        // 3 warm-up walks, then at least 15 timed walks and 0.25 s.
        for (int i = 0; walks.size() < 15 || now_ns() - start < 250'000'000ULL; ++i) {
            const ScopedSpan walk(&rec, "quant.gemm_walk");
            rec.set_arg(walk.id(), b);
            const std::uint64_t t0 = now_ns();
            for (const auto* q : mats) {
                q->gemm(std::span<const float>(x.data(), b * q->cols()), b,
                        std::span<float>(y.data(), b * q->rows()), pool.get());
            }
            if (i >= 3) walks.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        }
        s.us[bi] = percentile(walks, 0.5);
    }
    return s;
}

Metrics per_layer(const Model& model, const RunResult& base, const RunResult& tr,
                  const SpanRecorder& rec, const Sweep& sweep) {
    // engine layer: the decorator's decode_batch spans.
    std::map<std::uint32_t, double> decode_in_step;  // step span id -> decode ns
    double decode_ns = 0.0;
    double lanes = 0.0;
    double decode_calls = 0.0;
    std::vector<double> b1_us;
    std::vector<double> adopt_us;
    std::vector<double> register_us;
    for (const Span& s : rec.spans()) {
        const std::string_view name = s.name;
        const auto ns = static_cast<double>(s.end_ns - s.start_ns);
        if (name == "engine.decode_batch") {
            decode_ns += ns;
            lanes += static_cast<double>(s.arg);
            decode_calls += 1.0;
            if (s.arg == 1) b1_us.push_back(ns / 1e3);
            decode_in_step[s.parent] += ns;
        } else if (name == "prefix.adopt_prefix") {
            adopt_us.push_back(ns / 1e3);
        } else if (name == "prefix.register_prefix") {
            register_us.push_back(ns / 1e3);
        }
    }
    std::vector<double> step_self_us;
    for (const Span& s : rec.spans()) {
        if (std::string_view(s.name) != "serve.step") continue;
        const auto it = decode_in_step.find(s.id);
        const double inner = it == decode_in_step.end() ? 0.0 : it->second;
        step_self_us.push_back((static_cast<double>(s.end_ns - s.start_ns) - inner) / 1e3);
    }
    const efld::serve::ServeStats& st = tr.stats;
    const double elapsed_ns = tr.elapsed_s * 1e9;
    const double requests = static_cast<double>(tr.requests.size());
    double prompt_tokens = 0.0;
    for (const RequestRecord& q : tr.requests) prompt_tokens += static_cast<double>(q.prompt_tokens);
    const SimStats sim = tr.sim.empty() ? SimStats{} : tr.sim.front();
    const bool simulated = st.simulated_ns > 0.0;

    Metrics m;
    m.add("quant.gemm_b1_us", sweep.us[0], "us");
    m.add("quant.gemm_b2_us", sweep.us[1], "us");
    m.add("quant.gemm_b4_us", sweep.us[2], "us");
    m.add("quant.gemm_b8_us", sweep.us[3], "us");
    m.add("quant.gemm_b1_gbps", ratio(model.host_weight_bytes, sweep.us[0] * 1e3), "GB/s");
    m.add("engine.step_b1_us", percentile(b1_us, 0.5), "us");
    m.add("engine.lane_us", ratio(decode_ns, lanes) / 1e3, "us");
    m.add("engine.lanes_per_step", ratio(lanes, decode_calls), "lanes");
    m.add("engine.busy_pct", ratio(decode_ns, elapsed_ns) * 100.0, "%");
    m.add("engine.weight_gbps", ratio(model.host_weight_bytes * st.weight_walks, decode_ns), "GB/s");
    m.add("engine.walks_per_token", st.weight_walks_per_token(), "walks");
    m.add("engine.prefill_lane_pct",
          ratio(static_cast<double>(st.lane_steps - st.generated_tokens),
                static_cast<double>(st.lane_steps)) * 100.0,
          "%");
    m.add("serve.step_self_us", mean(step_self_us), "us");
    m.add("serve.queue_wait_p50_ms", percentile(tr.queue_wait_ms, 0.5), "ms");
    m.add("serve.queue_wait_p90_ms", percentile(tr.queue_wait_ms, 0.9), "ms");
    m.add("serve.idle_pct", std::max(0.0, 100.0 - ratio(tr.step_ns, elapsed_ns) * 100.0), "%");
    m.add("serve.deferrals_per_req",
          ratio(static_cast<double>(st.capacity_deferrals), requests), "count");
    m.add("kvpool.util_mean_pct", mean(tr.util_pct), "%");
    m.add("kvpool.util_peak_pct",
          tr.util_pct.empty() ? 0.0 : *std::max_element(tr.util_pct.begin(), tr.util_pct.end()),
          "%");
    m.add("kvpool.shared_pages_mean", mean(tr.shared_pages), "pages");
    m.add("prefix.hit_token_pct",
          ratio(static_cast<double>(st.prefix_hit_tokens), prompt_tokens) * 100.0, "%");
    m.add("prefix.hits", static_cast<double>(st.prefix_hits), "count");
    m.add("prefix.cow_copies", static_cast<double>(tr.prefix_cow_copies), "count");
    m.add("prefix.cache_drops", static_cast<double>(st.prefix_cache_drops), "count");
    m.add("prefix.adopt_us", mean(adopt_us), "us");
    m.add("prefix.register_us", mean(register_us), "us");
    m.add("accel.wall_ms_per_lane",
          simulated ? ratio(st.wall_ns, static_cast<double>(st.lane_steps)) / 1e6 : 0.0, "ms");
    m.add("accel.wall_per_sim", simulated ? ratio(st.wall_ns, st.simulated_ns) : 0.0, "ratio");
    m.add("accel.sim_us_per_step", sim.sim_us_per_step, "us");
    m.add("accel.sim_mem_bound_pct", sim.sim_mem_bound_pct, "%");
    m.add("accel.sim_compute_pct", sim.sim_compute_pct, "%");
    m.add("accel.sim_overhead_pct", sim.sim_overhead_pct, "%");
    m.add("accel.sim_tok_s", sim.sim_tok_s, "tok/s");
    m.add("accel.sim_weight_bw_pct", sim.sim_weight_bw_pct, "%");
    m.add("serve.itl_p99_ms", percentile(tr.itl_ms, 0.99), "ms");
    m.add("gen.lag_p99_ms", percentile(base.lag_ms, 0.99), "ms");
    // Extra step() time per generated token in the traced run.
    m.add("trace.overhead_pct", (ratio(output_tok_s(base), output_tok_s(tr)) - 1.0) * 100.0, "%");
    return m;
}

std::string hex(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

void write_outputs(const std::string& path, const Args& a, const RunResult& r) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"seconds\":%.17g,\"digests\":{",
                 a.workload.c_str(), a.seed, a.seconds);
    bool first = true;
    for (const auto& [id, q] : by_id(r)) {
        if (!q->ok()) continue;
        std::fprintf(f, "%s\"%" PRIu64 "\":\"%s\"", first ? "" : ",", id,
                     hex(token_digest(q->tokens)).c_str());
        first = false;
    }
    const SimStats s = r.sim.empty() ? SimStats{} : r.sim.front();
    std::fprintf(f,
                 "},\"sim\":{\"sim_tok_s\":%.17g,\"sim_weight_bw_pct\":%.17g,"
                 "\"sim_us_per_step\":%.17g,\"sim_mem_bound_pct\":%.17g,"
                 "\"sim_compute_pct\":%.17g,\"sim_overhead_pct\":%.17g}}\n",
                 s.sim_tok_s, s.sim_weight_bw_pct, s.sim_us_per_step, s.sim_mem_bound_pct,
                 s.sim_compute_pct, s.sim_overhead_pct);
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

void print_requests(const char* label, const RunResult& r) {
    std::size_t refused = 0;
    std::size_t failed = 0;
    for (const RequestRecord& q : r.requests) {
        if (q.refused) ++refused;
        if (!q.ok()) ++failed;
    }
    std::printf("%s: sent %zu, succeeded %zu, failed %zu (refused %zu), %zu tokens in %.3f s\n",
                label, r.requests.size(), r.requests.size() - failed, failed, refused,
                r.stats.generated_tokens, r.elapsed_s);
}

std::size_t count_failed(const RunResult& r) {
    return static_cast<std::size_t>(
        std::count_if(r.requests.begin(), r.requests.end(),
                      [](const RequestRecord& q) { return !q.ok(); }));
}

int run(const Args& a) {
    const WorkloadSpec spec = parse_spec(a.params);
    std::filesystem::create_directories(a.out_dir);
    const std::string stem = a.out_dir + "/" + a.workload + "-seed" + std::to_string(a.seed);

    std::printf("workload %s  seed %" PRIu64 "  seconds %.3g  trace %d\n", a.workload.c_str(),
                a.seed, a.seconds, a.trace ? 1 : 0);
    std::printf("shape: %s on %s backend, threads %zu, max_batch %zu, paging %s (pool %zu pages "
                "of %zu tokens), prefix sharing %s, max_new %zu\n",
                spec.model.c_str(), std::string(efld::engine::to_string(spec.backend)).c_str(),
                spec.threads, spec.max_batch, spec.paging ? "on" : "off", spec.pool_pages,
                spec.kv_page_tokens, spec.prefix_sharing ? "on" : "off", spec.max_new);
    if (spec.open_loop) {
        std::printf("open loop: %.3f req/s Poisson arrivals, ttft limit %.0f ms, itl limit %.0f ms\n",
                    spec.rate_rps, spec.ttft_limit_ms, spec.itl_limit_ms);
    } else {
        std::printf("closed loop: %zu client(s), %s, ttft limit %.0f ms, itl limit %.0f ms\n",
                    spec.clients,
                    spec.requests_per_client > 0
                        ? (std::to_string(spec.requests_per_client) + " requests each per pass").c_str()
                        : "sending until time is up",
                    spec.ttft_limit_ms, spec.itl_limit_ms);
    }

    // Set-up: weight synthesis, quantization and engine construction, timed
    // several times (the median is reported); the last weights are served.
    std::vector<double> setup_s;
    Model model;
    const std::size_t setups = a.trace ? 1 : spec.setup_repeats;
    for (std::size_t i = 0; i < setups; ++i) {
        const std::uint64_t t0 = now_ns();
        Model m = build_model(spec);
        { const efld::serve::ServeEngine engine(*m.weights, serve_options(spec)); }
        setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
        model = std::move(m);
    }

    RequestGen gen(spec, a.seed, a.seconds);
    const RunResult base = run_workload(spec, model, gen, a.seconds, nullptr);
    print_requests("requests", base);
    std::printf("gen.lag_p99_ms %.4f (open-loop generator lateness)\n", percentile(base.lag_ms, 0.99));

    bool correct = true;
    std::size_t checked = 0;
    const std::size_t mismatches = oracle_check(spec, model, gen, base, checked);
    std::printf("check: %zu of %zu sampled requests match a solo re-decode\n", checked - mismatches,
                checked);
    if (mismatches > 0 || checked == 0) correct = false;
    if (base.pass_mismatches > 0) {
        std::printf("ERROR: %zu requests decoded differently in a repeated pass\n", base.pass_mismatches);
        correct = false;
    }
    for (const SimStats& s : base.sim) {
        if (!(s == base.sim.front())) {
            std::printf("ERROR: simulated statistics differ between passes of one run\n");
            correct = false;
            break;
        }
    }
    write_outputs(stem + ".outputs.json", a, base);

    std::size_t attempted = base.requests.size();
    std::size_t failed = count_failed(base);
    Metrics metrics;
    if (!a.trace) {
        metrics = end_to_end(spec, base, percentile(setup_s, 0.5));
    } else {
        SpanRecorder rec;
        const RunResult tr = run_workload(spec, model, gen, a.seconds, &rec);
        print_requests("traced requests", tr);
        attempted += tr.requests.size();
        failed += count_failed(tr);
        const auto base_ids = by_id(base);
        std::size_t compared = 0;
        std::size_t differ = 0;
        for (const auto& [id, q] : by_id(tr)) {
            const auto it = base_ids.find(id);
            if (it == base_ids.end() || !q->ok() || !it->second->ok()) continue;
            ++compared;
            if (q->tokens != it->second->tokens) ++differ;
        }
        std::printf("check: %zu of %zu traced requests reproduce the untraced digests\n",
                    compared - differ, compared);
        if (differ > 0 || compared == 0) correct = false;
        if (!tr.sim.empty() && !base.sim.empty() && !(tr.sim.front() == base.sim.front())) {
            std::printf("ERROR: simulated statistics differ between the traced and untraced runs\n");
            correct = false;
        }
        if (!tr.attribution_ok) {
            std::printf("ERROR: span request attribution does not follow FCFS admission\n");
            correct = false;
        }
        const Sweep sweep = gemm_sweep(model, spec.threads, rec);
        rec.write_json(stem + ".spans.json");
        std::printf("spans: %zu written to %s.spans.json\n", rec.spans().size(), stem.c_str());
        metrics = per_layer(model, base, tr, rec, sweep);
    }

    for (const Metric& mt : metrics.list()) {
        std::printf("  %-26s %14.4f %s\n", mt.name.c_str(), mt.value, mt.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.list().size(); ++i) {
        const Metric& mt = metrics.list()[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    mt.name.c_str(), mt.value, mt.unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
