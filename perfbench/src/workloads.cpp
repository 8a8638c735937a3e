#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <thread>

#include "memsim/memory_system.hpp"
#include "model/sampler.hpp"
#include "model/tokenizer.hpp"
#include "serve/serve_engine.hpp"

namespace perfbench {

namespace {

namespace eng = efld::engine;
namespace sv = efld::serve;

// Weights are part of the system under test, not of the workload input: they
// stay fixed while --seed varies the requests.
constexpr std::uint64_t kWeightSeed = 42;

// Salts keep the independent random streams of one seed apart.
constexpr std::uint64_t kSaltSystem = 0x5359535445ULL;
constexpr std::uint64_t kSaltArrivals = 0x415252495645ULL;
constexpr std::uint64_t kSaltClasses = 0x434C41535345ULL;
constexpr std::uint64_t kSaltRequest = 0x5245515545ULL;

std::uint64_t mix(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

// mt19937_64's output sequence is fixed by the standard; the distributions in
// <random> are not, so draws are derived here to keep inputs identical across
// standard libraries.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : g_(mix(seed)) {}
    std::uint64_t next() { return g_(); }
    std::size_t in(Range r) { return r.lo + static_cast<std::size_t>(next() % (r.hi - r.lo + 1)); }
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    template <class T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::swap(v[i - 1], v[static_cast<std::size_t>(next() % i)]);
        }
    }

private:
    std::mt19937_64 g_;
};

// A prompt of `tokens` tokens: the tokenizer prepends BOS, so tokens - 1 bytes.
std::string random_bytes(Rng& rng, std::size_t n) {
    std::string s(n, '\0');
    for (char& c : s) c = static_cast<char>(rng.next() & 0xFFu);
    return s;
}

std::size_t to_size(const std::string& key, const std::string& v) {
    std::size_t used = 0;
    const unsigned long long x = std::stoull(v, &used);
    if (used != v.size()) throw std::invalid_argument("bad integer for " + key + ": " + v);
    return static_cast<std::size_t>(x);
}

double to_double(const std::string& key, const std::string& v) {
    std::size_t used = 0;
    const double x = std::stod(v, &used);
    if (used != v.size() || !std::isfinite(x)) {
        throw std::invalid_argument("bad number for " + key + ": " + v);
    }
    return x;
}

Range to_range(const std::string& key, const std::string& v) {
    const std::size_t dash = v.find('-');
    if (dash == std::string::npos) throw std::invalid_argument("bad range for " + key + ": " + v);
    Range r{to_size(key, v.substr(0, dash)), to_size(key, v.substr(dash + 1))};
    if (r.lo > r.hi) throw std::invalid_argument("empty range for " + key + ": " + v);
    return r;
}

bool to_bool(const std::string& key, const std::string& v) {
    if (v == "1" || v == "true") return true;
    if (v == "0" || v == "false") return false;
    throw std::invalid_argument("bad flag for " + key + ": " + v);
}

void add_stats(sv::ServeStats& into, const sv::ServeStats& s) {
    into.steps += s.steps;
    into.weight_walks += s.weight_walks;
    into.lane_steps += s.lane_steps;
    into.prompt_tokens += s.prompt_tokens;
    into.generated_tokens += s.generated_tokens;
    into.requests_completed += s.requests_completed;
    into.capacity_deferrals += s.capacity_deferrals;
    into.queue_promotions += s.queue_promotions;
    into.peak_batch = std::max(into.peak_batch, s.peak_batch);
    into.prefix_hits += s.prefix_hits;
    into.prefix_hit_tokens += s.prefix_hit_tokens;
    into.prefix_cache_drops += s.prefix_cache_drops;
    into.wall_ns += s.wall_ns;
    into.simulated_ns += s.simulated_ns;
    into.sim_mem_bound_ns += s.sim_mem_bound_ns;
    into.sim_compute_ns += s.sim_compute_ns;
    into.sim_overhead_ns += s.sim_overhead_ns;
}

SimStats sim_stats(const sv::ServeStats& s, const Model& model) {
    SimStats out;
    if (s.simulated_ns <= 0.0) return out;
    const double peak_gbps = efld::memsim::MemorySystemConfig::kv260().peak_bytes_per_s() / 1e9;
    out.sim_tok_s = s.simulated_tokens_per_s();
    out.sim_weight_bw_pct =
        model.packed_weight_bytes * s.weight_walks / s.simulated_ns / peak_gbps * 100.0;
    out.sim_us_per_step = s.simulated_ns / static_cast<double>(s.steps) / 1e3;
    out.sim_mem_bound_pct = s.sim_mem_bound_ns / s.simulated_ns * 100.0;
    out.sim_compute_pct = s.sim_compute_ns / s.simulated_ns * 100.0;
    out.sim_overhead_pct = s.sim_overhead_ns / s.simulated_ns * 100.0;
    return out;
}

// One serve engine, optionally over a TracingBackend. `packed` holds the
// twin's DDR image for the traced construction and must outlive the engine,
// hence the member order.
struct Served {
    std::unique_ptr<efld::accel::PackedModel> packed;
    std::unique_ptr<sv::ServeEngine> engine;
    TracingBackend* tracer = nullptr;
};

Served make_engine(const WorkloadSpec& spec, const Model& model, SpanRecorder* rec) {
    const sv::ServeOptions o = serve_options(spec);
    Served s;
    if (rec == nullptr) {
        s.engine = std::make_unique<sv::ServeEngine>(*model.weights, o);
        return s;
    }
    // The same backend the plain constructor builds, from the same options.
    efld::model::EngineOptions eo;
    eo.use_kv8 = o.use_kv8;
    eo.kv_bits = o.kv_bits;
    eo.threads = o.threads;
    eo.max_batch = o.max_batch;
    eo.packed_weights = o.packed_weights;
    if (o.paging) {
        eo.kv_page_tokens = o.kv_page_tokens;
        eo.kv_pool_pages = o.kv_pool_pages;
        eo.prefix_sharing = o.prefix_sharing;
    }
    efld::accel::AcceleratorOptions ao;
    ao.collect_timing = o.collect_timing;
    eng::BackendBundle b = eng::make_backend(o.backend, *model.weights, eo, ao);
    s.packed = std::move(b.packed);
    auto tracer = std::make_unique<TracingBackend>(std::move(b.backend), *rec);
    s.tracer = tracer.get();
    s.engine = std::make_unique<sv::ServeEngine>(std::move(tracer), o);
    return s;
}

struct InFlight {
    RequestRecord* rec;
    sv::RequestHandle handle;
};

class Driver {
public:
    Driver(const WorkloadSpec& spec, RequestGen& gen, RunResult& out, SpanRecorder* rec,
           Served& served)
        : spec_(spec), gen_(gen), out_(out), rec_(rec), served_(served) {}

    RequestRecord& submit(std::size_t index, std::uint64_t due_ns) {
        RequestRecord& r = out_.requests.emplace_back();
        r.id = index + 1;
        r.due_ns = due_ns;
        sv::Request req;
        req.prompt = gen_.prompt(index);
        req.max_new_tokens = spec_.max_new;
        RunResult* out = &out_;
        req.on_token = [&r, out](std::int32_t, std::string_view) {
            const std::uint64_t t = now_ns();
            if (r.first_ns == 0) {
                r.first_ns = t;
            } else {
                const std::uint64_t gap = t - r.last_ns;
                r.gap_sum_ns += gap;
                ++r.gaps;
                out->itl_ms.push_back(static_cast<double>(gap) / 1e6);
            }
            r.last_ns = t;
        };
        r.submit_ns = now_ns();
        try {
            sv::RequestHandle h = served_.engine->submit(std::move(req));
            if (served_.tracer != nullptr) served_.tracer->note_submitted(r.id);
            inflight_.push_back({&r, std::move(h)});
        } catch (const std::exception&) {
            r.refused = true;
            r.done = true;
        }
        return r;
    }

    bool has_work() const {
        return served_.engine->active_sessions() > 0 ||
               served_.engine->queued_requests() > 0;
    }

    void step() {
        const std::uint64_t t0 = now_ns();
        {
            const ScopedSpan span(rec_, "serve.step");
            served_.engine->step();
        }
        out_.step_ns += static_cast<double>(now_ns() - t0);
        if (rec_ != nullptr) {
            const sv::ServeLoad l = served_.engine->load();
            if (l.total_pages > 0) {
                out_.util_pct.push_back(
                    static_cast<double>(l.committed_pages + l.shared_pages) /
                    static_cast<double>(l.total_pages) * 100.0);
                out_.shared_pages.push_back(static_cast<double>(l.shared_pages));
            }
        }
    }

    // Resolves finished requests; returns how many finished.
    std::size_t harvest() {
        std::size_t finished = 0;
        for (std::size_t i = 0; i < inflight_.size();) {
            if (!inflight_[i].handle.done()) {
                ++i;
                continue;
            }
            RequestRecord& r = *inflight_[i].rec;
            const sv::ServeResult& res = inflight_[i].handle.get();
            r.tokens = res.tokens;
            r.reason = res.finish_reason;
            r.prompt_tokens = res.prompt_tokens;
            r.done = true;
            if (rec_ != nullptr) {
                rec_->add("request", r.due_ns, r.last_ns != 0 ? r.last_ns : now_ns(), r.id);
            }
            inflight_[i] = std::move(inflight_.back());
            inflight_.pop_back();
            ++finished;
        }
        return finished;
    }

    [[nodiscard]] bool idle() const noexcept { return inflight_.empty(); }

private:
    const WorkloadSpec& spec_;
    RequestGen& gen_;
    RunResult& out_;
    SpanRecorder* rec_;
    Served& served_;
    std::vector<InFlight> inflight_;
};

void sleep_until_ns(std::uint64_t t) {
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(t)));
}

// Poisson arrivals at the frozen rate; time counts from when each request was
// due, so a stalled step shows in every later request's latency.
double run_open(const WorkloadSpec& spec, RequestGen& gen, RunResult& out,
                SpanRecorder* rec, Served& s) {
    Driver d(spec, gen, out, rec, s);
    const std::vector<std::uint64_t>& due = gen.due_ns();
    std::size_t next = 0;
    const std::uint64_t t0 = now_ns();
    while (true) {
        const std::uint64_t now = now_ns();
        while (next < due.size() && t0 + due[next] <= now) {
            const RequestRecord& r = d.submit(next, t0 + due[next]);
            out.lag_ms.push_back(static_cast<double>(r.submit_ns - r.due_ns) / 1e6);
            ++next;
        }
        if (d.has_work()) {
            d.step();
            d.harvest();
        } else if (next < due.size()) {
            sleep_until_ns(t0 + due[next]);
        } else {
            break;
        }
    }
    d.harvest();
    if (!d.idle()) throw std::logic_error("open loop ended with requests in flight");
    const double elapsed = static_cast<double>(now_ns() - t0) / 1e9;
    add_stats(out.stats, s.engine->stats());
    out.prefix_cow_copies += s.engine->backend().prefix_stats().cow_copies;
    return elapsed;
}

// A time-bound closed loop sends at least this many requests, so its TTFT
// p90 has at least 10 samples beyond it even on a slow host.
constexpr std::size_t kMinClosedRequests = 100;

// Closed loop: each client sends its next request as soon as its previous one
// finishes. `total` caps the requests of one pass; `seconds` (if > 0) stops
// new sends once the run's time is up and kMinClosedRequests were sent.
double run_closed(const WorkloadSpec& spec, RequestGen& gen, RunResult& out,
                  SpanRecorder* rec, std::size_t total, double seconds, Served& s) {
    Driver d(spec, gen, out, rec, s);
    std::size_t next = 0;
    const std::uint64_t t0 = now_ns();
    for (std::size_t c = 0; c < spec.clients && next < total; ++c) d.submit(next++, t0);
    while (!d.idle()) {
        if (!d.has_work()) throw std::logic_error("closed loop stalled with requests in flight");
        d.step();
        const std::size_t finished = d.harvest();
        const std::uint64_t now = now_ns();
        const bool time_left = seconds <= 0.0 || next < kMinClosedRequests ||
                               static_cast<double>(now - t0) / 1e9 < seconds;
        for (std::size_t f = 0; f < finished && next < total && time_left; ++f) {
            d.submit(next++, now);
        }
    }
    const double elapsed = static_cast<double>(now_ns() - t0) / 1e9;
    add_stats(out.stats, s.engine->stats());
    out.prefix_cow_copies += s.engine->backend().prefix_stats().cow_copies;
    return elapsed;
}

void collect_queue_waits(const WorkloadSpec& spec, RequestGen& gen, const Served& s,
                         std::size_t first_record, RunResult& out) {
    if (s.tracer == nullptr) return;
    const efld::model::ByteTokenizer tok;
    for (std::size_t i = first_record; i < out.requests.size(); ++i) {
        const RequestRecord& r = out.requests[i];
        const auto it = s.tracer->admitted_ns().find(r.id);
        if (it == s.tracer->admitted_ns().end()) continue;
        out.queue_wait_ms.push_back(static_cast<double>(it->second - r.submit_ns) / 1e6);
        if (spec.prefix_sharing) {
            const auto p = s.tracer->adopted_prompts().find(r.id);
            if (p == s.tracer->adopted_prompts().end() ||
                p->second != tok.encode(gen.prompt(r.id - 1))) {
                out.attribution_ok = false;
            }
        }
    }
}

}  // namespace

efld::model::ModelConfig WorkloadSpec::model_config() const {
    if (model == "tiny-512") return efld::model::ModelConfig::tiny_512();
    if (model == "micro-256") return efld::model::ModelConfig::micro_256();
    throw std::invalid_argument("unknown model " + model);
}

WorkloadSpec parse_spec(const std::vector<std::pair<std::string, std::string>>& params) {
    WorkloadSpec w;
    std::map<std::string, std::string> kv;
    for (const auto& [k, v] : params) {
        if (!kv.emplace(k, v).second) throw std::invalid_argument("duplicate parameter " + k);
    }
    const auto take = [&](const std::string& key) {
        const auto it = kv.find(key);
        if (it == kv.end()) throw std::invalid_argument("missing parameter " + key);
        std::string v = it->second;
        kv.erase(it);
        return v;
    };
    w.model = take("model");
    (void)w.model_config();
    w.backend = eng::backend_kind_from_string(take("backend"));
    w.threads = to_size("threads", take("threads"));
    w.max_batch = to_size("max_batch", take("max_batch"));
    w.paging = to_bool("paging", take("paging"));
    w.kv_page_tokens = to_size("kv_page_tokens", take("kv_page_tokens"));
    w.pool_pages = to_size("pool_pages", take("pool_pages"));
    w.prefix_sharing = to_bool("prefix_sharing", take("prefix_sharing"));
    const std::string loop = take("loop");
    if (loop != "open" && loop != "closed") throw std::invalid_argument("loop must be open|closed");
    w.open_loop = loop == "open";
    w.rate_rps = to_double("rate_rps", take("rate_rps"));
    w.clients = to_size("clients", take("clients"));
    w.requests_per_client = to_size("requests_per_client", take("requests_per_client"));
    w.max_new = to_size("max_new", take("max_new"));
    w.system_prompts = to_size("system_prompts", take("system_prompts"));
    if (w.system_prompts > 0) {
        w.system_len = to_size("system_len", take("system_len"));
        w.tail_len = to_range("tail_len", take("tail_len"));
    } else {
        w.prompt_len = to_range("prompt_len", take("prompt_len"));
    }
    w.ttft_limit_ms = to_double("ttft_limit_ms", take("ttft_limit_ms"));
    w.itl_limit_ms = to_double("itl_limit_ms", take("itl_limit_ms"));
    w.oracle_checks = to_size("oracle_checks", take("oracle_checks"));
    w.setup_repeats = to_size("setup_repeats", take("setup_repeats"));
    if (!kv.empty()) throw std::invalid_argument("unknown parameter " + kv.begin()->first);

    if (w.open_loop ? w.rate_rps <= 0.0 : w.clients == 0) {
        throw std::invalid_argument("an open loop needs rate_rps > 0, a closed loop clients > 0");
    }
    if (w.system_prompts > 0 ? w.system_len < 2 : w.prompt_len.lo < 2) {
        throw std::invalid_argument("prompt lengths count BOS; they must be >= 2");
    }
    if (w.max_new == 0 || w.setup_repeats == 0) {
        throw std::invalid_argument("max_new and setup_repeats must be >= 1");
    }
    return w;
}

RequestGen::RequestGen(const WorkloadSpec& spec, std::uint64_t seed, double seconds)
    : spec_(spec), seed_(seed) {
    Rng sys(seed ^ kSaltSystem);
    for (std::size_t i = 0; i < spec.system_prompts; ++i) {
        system_.push_back(random_bytes(sys, spec.system_len - 1));
    }
    if (!spec.open_loop) return;
    // A Poisson process conditioned on its count: exactly rate x seconds
    // arrivals at sorted uniform times. The count, and so the offered load,
    // is the same for every seed.
    const auto n = static_cast<std::size_t>(std::llround(spec.rate_rps * seconds));
    Rng arrivals(seed ^ kSaltArrivals);
    std::vector<double> t(n);
    for (double& x : t) x = arrivals.unit() * seconds;
    std::sort(t.begin(), t.end());
    due_ns_.reserve(n);
    for (const double x : t) due_ns_.push_back(static_cast<std::uint64_t>(x * 1e9));
    // The multiset of prompt (or tail) lengths and of system prompt choices
    // is fixed by the spec: lengths are spread evenly over their range. The
    // seed only shuffles which request gets which.
    const Range len = spec.system_prompts > 0 ? spec.tail_len : spec.prompt_len;
    length_.resize(n);
    for (std::size_t i = 0; i < n; ++i) length_[i] = len.lo + i * (len.hi - len.lo + 1) / n;
    Rng classes(seed ^ kSaltClasses);
    classes.shuffle(length_);
    if (spec.system_prompts > 0) {
        system_choice_.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            system_choice_[i] = static_cast<std::uint32_t>(i % spec.system_prompts);
        }
        classes.shuffle(system_choice_);
    }
}

const std::string& RequestGen::prompt(std::size_t i) {
    const auto it = cache_.find(i);
    if (it != cache_.end()) return it->second;
    Rng rng(mix(seed_ ^ kSaltRequest) + i);
    std::string p;
    if (spec_.open_loop) {
        // Tail length with system prompts, whole prompt length (BOS
        // included) without.
        const std::size_t len = length_.at(i);
        p = spec_.system_prompts > 0 ? system_[system_choice_.at(i)] + random_bytes(rng, len)
                                     : random_bytes(rng, len - 1);
    } else if (spec_.system_prompts > 0) {
        p = system_[i % spec_.system_prompts] + random_bytes(rng, rng.in(spec_.tail_len));
    } else {
        p = random_bytes(rng, rng.in(spec_.prompt_len) - 1);
    }
    return cache_.emplace(i, std::move(p)).first->second;
}

Model build_model(const WorkloadSpec& spec) {
    Model m;
    const efld::model::ModelWeights fw =
        efld::model::ModelWeights::synthetic(spec.model_config(), kWeightSeed);
    m.weights = std::make_unique<efld::model::QuantizedModelWeights>(
        efld::model::QuantizedModelWeights::quantize(fw, efld::quant::GroupQuantConfig{}));
    const auto count = [&m](const efld::quant::QuantizedLinear& q) {
        m.host_weight_bytes += static_cast<double>(q.codes().size() + 2 * q.scales().size() +
                                                   q.zeros().size());
        m.packed_weight_bytes += static_cast<double>(q.packed_bytes());
    };
    for (const auto& l : m.weights->layers) {
        for (const auto* q : {&l.wq, &l.wk, &l.wv, &l.wo, &l.w_gate, &l.w_up, &l.w_down}) {
            count(*q);
        }
    }
    count(m.weights->lm_head);
    return m;
}

efld::serve::ServeOptions serve_options(const WorkloadSpec& spec) {
    sv::ServeOptions o;
    o.sampler.temperature = 0.0f;
    o.backend = spec.backend;
    o.max_batch = spec.max_batch;
    o.max_queue = 256;
    o.use_kv8 = true;
    o.kv_bits = 8;
    o.threads = spec.threads;
    o.paging = spec.paging;
    o.kv_page_tokens = spec.kv_page_tokens;
    o.kv_pool_pages = spec.paging ? spec.pool_pages : 0;
    o.prefix_sharing = spec.prefix_sharing;
    return o;
}

RunResult run_workload(const WorkloadSpec& spec, const Model& model, RequestGen& gen,
                       double seconds, SpanRecorder* rec) {
    RunResult out;
    if (spec.requests_per_client == 0) {
        Served s = make_engine(spec, model, rec);
        out.elapsed_s = spec.open_loop
                            ? run_open(spec, gen, out, rec, s)
                            : run_closed(spec, gen, out, rec, SIZE_MAX, seconds, s);
        collect_queue_waits(spec, gen, s, 0, out);
        out.sim.push_back(sim_stats(out.stats, model));
        return out;
    }
    // Fixed passes on a fresh engine each, so every pass sees the same batch
    // composition and the simulated statistics repeat exactly. At least two
    // passes run, so each run checks that; a later pass starts only if
    // another pass of the same length still fits in the run.
    const std::size_t total = spec.clients * spec.requests_per_client;
    double last = 0.0;
    do {
        Served s = make_engine(spec, model, rec);
        const std::size_t first = out.requests.size();
        last = run_closed(spec, gen, out, rec, total, 0.0, s);
        out.elapsed_s += last;
        out.sim.push_back(sim_stats(s.engine->stats(), model));
        collect_queue_waits(spec, gen, s, first, out);
        for (std::size_t i = 0; first > 0 && i < total; ++i) {
            if (out.requests[first + i].id != out.requests[i].id ||
                out.requests[first + i].tokens != out.requests[i].tokens) {
                ++out.pass_mismatches;
            }
        }
    } while (out.sim.size() < 2 || out.elapsed_s + last <= seconds);
    return out;
}

std::size_t oracle_check(const WorkloadSpec& spec, const Model& model, RequestGen& gen,
                         const RunResult& run, std::size_t& checked) {
    std::vector<const RequestRecord*> done;
    std::vector<bool> seen;
    for (const RequestRecord& r : run.requests) {
        if (!r.ok()) continue;
        if (seen.size() < r.id + 1) seen.resize(r.id + 1, false);
        if (seen[r.id]) continue;  // later passes repeat the same requests
        seen[r.id] = true;
        done.push_back(&r);
    }
    std::sort(done.begin(), done.end(),
              [](const RequestRecord* a, const RequestRecord* b) { return a->id < b->id; });
    const std::size_t k = std::min(spec.oracle_checks, done.size());
    checked = k;
    if (k == 0) return 0;

    efld::model::EngineOptions eo;
    eo.use_kv8 = true;
    eo.kv_bits = 8;
    eo.threads = spec.backend == eng::BackendKind::kHost ? spec.threads : 1;
    eo.max_batch = 1;
    efld::accel::AcceleratorOptions ao;
    ao.collect_timing = false;
    eng::BackendBundle b = eng::make_backend(spec.backend, *model.weights, eo, ao);
    eng::DecodeBackend& be = *b.backend;
    const efld::model::ByteTokenizer tok;
    const std::size_t vocab = be.config().vocab_size;
    std::vector<float> logits(vocab);
    std::size_t mismatches = 0;
    for (std::size_t j = 0; j < k; ++j) {
        const std::size_t pick = k == 1 ? done.size() - 1 : j * (done.size() - 1) / (k - 1);
        const RequestRecord& r = *done[pick];
        const std::vector<std::int32_t> prompt = tok.encode(gen.prompt(r.id - 1));
        const std::size_t slot = be.reserve_slot();
        const auto feed = [&](std::int32_t t) {
            const std::size_t slots[1] = {slot};
            const std::int32_t toks[1] = {t};
            be.decode_batch(toks, slots, logits);
        };
        for (const std::int32_t t : prompt) feed(t);
        // The serve engine's retirement order: EOS, then budget, then context.
        std::vector<std::int32_t> out;
        while (true) {
            const std::int32_t next = efld::model::Sampler::argmax(logits);
            out.push_back(next);
            if (next == efld::model::ByteTokenizer::kEos || out.size() >= spec.max_new ||
                be.position(slot) >= be.config().max_seq_len) {
                break;
            }
            feed(next);
        }
        be.release_slot(slot);
        if (out != r.tokens) ++mismatches;
    }
    return mismatches;
}

std::uint64_t token_digest(const std::vector<std::int32_t>& tokens) {
    std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a
    for (const std::int32_t t : tokens) {
        auto u = static_cast<std::uint32_t>(t);
        for (int b = 0; b < 4; ++b) {
            h ^= u & 0xFFu;
            h *= 0x100000001B3ULL;
            u >>= 8;
        }
    }
    return h;
}

}  // namespace perfbench
