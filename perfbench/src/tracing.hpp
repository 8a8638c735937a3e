// Benchmark-side tracing: an in-memory span recorder and a timing decorator
// around a DecodeBackend. Nothing here reaches into the library; spans are
// taken around the calls the serve engine makes into its backend and around
// the calls the benchmark makes into the serve engine and the kernels.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/decode_backend.hpp"

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

// One timed interval. `parent` is the id of the span that was open when this
// one began (0 = root); spans of one request share `request` (0 = not tied to
// a request, e.g. a whole engine step).
struct Span {
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::uint64_t request = 0;
    std::uint64_t arg = 0;  // lanes of a decode_batch, tokens/pages of a prefix call

    [[nodiscard]] double us() const noexcept {
        return static_cast<double>(end_ns - start_ns) / 1e3;
    }
};

// Single-threaded span store: begin() pushes onto an open-span stack so
// nested calls pick up their parent, end() pops. Spans are kept in memory and
// written out once, after the run.
class SpanRecorder {
public:
    std::uint32_t begin(const char* name, std::uint64_t request = 0);
    void end(std::uint32_t id);
    void set_arg(std::uint32_t id, std::uint64_t arg) { spans_[id - 1].arg = arg; }
    // A span whose interval was measured elsewhere (e.g. a request's life
    // from its due time to its last token); parent is the current open span.
    void add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
             std::uint64_t request);

    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
    // Chrome trace-event JSON (loads in Perfetto / chrome://tracing); each
    // event carries its span id, parent id and request id in `args`.
    void write_json(const std::string& path) const;

private:
    std::vector<Span> spans_;
    std::vector<std::uint32_t> open_;
};

class ScopedSpan {
public:
    ScopedSpan(SpanRecorder* rec, const char* name, std::uint64_t request = 0)
        : rec_(rec), id_(rec != nullptr ? rec->begin(name, request) : 0) {}
    ~ScopedSpan() {
        if (rec_ != nullptr) rec_->end(id_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;
    [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

private:
    SpanRecorder* rec_;
    std::uint32_t id_;
};

// Timing decorator: forwards every DecodeBackend call to the wrapped backend
// and records a span around decode_batch, reserve_slot, release_slot,
// adopt_prefix and register_prefix. The serve engine admits in FCFS order, so
// the n-th reserve_slot serves the n-th submitted request: the benchmark
// announces each submission with note_submitted() and the decorator tags the
// slot's later spans with that request id.
class TracingBackend final : public efld::engine::DecodeBackend {
public:
    TracingBackend(std::unique_ptr<efld::engine::DecodeBackend> inner,
                   SpanRecorder& rec);

    void note_submitted(std::uint64_t request) { pending_.push_back(request); }
    // Admission time of each request (start of its reserve_slot span).
    [[nodiscard]] const std::unordered_map<std::uint64_t, std::uint64_t>&
    admitted_ns() const noexcept {
        return admitted_ns_;
    }
    // Prompt handed to adopt_prefix for each request (prefix sharing only),
    // so the benchmark can confirm the FCFS request attribution.
    [[nodiscard]] const std::unordered_map<std::uint64_t, std::vector<std::int32_t>>&
    adopted_prompts() const noexcept {
        return adopted_prompts_;
    }

    [[nodiscard]] const efld::model::ModelConfig& config() const noexcept override {
        return inner_->config();
    }
    [[nodiscard]] std::size_t max_batch() const noexcept override {
        return inner_->max_batch();
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return inner_->name();
    }
    [[nodiscard]] std::size_t reserve_slot() override;
    void release_slot(std::size_t slot) override;
    [[nodiscard]] std::size_t position(std::size_t slot) const override {
        return inner_->position(slot);
    }
    void decode_batch(std::span<const std::int32_t> tokens,
                      std::span<const std::size_t> slots,
                      std::span<float> logits_out) override;
    void reset() override { inner_->reset(); }
    [[nodiscard]] efld::engine::StepCost last_step_cost() const noexcept override {
        return inner_->last_step_cost();
    }
    void set_profiler(efld::obs::Profiler* profiler) override {
        inner_->set_profiler(profiler);
    }
    [[nodiscard]] std::size_t probe_prefix(std::span<const std::int32_t> prompt,
                                           std::size_t max_cover) const override {
        return inner_->probe_prefix(prompt, max_cover);
    }
    std::size_t adopt_prefix(std::size_t slot, std::span<const std::int32_t> prompt,
                             std::size_t max_cover) override;
    std::size_t register_prefix(std::size_t slot,
                                std::span<const std::int32_t> prompt,
                                std::size_t max_new_pages) override;
    std::size_t drop_prefix_cache() override { return inner_->drop_prefix_cache(); }
    [[nodiscard]] efld::engine::PrefixSharingStats prefix_stats() const override {
        return inner_->prefix_stats();
    }

private:
    [[nodiscard]] std::uint64_t request_of(std::size_t slot) const {
        const auto it = slot_request_.find(slot);
        return it == slot_request_.end() ? 0 : it->second;
    }

    std::unique_ptr<efld::engine::DecodeBackend> inner_;
    SpanRecorder& rec_;
    std::deque<std::uint64_t> pending_;
    std::unordered_map<std::size_t, std::uint64_t> slot_request_;
    std::unordered_map<std::uint64_t, std::uint64_t> admitted_ns_;
    std::unordered_map<std::uint64_t, std::vector<std::int32_t>> adopted_prompts_;
};

}  // namespace perfbench
