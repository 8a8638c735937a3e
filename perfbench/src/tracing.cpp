#include "tracing.hpp"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::uint32_t SpanRecorder::begin(const char* name, std::uint64_t request) {
    Span s;
    s.name = name;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = open_.empty() ? 0 : open_.back();
    s.request = request;
    s.start_ns = now_ns();
    spans_.push_back(s);
    open_.push_back(s.id);
    return s.id;
}

void SpanRecorder::end(std::uint32_t id) {
    // ScopedSpan closes spans in LIFO order, so only the top can close.
    if (!open_.empty() && open_.back() == id) open_.pop_back();
    spans_[id - 1].end_ns = now_ns();
}

void SpanRecorder::add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                       std::uint64_t request) {
    Span s;
    s.name = name;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = open_.empty() ? 0 : open_.back();
    s.request = request;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    spans_.push_back(s);
}

void SpanRecorder::write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write span file " + path);
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        // Request spans overlap each other, so each request gets its own
        // track; everything else nests on track 0.
        const std::uint64_t tid = std::string_view(s.name) == "request" ? s.request : 0;
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%" PRIu64
                     ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                     "\"request\":%" PRIu64 ",\"arg\":%" PRIu64 "}}%s\n",
                     s.name, tid, static_cast<double>(s.start_ns - t0) / 1e3, s.us(),
                     s.id, s.parent, s.request, s.arg, i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write span file " + path);
}

TracingBackend::TracingBackend(std::unique_ptr<efld::engine::DecodeBackend> inner,
                               SpanRecorder& rec)
    : inner_(std::move(inner)), rec_(rec) {}

std::size_t TracingBackend::reserve_slot() {
    std::uint64_t request = 0;
    if (!pending_.empty()) {
        request = pending_.front();
        pending_.pop_front();
    }
    const std::uint64_t start = now_ns();
    const ScopedSpan span(&rec_, "engine.reserve_slot", request);
    const std::size_t slot = inner_->reserve_slot();
    if (request != 0 && slot != kNoSlot) {
        slot_request_[slot] = request;
        admitted_ns_[request] = start;
    }
    return slot;
}

void TracingBackend::release_slot(std::size_t slot) {
    const ScopedSpan span(&rec_, "engine.release_slot", request_of(slot));
    inner_->release_slot(slot);
    slot_request_.erase(slot);
}

void TracingBackend::decode_batch(std::span<const std::int32_t> tokens,
                                  std::span<const std::size_t> slots,
                                  std::span<float> logits_out) {
    const ScopedSpan span(&rec_, "engine.decode_batch");
    rec_.set_arg(span.id(), slots.size());
    inner_->decode_batch(tokens, slots, logits_out);
}

std::size_t TracingBackend::adopt_prefix(std::size_t slot,
                                         std::span<const std::int32_t> prompt,
                                         std::size_t max_cover) {
    const std::uint64_t request = request_of(slot);
    adopted_prompts_[request].assign(prompt.begin(), prompt.end());
    const ScopedSpan span(&rec_, "prefix.adopt_prefix", request);
    const std::size_t covered = inner_->adopt_prefix(slot, prompt, max_cover);
    rec_.set_arg(span.id(), covered);
    return covered;
}

std::size_t TracingBackend::register_prefix(std::size_t slot,
                                            std::span<const std::int32_t> prompt,
                                            std::size_t max_new_pages) {
    const ScopedSpan span(&rec_, "prefix.register_prefix", request_of(slot));
    const std::size_t pinned = inner_->register_prefix(slot, prompt, max_new_pages);
    rec_.set_arg(span.id(), pinned);
    return pinned;
}

}  // namespace perfbench
