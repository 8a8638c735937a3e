// The one windowed-history primitive: a ring of fixed-width time buckets.
//
// Every TimeSeriesStore level and the serve engine's 10 s TTFT window (its
// overload-shedding estimate) keep their history in a TimeRing, and the ring
// alone owns the bucket arithmetic:
//   - a time t lands in bucket index t / step, stored in slot index % slots;
//   - writing to a slot that holds another index (the ring lapped it, or it
//     was never used) recycles it to a fresh Cell first;
//   - a window of `span` buckets ending at `now` covers the indices in
//     (cur - span, cur], cur = now / step, span at most `slots`. Each index
//     must match its slot's stamp exactly, so a slot stamped in the future
//     (the clock stepped back) or left over from before a pause longer than
//     the ring is never read.
//
// Cells are plain aggregates (a scalar sum, a sparse HistogramCell). The ring
// is not thread-safe: its owner locks around it or keeps it to one thread.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace efld::obs {

template <class Cell>
class TimeRing {
public:
    // Zero step or slots clamp to one.
    TimeRing(std::uint64_t step_ns, std::size_t slots)
        : step_(std::max<std::uint64_t>(step_ns, 1)),
          slots_(std::max<std::size_t>(slots, 1)) {}

    [[nodiscard]] std::size_t slots() const noexcept { return slots_.size(); }

    // The cell of the bucket holding t_ns, recycled if the ring lapped it.
    Cell& at(std::uint64_t t_ns) {
        const std::uint64_t index = t_ns / step_;
        Slot& s = slots_[index % slots_.size()];
        if (s.index != index) s = Slot{index, Cell{}};
        return s.cell;
    }

    // Buckets from from_ns's through to_ns's, inclusive; 0 when from > to.
    [[nodiscard]] std::uint64_t span_between(std::uint64_t from_ns,
                                             std::uint64_t to_ns) const noexcept {
        return from_ns > to_ns ? 0 : to_ns / step_ - from_ns / step_ + 1;
    }

    // Calls f(bucket_start_ns, cell), oldest first, for every live bucket of
    // the window of `span` buckets ending at now_ns.
    template <class F>
    void for_each(std::uint64_t now_ns, std::uint64_t span, F&& f) const {
        const std::uint64_t cur = now_ns / step_;
        // No index below zero; cur + 1 wraps to 0 only at the end of time.
        span = std::min<std::uint64_t>({span, slots_.size(), cur + 1});
        for (std::uint64_t i = cur + 1 - span; span > 0; ++i, --span) {
            const Slot& s = slots_[i % slots_.size()];
            if (s.index == i) f(i * step_, s.cell);
        }
    }

private:
    struct Slot {
        std::uint64_t index = ~std::uint64_t{0};  // absolute bucket, or unused
        Cell cell;
    };

    std::uint64_t step_;
    std::vector<Slot> slots_;
};

}  // namespace efld::obs
