// Prefix sharing over one KvBlockPool: the single implementation both decode
// backends forward their DecodeBackend prefix methods to.
//
// It owns the PrefixIndex, the lock around it, and the hit counters, and it
// keeps the index's refcount discipline: register pins each newly indexed
// page (one pool reference per entry), adopt maps a matched chain into an
// empty sequence through KvBlockPool::adopt_pages, drop releases every pin.
// Physical bytes stay in the arenas: an adopted page is read in place and
// copied on write by the arena, so no KV entry is ever duplicated here.
//
// Threading: probe and stats may run on any thread (the router's affinity
// snapshot, the stats path); adopt, register and drop run on the driver
// thread that owns the pool. The lock covers the index; the pool is only
// touched from the driver thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>

#include "engine/decode_backend.hpp"
#include "kvpool/kv_block_pool.hpp"
#include "prefix/prefix_index.hpp"

namespace efld::prefix {

class PrefixCache {
public:
    // Non-owning: `pool` must outlive the cache.
    explicit PrefixCache(kvpool::KvBlockPool& pool) : pool_(pool) {}

    // Tokens of `prompt` an adoption would cover now: indexed full pages,
    // capped at max_cover (which may stop mid-page). No state changes.
    [[nodiscard]] std::size_t probe(std::span<const std::int32_t> prompt,
                                    std::size_t max_cover) const;

    // Maps the pages covering probe(prompt, max_cover) tokens into the empty
    // sequence `seq` (refcounted; an arena write into a still-shared page
    // copies it first). An empty sequence's layer cadence is at a position
    // boundary, so adoption needs nothing from the arena. Returns the tokens
    // covered; 0 adopts nothing.
    std::size_t adopt(std::size_t seq, std::span<const std::int32_t> prompt,
                      std::size_t max_cover);

    // Indexes the full pages of `prompt` resident in `seq` (its prefill just
    // completed), pinning at most `max_new_pages` pages not already indexed.
    // Returns the pages newly pinned.
    std::size_t pin(std::size_t seq, std::span<const std::int32_t> prompt,
                    std::size_t max_new_pages);

    // Drops the whole index, releasing every pin. Returns pages released.
    std::size_t drop();

    [[nodiscard]] engine::PrefixSharingStats stats() const;

private:
    kvpool::KvBlockPool& pool_;
    mutable std::mutex mu_;
    PrefixIndex index_;
    // Relaxed atomics so stats() needs no ordering games.
    std::atomic<std::size_t> hits_{0};
    std::atomic<std::size_t> covered_{0};
};

}  // namespace efld::prefix
