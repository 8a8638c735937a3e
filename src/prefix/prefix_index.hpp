// Prefix index: chained page hashes -> resident KV pages.
//
// At production scale most traffic shares long system prompts, so the biggest
// remaining capacity win on a fixed DDR budget is storing each shared
// prefix's KV pages ONCE. The index is the lookup half of that deal: it maps
// a hash of the first k FULL pages of a prompt's tokens to the physical page
// holding that span's computed KV state, so a new session whose prompt starts
// with an already-served prefix adopts those pages instead of re-prefilling
// them.
//
// Hashes chain: page k's key folds page k-1's key into an FNV-1a walk over
// page k's token ids, so equal keys imply an identical token PATH from the
// prompt start — two prompts that differ anywhere before page k can never
// collide into sharing page k (up to 64-bit hash collisions, the standard
// paged-attention trade). Only full pages index; a partial tail page is
// private by construction.
//
// Ownership: the index is bookkeeping over a KvBlockPool. Every entry holds
// one pool reference on its page (taken via retain_page at insert, dropped
// via release_page at clear) — PrefixCache (prefix_cache.hpp) owns that
// refcount discipline and the locking; the index is a plain map. This
// mirrors KvBlockPool's pure-bookkeeping stance: physical KV bytes live in
// the arenas.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

namespace efld::prefix {

// Chained FNV-1a keys for every FULL page of `tokens`: out[k] covers
// tokens [0, (k+1)*page_tokens). Empty when tokens holds less than one page.
[[nodiscard]] std::vector<std::uint64_t> prefix_chain_hashes(
    std::span<const std::int32_t> tokens, std::size_t page_tokens);

class PrefixIndex {
public:
    struct Entry {
        std::size_t page = 0;       // physical pool page holding this span's KV
        std::uint64_t parent = 0;   // previous link's key (0 for the first page)
        std::size_t depth = 0;      // pages from the prompt start (0-based)
    };

    // Longest indexed chain matching `hashes` front-to-back: the physical
    // pages for hashes[0..n), stopping at the first miss. Never returns a
    // gap — a chain is only walkable while every link is present.
    [[nodiscard]] std::vector<std::size_t> match(
        std::span<const std::uint64_t> hashes) const;

    [[nodiscard]] bool contains(std::uint64_t hash) const {
        return entries_.find(hash) != entries_.end();
    }

    // Registers `page` under `hash` as depth `depth` (parent = the previous
    // link's hash, 0 at depth 0). Returns false without touching anything
    // when the hash is already indexed, or when the parent link is absent —
    // chains must be inserted root-first so match() never walks a gap.
    bool insert(std::uint64_t hash, std::size_t page, std::uint64_t parent,
                std::size_t depth);

    // Pages the index currently pins (one pool reference each).
    [[nodiscard]] std::size_t pages_held() const { return entries_.size(); }

    // Drops every entry, returning the pages so the caller can release each
    // pool reference. The capacity-pressure escape hatch: a pool starved by
    // pinned prefixes dumps the cache rather than refuse admissible work.
    [[nodiscard]] std::vector<std::size_t> clear();

private:
    std::unordered_map<std::uint64_t, Entry> entries_;
};

}  // namespace efld::prefix
