// Paged KV-cache bookkeeping: fixed-size token pages behind per-sequence
// block tables.
//
// The paper's second axis is *capacity* utilization: on the KV260 the DDR
// left over after the weights is the scarce resource, and reserving a full
// max_seq_len KV region per concurrent session wastes most of it — a serving
// request that decodes 64 tokens strands 15/16ths of a 1024-token
// reservation. This pool carves the KV budget into pages of `page_tokens`
// tokens instead (one page = that many tokens of K+V state across every
// layer and KV head), hands pages to sequences on demand as they grow, and
// returns them the moment a sequence retires — so the number of concurrent
// sessions is bounded by the DDR actually *used*, not by the worst case.
//
// The pool is pure bookkeeping: free-list plus block tables mapping each
// sequence's logical token index to a physical page. Physical storage (the
// paged arenas both decode backends keep KV in, the device's DDR KV regions)
// indexes through it. Page sizing defaults to 16 tokens — the Fig. 4B scale-zero FIFO flush
// granularity — so a page boundary never splits a pack word.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bitpack.hpp"
#include "model/config.hpp"

namespace efld::kvpool {

struct KvPoolConfig {
    std::size_t page_tokens = 16;  // tokens per page (16 = pack-word aligned)
    std::size_t n_pages = 0;       // physical pages in the pool
};

// Modeled DDR bytes one page occupies for a (config, scheme) pair:
// page_tokens tokens of K and V codes across every layer and KV head, plus
// their scale-zero packs. This is the quantum the capacity budget is spent in.
[[nodiscard]] std::uint64_t page_bytes(const model::ModelConfig& cfg,
                                       const model::QuantScheme& scheme,
                                       std::size_t page_tokens);

// How many pages a DDR byte budget affords (floor).
[[nodiscard]] std::size_t pages_for_budget(const model::ModelConfig& cfg,
                                           const model::QuantScheme& scheme,
                                           std::uint64_t budget_bytes,
                                           std::size_t page_tokens);

class KvBlockPool {
public:
    static constexpr std::size_t kNoPage = static_cast<std::size_t>(-1);

    explicit KvBlockPool(KvPoolConfig cfg);

    // Opens a new sequence (empty block table). Ids are reused smallest-first
    // after free_sequence, so a fixed slot population sees stable ids.
    [[nodiscard]] std::size_t create_sequence();
    // Returns every page to the free list and retires the id.
    void free_sequence(std::size_t seq);
    // Returns the pages but keeps the id with an empty table (slot reuse).
    void reset_sequence(std::size_t seq);

    // Grows `seq` by one token, taking a fresh page when the token crosses a
    // page boundary. Returns false — with the sequence unchanged — when the
    // pool has no free page for it (capacity exhausted; the admission layer
    // exists to make this unreachable for admitted sequences). Throws when the
    // write would land in a page shared with another holder: callers must
    // resolve write_needs_cow() via cow_page() first, so a shared page can
    // never be silently corrupted.
    [[nodiscard]] bool append_token(std::size_t seq);

    // ---- prefix sharing: refcounted pages + copy-on-write ----
    //
    // Pages are refcounted (a freshly appended page holds one reference, its
    // owner's). The prefix layer takes extra references with retain_page —
    // from a PrefixIndex pinning a registered prefix resident, or from
    // adopt_pages mapping a matched prefix into a new sequence — and every
    // holder releases symmetrically; a page returns to the free list only at
    // refcount zero. The pool stays pure bookkeeping: *what* the bytes in a
    // shared page mean is the arenas' business.

    // Takes one extra reference on an in-use page.
    void retain_page(std::size_t page);
    // Drops one reference; the page rejoins the free list at zero.
    void release_page(std::size_t page);
    [[nodiscard]] std::uint32_t page_refcount(std::size_t page) const;
    // Sum of refcounts over in-use pages (property-test invariant surface).
    [[nodiscard]] std::uint64_t refcount_sum() const;

    // Maps `pages` (a matched prefix chain, already resident) into the empty
    // sequence `seq` at `tokens` logical tokens, retaining each page. tokens
    // may end mid-last-page — the tail of that page is unreachable history the
    // sequence overwrites via CoW when it grows into it.
    void adopt_pages(std::size_t seq, std::span<const std::size_t> pages,
                     std::size_t tokens);

    // True when the next append_token would write into a page whose refcount
    // is > 1 (shared) — the caller must cow_page() first.
    [[nodiscard]] bool write_needs_cow(std::size_t seq) const;

    struct CowResult {
        bool ok = false;             // false: no free page; seq is unchanged
        std::size_t old_page = kNoPage;  // the shared page (still valid, for copying)
        std::size_t new_page = kNoPage;  // seq's private replacement
    };
    // Replaces the shared page the next append would write with a private
    // copy: takes a free page, swaps it into seq's block table, and drops
    // seq's reference on the shared original. Refuses without corruption
    // (ok = false, nothing changed) when the pool has no free page. The
    // caller copies the physical bytes old_page -> new_page.
    [[nodiscard]] CowResult cow_page(std::size_t seq);

    // CoW copies performed over the pool's lifetime (metrics; readable from
    // any thread).
    [[nodiscard]] std::uint64_t cow_copies() const noexcept {
        return cow_copies_.load(std::memory_order_relaxed);
    }

    [[nodiscard]] std::size_t seq_tokens(std::size_t seq) const;
    // Physical pages backing `seq`, in logical order (the block table).
    [[nodiscard]] const std::vector<std::size_t>& block_table(std::size_t seq) const;

    struct PageSlot {
        std::size_t page = kNoPage;  // physical page id
        std::size_t offset = 0;      // token offset within the page
    };
    // Physical location of logical token `token` of `seq`.
    [[nodiscard]] PageSlot locate(std::size_t seq, std::size_t token) const;

    [[nodiscard]] std::size_t page_tokens() const noexcept { return cfg_.page_tokens; }
    [[nodiscard]] std::size_t pages_total() const noexcept { return cfg_.n_pages; }
    [[nodiscard]] std::size_t pages_free() const noexcept { return free_.size(); }
    [[nodiscard]] std::size_t pages_used() const noexcept {
        return cfg_.n_pages - free_.size();
    }
    // Pages `n_tokens` tokens occupy (the governor's demand unit).
    [[nodiscard]] std::size_t pages_for_tokens(std::size_t n_tokens) const noexcept {
        return static_cast<std::size_t>(div_ceil(n_tokens, cfg_.page_tokens));
    }

private:
    struct Sequence {
        bool live = false;
        std::size_t tokens = 0;
        std::vector<std::size_t> pages;  // block table, logical page order
    };

    [[nodiscard]] const Sequence& seq_checked(std::size_t seq) const;

    // Page the next append_token of `seq` writes into, or kNoPage when the
    // write opens a fresh page (a fresh page is never shared).
    [[nodiscard]] std::size_t write_page(const Sequence& s) const;

    KvPoolConfig cfg_;
    std::vector<std::size_t> free_;      // free physical page ids (stack)
    std::vector<Sequence> seqs_;         // index = sequence id
    std::vector<std::uint32_t> refcount_;  // per physical page; 0 = free
    std::atomic<std::uint64_t> cow_copies_{0};
};

}  // namespace efld::kvpool
