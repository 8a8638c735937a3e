#include "prefix/prefix_cache.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"

namespace efld::prefix {

std::size_t PrefixCache::probe(std::span<const std::int32_t> prompt,
                               std::size_t max_cover) const {
    const std::size_t pt = pool_.page_tokens();
    const std::vector<std::uint64_t> hashes = prefix_chain_hashes(prompt, pt);
    const std::lock_guard<std::mutex> lock(mu_);
    return std::min(index_.match(hashes).size() * pt, max_cover);
}

std::size_t PrefixCache::adopt(std::size_t seq, std::span<const std::int32_t> prompt,
                               std::size_t max_cover) {
    check(pool_.seq_tokens(seq) == 0, "adopt_prefix: slot already holds history");
    const std::size_t pt = pool_.page_tokens();
    const std::vector<std::uint64_t> hashes = prefix_chain_hashes(prompt, pt);
    const std::lock_guard<std::mutex> lock(mu_);
    const std::vector<std::size_t> pages = index_.match(hashes);
    const std::size_t covered = std::min(pages.size() * pt, max_cover);
    if (covered == 0) return 0;
    // Only the pages the covered tokens reach: a cap that stops mid-page
    // leaves that page's tail to the sequence's own (copy-on-write) writes.
    const std::size_t n_pages = (covered + pt - 1) / pt;
    pool_.adopt_pages(seq, std::span<const std::size_t>(pages.data(), n_pages), covered);
    hits_.fetch_add(1, std::memory_order_relaxed);
    covered_.fetch_add(covered, std::memory_order_relaxed);
    return covered;
}

std::size_t PrefixCache::pin(std::size_t seq, std::span<const std::int32_t> prompt,
                             std::size_t max_new_pages) {
    if (max_new_pages == 0) return 0;
    const std::size_t pt = pool_.page_tokens();
    const std::vector<std::uint64_t> hashes = prefix_chain_hashes(prompt, pt);
    // Every full prompt page must already be resident in the sequence.
    if (pool_.seq_tokens(seq) < hashes.size() * pt) return 0;
    const std::vector<std::size_t>& table = pool_.block_table(seq);
    const std::lock_guard<std::mutex> lock(mu_);
    std::size_t pinned = 0;
    for (std::size_t k = 0; k < hashes.size() && pinned < max_new_pages; ++k) {
        const std::uint64_t parent = k == 0 ? 0 : hashes[k - 1];
        if (!index_.insert(hashes[k], table[k], parent, k)) continue;
        pool_.retain_page(table[k]);  // the index's own reference
        ++pinned;
    }
    return pinned;
}

std::size_t PrefixCache::drop() {
    const std::lock_guard<std::mutex> lock(mu_);
    const std::vector<std::size_t> pages = index_.clear();
    for (const std::size_t p : pages) pool_.release_page(p);
    return pages.size();
}

engine::PrefixSharingStats PrefixCache::stats() const {
    engine::PrefixSharingStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.covered_tokens = covered_.load(std::memory_order_relaxed);
    {
        const std::lock_guard<std::mutex> lock(mu_);
        s.pages_shared = index_.pages_held();
    }
    s.cow_copies = static_cast<std::size_t>(pool_.cow_copies());
    return s;
}

}  // namespace efld::prefix
