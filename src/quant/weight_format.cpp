#include "quant/weight_format.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace efld::quant {

std::vector<WordKind> stream_schedule(std::size_t num_groups) {
    std::vector<WordKind> sched;
    sched.reserve(stream_words(num_groups));
    std::size_t g = 0;
    while (g < num_groups) {
        sched.push_back(WordKind::kZero);  // zeros for up to 128 groups
        const std::size_t chunk_groups = std::min(num_groups - g, kGroupsPerZeroWord);
        std::size_t done = 0;
        while (done < chunk_groups) {
            sched.push_back(WordKind::kScale);  // scales for up to 32 groups
            const std::size_t block = std::min(chunk_groups - done, kGroupsPerScaleWord);
            sched.insert(sched.end(), block, WordKind::kWeight);
            done += block;
        }
        g += chunk_groups;
    }
    return sched;
}

std::size_t stream_words(std::size_t num_groups) {
    const std::size_t zero_words = div_ceil(num_groups, kGroupsPerZeroWord);
    const std::size_t scale_words = div_ceil(num_groups, kGroupsPerScaleWord);
    return zero_words + scale_words + num_groups;
}

double stream_overhead(std::size_t num_groups) {
    if (num_groups == 0) return 0.0;
    const double total = static_cast<double>(stream_words(num_groups));
    return (total - static_cast<double>(num_groups)) / total;
}

std::vector<Word512> pack_weight_stream(const QuantizedLinear& layer) {
    check(layer.config().group_size == kFormatGroupSize,
          "pack_weight_stream: bus format requires group_size == 128");
    check(layer.config().bits == 4, "pack_weight_stream: bus format requires 4-bit codes");

    const std::size_t num_groups = layer.num_groups();
    std::vector<Word512> words;
    words.reserve(stream_words(num_groups));

    std::size_t g = 0;
    while (g < num_groups) {
        const std::size_t chunk_groups = std::min(num_groups - g, kGroupsPerZeroWord);

        Word512 zero_word{};
        for (std::size_t i = 0; i < chunk_groups; ++i) {
            zero_word.set_nibble(i, layer.zero(g + i));
        }
        words.push_back(zero_word);

        std::size_t done = 0;
        while (done < chunk_groups) {
            const std::size_t block = std::min(chunk_groups - done, kGroupsPerScaleWord);
            Word512 scale_word{};
            for (std::size_t i = 0; i < block; ++i) {
                scale_word.set_half(i, layer.scale(g + done + i));
            }
            words.push_back(scale_word);

            for (std::size_t i = 0; i < block; ++i) {
                const std::size_t group = g + done + i;
                Word512 w{};
                const auto codes = layer.codes().subspan(group * kFormatGroupSize,
                                                         kFormatGroupSize);
                for (std::size_t n = 0; n < kFormatGroupSize; ++n) {
                    w.set_nibble(n, codes[n]);
                }
                words.push_back(w);
            }
            done += block;
        }
        g += chunk_groups;
    }
    return words;
}

QuantizedLinear unpack_weight_stream(std::span<const Word512> words, std::size_t rows,
                                     std::size_t cols) {
    check(cols % kFormatGroupSize == 0, "unpack_weight_stream: cols not group aligned");
    const std::size_t num_groups = rows * (cols / kFormatGroupSize);
    check(words.size() == stream_words(num_groups),
          "unpack_weight_stream: word count mismatch");

    std::vector<std::uint8_t> codes(rows * cols);
    std::vector<Fp16> scales(num_groups);
    std::vector<std::uint8_t> zeros(num_groups);

    WeightStreamDecoder dec(num_groups);
    std::size_t g = 0;
    for (const auto& w : words) {
        if (auto grp = dec.consume(w)) {
            std::copy(grp->codes.begin(), grp->codes.end(),
                      codes.begin() + static_cast<std::ptrdiff_t>(g * kFormatGroupSize));
            scales[g] = grp->scale;
            zeros[g] = grp->zero;
            ++g;
        }
    }
    check(g == num_groups, "unpack_weight_stream: stream ended early");

    GroupQuantConfig cfg;
    cfg.group_size = kFormatGroupSize;
    cfg.bits = 4;
    return QuantizedLinear::from_parts(std::move(codes), std::move(scales),
                                       std::move(zeros), rows, cols, cfg);
}

namespace {

// Kind of the word at `index` in any stream. Every chunk has the layout
// [Z] ([S] [W x32]) x4, and a partial final chunk is a prefix of it, so the
// position inside a 133-word chunk decides the kind.
WordKind word_kind_at(std::size_t index) noexcept {
    constexpr std::size_t kBlockWords = 1 + kGroupsPerScaleWord;                // 33
    constexpr std::size_t kChunkWords = 1 + kScaleBlocksPerChunk * kBlockWords;  // 133
    const std::size_t in_chunk = index % kChunkWords;
    if (in_chunk == 0) return WordKind::kZero;
    return (in_chunk - 1) % kBlockWords == 0 ? WordKind::kScale : WordKind::kWeight;
}

}  // namespace

WeightStreamDecoder::WeightStreamDecoder(std::size_t num_groups)
    : num_groups_(num_groups), num_words_(stream_words(num_groups)) {}

WordKind WeightStreamDecoder::expected_kind() const {
    check(cursor_ < num_words_, "WeightStreamDecoder: stream already complete");
    return word_kind_at(cursor_);
}

std::optional<PackedGroup> WeightStreamDecoder::consume_packed(const Word512& word) {
    const WordKind kind = expected_kind();
    ++cursor_;
    switch (kind) {
        case WordKind::kZero:
            zero_word_ = word;
            return std::nullopt;
        case WordKind::kScale:
            scale_word_ = word;
            return std::nullopt;
        case WordKind::kWeight: {
            // Group offsets within the current chunk / scale block derive from
            // how many groups this chunk has already produced.
            const std::size_t chunk_off = groups_done_ % kGroupsPerZeroWord;
            const std::size_t block_off = chunk_off % kGroupsPerScaleWord;
            ++groups_done_;
            return PackedGroup{scale_word_.half(block_off), zero_word_.nibble(chunk_off)};
        }
    }
    return std::nullopt;
}

std::optional<DecodedGroup> WeightStreamDecoder::consume(const Word512& word) {
    const std::optional<PackedGroup> packed = consume_packed(word);
    if (!packed) return std::nullopt;
    DecodedGroup grp;
    for (std::size_t n = 0; n < kFormatGroupSize; ++n) grp.codes[n] = word.nibble(n);
    grp.scale = packed->scale;
    grp.zero = packed->zero;
    return grp;
}

}  // namespace efld::quant
