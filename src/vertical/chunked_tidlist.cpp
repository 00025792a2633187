#include "vertical/chunked_tidlist.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"
#include "vertical/simd/dispatch.hpp"

namespace eclat {

namespace {

/// In-chunk 16-bit value of a tid.
std::uint16_t low16(Tid t) { return static_cast<std::uint16_t>(t & 0xffff); }

bool word_bit(std::span<const std::uint64_t> words, std::uint16_t v) {
  const std::size_t w = v >> 6;
  return w < words.size() &&
         (words[w] >> (v & 63) & std::uint64_t{1}) != 0;
}

/// Decode set bits of `words` into `out` as u16 positions. Only reached
/// when the payload stays an array container, so the result is bounded
/// by the array/bitset threshold; it rides the dispatched u32 decode and
/// narrows (chunk-local positions always fit 16 bits).
std::size_t decode_words_u16(std::span<const std::uint64_t> words,
                             std::uint16_t* out) {
  std::uint32_t buf[1024];
  const std::size_t k =
      simd::kernels().decode_words(words.data(), words.size(), 0, buf);
  ECLAT_DCHECK(k <= 1024);
  for (std::size_t i = 0; i < k; ++i) {
    out[i] = static_cast<std::uint16_t>(buf[i]);
  }
  return k;
}

/// Chunk-pair op classification for IntersectStats: a pair with a
/// bitset side counts as bitset, else as array.
void count_pair_op(IntersectStats* stats, ChunkedTidList::ContainerType a,
                   ChunkedTidList::ContainerType b) {
  if (stats == nullptr) return;
  using CT = ChunkedTidList::ContainerType;
  if (a == CT::kBitset || b == CT::kBitset) {
    ++stats->chunk_bitset_ops;
  } else {
    ++stats->chunk_array_ops;
  }
}

void count_simd_words(IntersectStats* stats, const simd::KernelTable& kt) {
  if (stats != nullptr && kt.level != simd::IsaLevel::kScalar) {
    ++stats->simd_word_calls;
  }
}

void count_simd_sparse(IntersectStats* stats, const simd::KernelTable& kt) {
  if (stats != nullptr && kt.level != simd::IsaLevel::kScalar) {
    ++stats->simd_sparse_calls;
  }
}

}  // namespace

std::span<const std::uint16_t> ChunkedTidList::array_of(const Chunk& c) const {
  ECLAT_DCHECK(c.type == ContainerType::kArray);
  return {u16_pool_.data() + c.offset, c.cardinality};
}

std::span<const std::uint64_t> ChunkedTidList::words_of(const Chunk& c) const {
  ECLAT_DCHECK(c.type == ContainerType::kBitset);
  return {word_pool_.data() + c.offset, kChunkWords};
}

void ChunkedTidList::reset(Tid universe) {
  chunks_.clear();
  u16_pool_.clear();
  word_pool_.clear();
  universe_ = universe;
  count_ = 0;
}

void ChunkedTidList::assign(std::span<const Tid> tids, Tid universe) {
  ECLAT_DCHECK(is_valid_tidlist(tids));
  ECLAT_DCHECK(tids.empty() || tids.back() < universe);
  reset(universe);
  const std::size_t n = tids.size();
  std::size_t i = 0;
  while (i < n) {
    const std::uint16_t key = static_cast<std::uint16_t>(tids[i] >> 16);
    std::size_t j = i + 1;
    while (j < n && (tids[j] >> 16) == key) ++j;
    const std::size_t card = j - i;
    if (card >= kBitsetChunkMin) {
      const auto offset = static_cast<std::uint32_t>(word_pool_.size());
      word_pool_.resize(offset + kChunkWords);  // value-init: zeroed
      for (std::size_t k = i; k < j; ++k) {
        const std::uint16_t v = low16(tids[k]);
        word_pool_[offset + (v >> 6)] |= std::uint64_t{1} << (v & 63);
      }
      chunks_.push_back({key, ContainerType::kBitset, offset,
                         static_cast<std::uint32_t>(card)});
    } else {
      const auto offset = static_cast<std::uint32_t>(u16_pool_.size());
      u16_pool_.resize(offset + card);
      for (std::size_t k = i; k < j; ++k) {
        u16_pool_[offset + (k - i)] = low16(tids[k]);
      }
      chunks_.push_back({key, ContainerType::kArray, offset,
                         static_cast<std::uint32_t>(card)});
    }
    count_ += card;
    i = j;
  }
}

void ChunkedTidList::assign_from_words(std::span<const std::uint64_t> words,
                                       Tid universe, std::size_t count) {
  reset(universe);
  // Conversion path: chunks come out array or bitset by cardinality. The
  // per-slice popcount rides the dispatched word kernel (self-AND with no
  // output is a pure popcount), so this conversion — which normalize()
  // runs on every dense result that leaves the dense stay band — costs a
  // SIMD scan, not a scalar one.
  const simd::KernelTable& kt = simd::kernels();
  if (count < kBitsetChunkMin) {
    // No chunk can reach the bitset threshold when the whole list is
    // below it, so the popcount pre-pass would only re-derive what the
    // decode returns anyway: decode every slice straight into the array
    // pool in one pass. This is the hot demotion shape — a dense
    // intersection result that fell out of the dense stay band is almost
    // always this sparse.
    u16_pool_.resize(count);
    for (std::size_t w0 = 0; w0 < words.size(); w0 += kChunkWords) {
      const std::size_t wn = std::min(kChunkWords, words.size() - w0);
      const auto card =
          decode_words_u16(words.subspan(w0, wn), u16_pool_.data() + count_);
      if (card == 0) continue;
      chunks_.push_back({static_cast<std::uint16_t>(w0 / kChunkWords),
                         ContainerType::kArray,
                         static_cast<std::uint32_t>(count_),
                         static_cast<std::uint32_t>(card)});
      count_ += card;
    }
    ECLAT_DCHECK(count_ == count);
    count_ = count;
    return;
  }
  for (std::size_t w0 = 0; w0 < words.size(); w0 += kChunkWords) {
    const std::size_t wn = std::min(kChunkWords, words.size() - w0);
    const auto slice = words.subspan(w0, wn);
    const auto card = static_cast<std::size_t>(
        kt.and_words(slice.data(), slice.data(), nullptr, wn));
    if (card == 0) continue;
    const auto key = static_cast<std::uint16_t>(w0 / kChunkWords);
    if (card >= kBitsetChunkMin) {
      const auto offset = static_cast<std::uint32_t>(word_pool_.size());
      word_pool_.resize(offset + kChunkWords);
      std::copy(slice.begin(), slice.end(), word_pool_.begin() + offset);
      chunks_.push_back({key, ContainerType::kBitset, offset,
                         static_cast<std::uint32_t>(card)});
    } else {
      const auto offset = static_cast<std::uint32_t>(u16_pool_.size());
      u16_pool_.resize(offset + card);
      decode_words_u16(slice, u16_pool_.data() + offset);
      chunks_.push_back({key, ContainerType::kArray, offset,
                         static_cast<std::uint32_t>(card)});
    }
    count_ += card;
  }
  ECLAT_DCHECK(count_ == count);
  count_ = count;
}

ChunkedTidList::ContainerHistogram ChunkedTidList::histogram() const {
  ContainerHistogram h;
  for (const Chunk& c : chunks_) {
    if (c.type == ContainerType::kBitset) {
      ++h.bitset;
    } else {
      ++h.array;
    }
  }
  return h;
}

bool ChunkedTidList::test(Tid t) const {
  if (t >= universe_) return false;
  const auto key = static_cast<std::uint16_t>(t >> 16);
  const auto it = std::lower_bound(
      chunks_.begin(), chunks_.end(), key,
      [](const Chunk& c, std::uint16_t k) { return c.key < k; });
  if (it == chunks_.end() || it->key != key) return false;
  const std::uint16_t v = low16(t);
  if (it->type == ContainerType::kBitset) return word_bit(words_of(*it), v);
  const auto av = array_of(*it);
  return std::binary_search(av.begin(), av.end(), v);
}

void ChunkedTidList::append_to(TidList& out) const {
  for (const Chunk& c : chunks_) {
    const Tid base = static_cast<Tid>(c.key) << 16;
    if (c.type == ContainerType::kArray) {
      for (const std::uint16_t v : array_of(c)) out.push_back(base | v);
      continue;
    }
    const auto ws = words_of(c);
    const std::size_t old = out.size();
    out.resize(old + c.cardinality);
    const std::size_t decoded = simd::kernels().decode_words(
        ws.data(), ws.size(), base, out.data() + old);
    ECLAT_DCHECK(decoded == c.cardinality);
    (void)decoded;
  }
}

TidList ChunkedTidList::to_tidlist() const {
  TidList out;
  out.reserve(count_);
  append_to(out);
  return out;
}

void ChunkedTidList::write_words(std::span<std::uint64_t> words) const {
  for (const Chunk& c : chunks_) {
    const std::size_t w0 = std::size_t{c.key} * kChunkWords;
    if (c.type == ContainerType::kArray) {
      for (const std::uint16_t v : array_of(c)) {
        words[w0 + (v >> 6)] |= std::uint64_t{1} << (v & 63);
      }
      continue;
    }
    const auto ws = words_of(c);
    const std::size_t wn = std::min(ws.size(), words.size() - w0);
    for (std::size_t w = 0; w < wn; ++w) words[w0 + w] |= ws[w];
  }
}

std::size_t ChunkedTidList::clear_words(std::span<std::uint64_t> words) const {
  std::size_t cleared = 0;
  for (const Chunk& c : chunks_) {
    const std::size_t w0 = std::size_t{c.key} * kChunkWords;
    std::uint64_t* dst = words.data() + w0;
    if (c.type == ContainerType::kArray) {
      for (const std::uint16_t v : array_of(c)) {
        const std::uint64_t bit = std::uint64_t{1} << (v & 63);
        cleared += static_cast<std::size_t>((dst[v >> 6] & bit) != 0);
        dst[v >> 6] &= ~bit;
      }
      continue;
    }
    const auto ws = words_of(c);
    const std::size_t wn = std::min(ws.size(), words.size() - w0);
    for (std::size_t w = 0; w < wn; ++w) {
      cleared += static_cast<std::size_t>(std::popcount(dst[w] & ws[w]));
      dst[w] &= ~ws[w];
    }
  }
  return cleared;
}

std::uint32_t ChunkedTidList::stage_u16(std::size_t capacity) {
  const auto offset = static_cast<std::uint32_t>(u16_pool_.size());
  u16_pool_.resize(offset + capacity);
  return offset;
}

void ChunkedTidList::emit_array(std::uint16_t key, std::uint32_t offset,
                                std::size_t card) {
  if (card == 0) {
    u16_pool_.resize(offset);
    return;
  }
  if (card >= kBitsetChunkMin) {
    const auto woff = static_cast<std::uint32_t>(word_pool_.size());
    word_pool_.resize(woff + kChunkWords);
    for (std::size_t k = 0; k < card; ++k) {
      const std::uint16_t v = u16_pool_[offset + k];
      word_pool_[woff + (v >> 6)] |= std::uint64_t{1} << (v & 63);
    }
    u16_pool_.resize(offset);
    chunks_.push_back({key, ContainerType::kBitset, woff,
                       static_cast<std::uint32_t>(card)});
  } else {
    u16_pool_.resize(offset + card);
    chunks_.push_back({key, ContainerType::kArray, offset,
                       static_cast<std::uint32_t>(card)});
  }
  count_ += card;
}

std::uint32_t ChunkedTidList::stage_words() {
  const auto offset = static_cast<std::uint32_t>(word_pool_.size());
  word_pool_.resize(offset + kChunkWords);  // value-init: zeroed
  return offset;
}

void ChunkedTidList::emit_words(std::uint16_t key, std::uint32_t offset,
                                std::size_t card) {
  if (card == 0) {
    word_pool_.resize(offset);
    return;
  }
  if (card < kBitsetChunkMin) {
    const std::uint32_t aoff = stage_u16(card);
    decode_words_u16({word_pool_.data() + offset, kChunkWords},
                     u16_pool_.data() + aoff);
    word_pool_.resize(offset);
    chunks_.push_back({key, ContainerType::kArray, aoff,
                       static_cast<std::uint32_t>(card)});
  } else {
    chunks_.push_back({key, ContainerType::kBitset, offset,
                       static_cast<std::uint32_t>(card)});
  }
  count_ += card;
}

void ChunkedTidList::copy_chunk(const ChunkedTidList& src, const Chunk& c) {
  std::uint32_t offset = 0;
  if (c.type == ContainerType::kArray) {
    offset = stage_u16(c.cardinality);
    std::copy_n(src.u16_pool_.data() + c.offset, c.cardinality,
                u16_pool_.data() + offset);
  } else {
    offset = stage_words();
    std::copy_n(src.word_pool_.data() + c.offset, kChunkWords,
                word_pool_.data() + offset);
  }
  chunks_.push_back({c.key, c.type, offset, c.cardinality});
  count_ += c.cardinality;
}

void ChunkedTidList::and_pair(const Chunk& ca, const ChunkedTidList& a,
                              const Chunk& cb, const ChunkedTidList& b,
                              IntersectStats* stats) {
  ECLAT_DCHECK(ca.key == cb.key);
  // Intersection is symmetric, so a bitset side serves as the word slice
  // the other chunk is ANDed against.
  if (cb.type == ContainerType::kBitset) {
    and_chunk_words(ca, a, b.words_of(cb), stats);
    return;
  }
  if (ca.type == ContainerType::kBitset) {
    and_chunk_words(cb, b, a.words_of(ca), stats);
    return;
  }
  count_pair_op(stats, ca.type, cb.type);
  const simd::KernelTable& kt = simd::kernels();
  const auto av = a.array_of(ca);
  const auto bv = b.array_of(cb);
  const std::uint32_t off =
      stage_u16(std::min(av.size(), bv.size()) + kU16Slack);
  std::size_t visited = 0;
  const std::size_t k = kt.intersect_u16(
      av.data(), av.size(), bv.data(), bv.size(), u16_pool_.data() + off,
      stats != nullptr ? &visited : nullptr);
  if (stats != nullptr) stats->tids_scanned += visited;
  count_simd_sparse(stats, kt);
  emit_array(ca.key, off, k);
}

std::size_t ChunkedTidList::and_pair_count(const Chunk& ca,
                                           const ChunkedTidList& a,
                                           const Chunk& cb,
                                           const ChunkedTidList& b,
                                           IntersectStats* stats) {
  ECLAT_DCHECK(ca.key == cb.key);
  if (cb.type == ContainerType::kBitset) {
    return and_chunk_words_count(ca, a, b.words_of(cb), stats);
  }
  if (ca.type == ContainerType::kBitset) {
    return and_chunk_words_count(cb, b, a.words_of(ca), stats);
  }
  count_pair_op(stats, ca.type, cb.type);
  const simd::KernelTable& kt = simd::kernels();
  const auto av = a.array_of(ca);
  const auto bv = b.array_of(cb);
  std::size_t visited = 0;
  const std::size_t k = kt.intersect_u16_count(
      av.data(), av.size(), bv.data(), bv.size(),
      stats != nullptr ? &visited : nullptr);
  if (stats != nullptr) stats->tids_scanned += visited;
  count_simd_sparse(stats, kt);
  return k;
}

bool ChunkedTidList::assign_and_bounded(const ChunkedTidList& a,
                                        const ChunkedTidList& b, Count minsup,
                                        IntersectStats* stats) {
  ECLAT_DCHECK(this != &a && this != &b);
  ECLAT_DCHECK(a.universe_ == b.universe_);
  reset(a.universe_);
  // Upper bound on the result: Σ min(|a_k|, |b_k|) over common chunks.
  std::size_t bound = 0;
  {
    std::size_t ia = 0;
    std::size_t ib = 0;
    while (ia < a.chunks_.size() && ib < b.chunks_.size()) {
      if (a.chunks_[ia].key < b.chunks_[ib].key) {
        ++ia;
      } else if (b.chunks_[ib].key < a.chunks_[ia].key) {
        ++ib;
      } else {
        bound += std::min(a.chunks_[ia].cardinality,
                          b.chunks_[ib].cardinality);
        ++ia;
        ++ib;
      }
    }
  }
  if (bound < minsup) {
    if (stats != nullptr) ++stats->short_circuited;
    return false;
  }
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.chunks_.size() && ib < b.chunks_.size()) {
    const Chunk& ca = a.chunks_[ia];
    const Chunk& cb = b.chunks_[ib];
    if (ca.key < cb.key) {
      ++ia;
      continue;
    }
    if (cb.key < ca.key) {
      ++ib;
      continue;
    }
    bound -= std::min(ca.cardinality, cb.cardinality);
    and_pair(ca, a, cb, b, stats);
    ++ia;
    ++ib;
    // Chunk-granular short-circuit: the bound is a proof, so checking it
    // only between chunks never changes the boolean outcome, just how
    // early an abort fires.
    if (count_ + bound < minsup) {
      if (stats != nullptr) ++stats->short_circuited;
      return false;
    }
  }
  return count_ >= minsup;
}

std::optional<std::size_t> ChunkedTidList::and_count(const ChunkedTidList& a,
                                                     const ChunkedTidList& b,
                                                     Count minsup,
                                                     IntersectStats* stats) {
  ECLAT_DCHECK(a.universe_ == b.universe_);
  std::size_t bound = 0;
  {
    std::size_t ia = 0;
    std::size_t ib = 0;
    while (ia < a.chunks_.size() && ib < b.chunks_.size()) {
      if (a.chunks_[ia].key < b.chunks_[ib].key) {
        ++ia;
      } else if (b.chunks_[ib].key < a.chunks_[ia].key) {
        ++ib;
      } else {
        bound += std::min(a.chunks_[ia].cardinality,
                          b.chunks_[ib].cardinality);
        ++ia;
        ++ib;
      }
    }
  }
  if (bound < minsup) {
    if (stats != nullptr) ++stats->short_circuited;
    return std::nullopt;
  }
  std::size_t count = 0;
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.chunks_.size() && ib < b.chunks_.size()) {
    const Chunk& ca = a.chunks_[ia];
    const Chunk& cb = b.chunks_[ib];
    if (ca.key < cb.key) {
      ++ia;
      continue;
    }
    if (cb.key < ca.key) {
      ++ib;
      continue;
    }
    bound -= std::min(ca.cardinality, cb.cardinality);
    count += and_pair_count(ca, a, cb, b, stats);
    ++ia;
    ++ib;
    if (count + bound < minsup) {
      if (stats != nullptr) ++stats->short_circuited;
      return std::nullopt;
    }
  }
  if (count < minsup) return std::nullopt;
  return count;
}

void ChunkedTidList::andnot_pair(const Chunk& ca, const ChunkedTidList& a,
                                 const Chunk& cb, const ChunkedTidList& b,
                                 IntersectStats* stats) {
  ECLAT_DCHECK(ca.key == cb.key);
  if (cb.type == ContainerType::kBitset) {
    andnot_chunk_words(ca, a, b.words_of(cb), stats);
    return;
  }
  count_pair_op(stats, ca.type, cb.type);
  const auto bv = b.array_of(cb);
  andnot_chunk_sparse(
      ca, a, bv.size(), [bv](std::size_t i) { return bv[i]; }, stats);
}

bool ChunkedTidList::assign_andnot_bounded(const ChunkedTidList& a,
                                           const ChunkedTidList& b,
                                           std::size_t budget,
                                           IntersectStats* stats) {
  ECLAT_DCHECK(this != &a && this != &b);
  ECLAT_DCHECK(a.universe_ == b.universe_);
  reset(a.universe_);
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.chunks_.size()) {
    const Chunk& ca = a.chunks_[ia];
    while (ib < b.chunks_.size() && b.chunks_[ib].key < ca.key) ++ib;
    if (ib < b.chunks_.size() && b.chunks_[ib].key == ca.key) {
      andnot_pair(ca, a, b.chunks_[ib], b, stats);
      ++ib;
    } else {
      copy_chunk(a, ca);
    }
    ++ia;
    // Chunk-granular budget check (the diffset pruning bound).
    if (count_ > budget) return false;
  }
  return true;
}

void ChunkedTidList::and_chunk_words(const Chunk& ca, const ChunkedTidList& a,
                                     std::span<const std::uint64_t> bw,
                                     IntersectStats* stats) {
  count_pair_op(stats, ca.type, ContainerType::kBitset);
  if (ca.type == ContainerType::kArray) {
    const auto av = a.array_of(ca);
    const std::uint32_t off = stage_u16(av.size());
    std::size_t k = 0;
    for (const std::uint16_t v : av) {
      if (word_bit(bw, v)) u16_pool_[off + k++] = v;
    }
    if (stats != nullptr) stats->tids_scanned += av.size();
    emit_array(ca.key, off, k);
    return;
  }
  const simd::KernelTable& kt = simd::kernels();
  const auto aw = a.words_of(ca);
  const std::uint32_t off = stage_words();
  const std::size_t wn = std::min(aw.size(), bw.size());
  // Chunk bits past the universe are never set, so ANDing only the
  // slice's words is exact; the staged words beyond wn stay zero.
  const std::uint64_t k =
      kt.and_words(aw.data(), bw.data(), word_pool_.data() + off, wn);
  if (stats != nullptr) stats->words_scanned += wn;
  count_simd_words(stats, kt);
  emit_words(ca.key, off, static_cast<std::size_t>(k));
}

std::size_t ChunkedTidList::and_chunk_words_count(
    const Chunk& ca, const ChunkedTidList& a,
    std::span<const std::uint64_t> bw, IntersectStats* stats) {
  count_pair_op(stats, ca.type, ContainerType::kBitset);
  if (ca.type == ContainerType::kArray) {
    const auto av = a.array_of(ca);
    std::size_t k = 0;
    for (const std::uint16_t v : av) {
      k += static_cast<std::size_t>(word_bit(bw, v));
    }
    if (stats != nullptr) stats->tids_scanned += av.size();
    return k;
  }
  const simd::KernelTable& kt = simd::kernels();
  const auto aw = a.words_of(ca);
  const std::size_t wn = std::min(aw.size(), bw.size());
  const std::uint64_t k = kt.and_words(aw.data(), bw.data(), nullptr, wn);
  if (stats != nullptr) stats->words_scanned += wn;
  count_simd_words(stats, kt);
  return static_cast<std::size_t>(k);
}

void ChunkedTidList::andnot_chunk_words(const Chunk& ca,
                                        const ChunkedTidList& a,
                                        std::span<const std::uint64_t> bw,
                                        IntersectStats* stats) {
  count_pair_op(stats, ca.type, ContainerType::kBitset);
  if (ca.type == ContainerType::kArray) {
    const auto av = a.array_of(ca);
    const std::uint32_t off = stage_u16(av.size());
    std::size_t k = 0;
    for (const std::uint16_t v : av) {
      if (!word_bit(bw, v)) u16_pool_[off + k++] = v;
    }
    if (stats != nullptr) stats->tids_scanned += av.size();
    emit_array(ca.key, off, k);
    return;
  }
  const simd::KernelTable& kt = simd::kernels();
  const auto aw = a.words_of(ca);
  const std::uint32_t off = stage_words();
  const std::size_t wn = std::min(aw.size(), bw.size());
  std::uint64_t k =
      kt.andnot_words(aw.data(), bw.data(), word_pool_.data() + off, wn);
  // Chunk words past the slice carry bits b cannot contain.
  for (std::size_t w = wn; w < aw.size(); ++w) {
    word_pool_[off + w] = aw[w];
    k += static_cast<std::uint64_t>(std::popcount(aw[w]));
  }
  if (stats != nullptr) stats->words_scanned += wn;
  count_simd_words(stats, kt);
  emit_words(ca.key, off, static_cast<std::size_t>(k));
}

template <typename Get>
void ChunkedTidList::andnot_chunk_sparse(const Chunk& ca,
                                         const ChunkedTidList& a,
                                         std::size_t bn, const Get& get,
                                         IntersectStats* stats) {
  if (ca.type == ContainerType::kArray) {
    const auto av = a.array_of(ca);
    const std::uint32_t off = stage_u16(av.size());
    std::size_t k = 0;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < av.size()) {
      if (j == bn || av[i] < get(j)) {
        u16_pool_[off + k++] = av[i];
        ++i;
      } else if (get(j) < av[i]) {
        ++j;
      } else {
        ++i;
        ++j;
      }
    }
    if (stats != nullptr) stats->tids_scanned += i + j;
    emit_array(ca.key, off, k);
    return;
  }
  // Bitset minuend: copy its words into the staged output and clear the
  // subtrahend's bits in place.
  const auto aw = a.words_of(ca);
  const std::uint32_t off = stage_words();
  std::uint64_t* dst = word_pool_.data() + off;
  std::copy(aw.begin(), aw.end(), dst);
  std::size_t k = ca.cardinality;
  for (std::size_t j = 0; j < bn; ++j) {
    const std::uint16_t v = get(j);
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    k -= static_cast<std::size_t>((dst[v >> 6] & bit) != 0);
    dst[v >> 6] &= ~bit;
  }
  if (stats != nullptr) {
    stats->words_scanned += kChunkWords;
    stats->tids_scanned += bn;
  }
  emit_words(ca.key, off, k);
}

bool ChunkedTidList::assign_and_bits_bounded(const ChunkedTidList& a,
                                             const BitsetTidList& b,
                                             Count minsup,
                                             IntersectStats* stats) {
  ECLAT_DCHECK(this != &a);
  ECLAT_DCHECK(a.universe_ == b.universe());
  reset(a.universe_);
  if (std::min(a.count_, b.count()) < minsup) {
    if (stats != nullptr) ++stats->short_circuited;
    return false;
  }
  const auto bw = b.words();
  std::size_t bound = a.count_;
  for (const Chunk& ca : a.chunks_) {
    bound -= ca.cardinality;
    const std::size_t w0 = std::size_t{ca.key} * kChunkWords;
    const std::size_t wn = std::min(kChunkWords, bw.size() - w0);
    and_chunk_words(ca, a, bw.subspan(w0, wn), stats);
    if (count_ + bound < minsup) {
      if (stats != nullptr) ++stats->short_circuited;
      return false;
    }
  }
  return count_ >= minsup;
}

std::optional<std::size_t> ChunkedTidList::and_count_bits(
    const ChunkedTidList& a, const BitsetTidList& b, Count minsup,
    IntersectStats* stats) {
  ECLAT_DCHECK(a.universe_ == b.universe());
  if (std::min(a.count_, b.count()) < minsup) {
    if (stats != nullptr) ++stats->short_circuited;
    return std::nullopt;
  }
  const auto bw = b.words();
  std::size_t bound = a.count_;
  std::size_t count = 0;
  for (const Chunk& ca : a.chunks_) {
    bound -= ca.cardinality;
    const std::size_t w0 = std::size_t{ca.key} * kChunkWords;
    const std::size_t wn = std::min(kChunkWords, bw.size() - w0);
    count += and_chunk_words_count(ca, a, bw.subspan(w0, wn), stats);
    if (count + bound < minsup) {
      if (stats != nullptr) ++stats->short_circuited;
      return std::nullopt;
    }
  }
  if (count < minsup) return std::nullopt;
  return count;
}

bool ChunkedTidList::assign_andnot_bits_bounded(const ChunkedTidList& a,
                                                const BitsetTidList& b,
                                                std::size_t budget,
                                                IntersectStats* stats) {
  ECLAT_DCHECK(this != &a);
  ECLAT_DCHECK(a.universe_ == b.universe());
  reset(a.universe_);
  const auto bw = b.words();
  for (const Chunk& ca : a.chunks_) {
    const std::size_t w0 = std::size_t{ca.key} * kChunkWords;
    const std::size_t wn = std::min(kChunkWords, bw.size() - w0);
    andnot_chunk_words(ca, a, bw.subspan(w0, wn), stats);
    if (count_ > budget) return false;
  }
  return true;
}

bool ChunkedTidList::assign_minus_sparse(const ChunkedTidList& a,
                                         std::span<const Tid> b,
                                         std::size_t budget,
                                         IntersectStats* stats) {
  ECLAT_DCHECK(this != &a);
  ECLAT_DCHECK(is_valid_tidlist(b));
  reset(a.universe_);
  std::size_t jb = 0;
  for (const Chunk& ca : a.chunks_) {
    const Tid lo = static_cast<Tid>(ca.key) << 16;
    while (jb < b.size() && b[jb] < lo) ++jb;
    std::size_t je = jb;
    while (je < b.size() && (b[je] >> 16) == ca.key) ++je;
    if (je == jb) {
      copy_chunk(a, ca);
    } else {
      count_pair_op(stats, ca.type, ContainerType::kArray);
      const auto sub = b.subspan(jb, je - jb);
      andnot_chunk_sparse(
          ca, a, sub.size(),
          [sub](std::size_t i) { return low16(sub[i]); }, stats);
      jb = je;
    }
    if (count_ > budget) return false;
  }
  return true;
}

bool ChunkedTidList::and_sparse(const ChunkedTidList& a,
                                std::span<const Tid> b, Count minsup,
                                TidList& out, IntersectStats* stats) {
  ECLAT_DCHECK(is_valid_tidlist(b));
  out.clear();
  if (std::min<std::size_t>(a.count_, b.size()) < minsup) {
    if (stats != nullptr) ++stats->short_circuited;
    return false;
  }
  std::size_t jb = 0;
  for (const Chunk& ca : a.chunks_) {
    const Tid lo = static_cast<Tid>(ca.key) << 16;
    while (jb < b.size() && b[jb] < lo) ++jb;  // b tids in chunks a lacks
    std::size_t je = jb;
    while (je < b.size() && (b[je] >> 16) == ca.key) ++je;
    if (je != jb) {
      const auto sub = b.subspan(jb, je - jb);
      count_pair_op(stats, ca.type, ContainerType::kArray);
      switch (ca.type) {
        case ContainerType::kArray: {
          const auto av = a.array_of(ca);
          std::size_t i = 0;
          std::size_t k = 0;
          while (i < av.size() && k < sub.size()) {
            const std::uint16_t v = low16(sub[k]);
            if (av[i] < v) {
              ++i;
            } else if (av[i] > v) {
              ++k;
            } else {
              out.push_back(sub[k]);
              ++i;
              ++k;
            }
          }
          if (stats != nullptr) stats->tids_scanned += i;
          break;
        }
        case ContainerType::kBitset: {
          const auto bw = a.words_of(ca);
          for (const Tid t : sub) {
            if (word_bit(bw, low16(t))) out.push_back(t);
          }
          break;
        }
      }
      if (stats != nullptr) stats->tids_scanned += sub.size();
      jb = je;
    }
    // Every unmatched b tid so far is settled; only the tail can still
    // contribute.
    if (out.size() + (b.size() - jb) < minsup) {
      if (stats != nullptr) ++stats->short_circuited;
      return false;
    }
    if (jb == b.size()) break;
  }
  return out.size() >= minsup;
}

std::optional<std::size_t> ChunkedTidList::and_sparse_count(
    const ChunkedTidList& a, std::span<const Tid> b, Count minsup,
    IntersectStats* stats) {
  ECLAT_DCHECK(is_valid_tidlist(b));
  if (std::min<std::size_t>(a.count_, b.size()) < minsup) {
    if (stats != nullptr) ++stats->short_circuited;
    return std::nullopt;
  }
  std::size_t count = 0;
  std::size_t jb = 0;
  for (const Chunk& ca : a.chunks_) {
    const Tid lo = static_cast<Tid>(ca.key) << 16;
    while (jb < b.size() && b[jb] < lo) ++jb;
    std::size_t je = jb;
    while (je < b.size() && (b[je] >> 16) == ca.key) ++je;
    if (je != jb) {
      const auto sub = b.subspan(jb, je - jb);
      count_pair_op(stats, ca.type, ContainerType::kArray);
      switch (ca.type) {
        case ContainerType::kArray: {
          const auto av = a.array_of(ca);
          std::size_t i = 0;
          std::size_t k = 0;
          while (i < av.size() && k < sub.size()) {
            const std::uint16_t v = low16(sub[k]);
            if (av[i] < v) {
              ++i;
            } else if (av[i] > v) {
              ++k;
            } else {
              ++count;
              ++i;
              ++k;
            }
          }
          if (stats != nullptr) stats->tids_scanned += i;
          break;
        }
        case ContainerType::kBitset: {
          const auto bw = a.words_of(ca);
          for (const Tid t : sub) {
            count += static_cast<std::size_t>(word_bit(bw, low16(t)));
          }
          break;
        }
      }
      if (stats != nullptr) stats->tids_scanned += sub.size();
      jb = je;
    }
    if (count + (b.size() - jb) < minsup) {
      if (stats != nullptr) ++stats->short_circuited;
      return std::nullopt;
    }
    if (jb == b.size()) break;
  }
  if (count < minsup) return std::nullopt;
  return count;
}

bool ChunkedTidList::sparse_minus(std::span<const Tid> b,
                                  const ChunkedTidList& a, std::size_t budget,
                                  TidList& out, IntersectStats* stats) {
  ECLAT_DCHECK(is_valid_tidlist(b));
  out.clear();
  // Quick reject: even if every tid of a hits, |b| − a.count survive.
  if (b.size() > budget + a.count_) return false;
  std::size_t jb = 0;
  for (const Chunk& ca : a.chunks_) {
    const Tid lo = static_cast<Tid>(ca.key) << 16;
    while (jb < b.size() && b[jb] < lo) {
      out.push_back(b[jb]);  // b tids in chunks a lacks pass through
      ++jb;
    }
    std::size_t je = jb;
    while (je < b.size() && (b[je] >> 16) == ca.key) ++je;
    if (je != jb) {
      const auto sub = b.subspan(jb, je - jb);
      count_pair_op(stats, ca.type, ContainerType::kArray);
      switch (ca.type) {
        case ContainerType::kArray: {
          const auto av = a.array_of(ca);
          std::size_t i = 0;
          for (const Tid t : sub) {
            const std::uint16_t v = low16(t);
            while (i < av.size() && av[i] < v) ++i;
            if (i >= av.size() || av[i] != v) out.push_back(t);
          }
          if (stats != nullptr) stats->tids_scanned += i;
          break;
        }
        case ContainerType::kBitset: {
          const auto bw = a.words_of(ca);
          for (const Tid t : sub) {
            if (!word_bit(bw, low16(t))) out.push_back(t);
          }
          break;
        }
      }
      if (stats != nullptr) stats->tids_scanned += sub.size();
      jb = je;
    }
    if (out.size() > budget) return false;
    if (jb == b.size()) break;
  }
  for (; jb < b.size(); ++jb) out.push_back(b[jb]);
  return out.size() <= budget;
}

}  // namespace eclat
