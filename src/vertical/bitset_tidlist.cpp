#include "vertical/bitset_tidlist.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"
#include "vertical/simd/dispatch.hpp"

namespace eclat {

namespace {

constexpr std::size_t word_count_for(Tid universe) {
  return (static_cast<std::size_t>(universe) + 63) / 64;
}

/// Words per short-circuit bound check. The word kernels come from the
/// runtime-dispatched SIMD table, so the AND runs in blocks and the
/// abort bound is evaluated between them. The bound is a proof (count +
/// 64·remaining < minsup implies the final count misses minsup), so
/// checking it at block granularity never changes the boolean outcome —
/// only how many words an abort scans first.
constexpr std::size_t kBoundBlockWords = 64;

}  // namespace

void BitsetTidList::assign(std::span<const Tid> tids, Tid universe) {
  ECLAT_DCHECK(is_valid_tidlist(tids));
  ECLAT_DCHECK(tids.empty() || tids.back() < universe);
  universe_ = universe;
  words_.assign(word_count_for(universe), 0);
  for (const Tid t : tids) {
    words_[t >> 6] |= std::uint64_t{1} << (t & 63);
  }
  count_ = tids.size();
}

void BitsetTidList::append_to(TidList& out) const {
  const std::size_t old = out.size();
  out.resize(old + count_);
  const std::size_t decoded = simd::kernels().decode_words(
      words_.data(), words_.size(), 0, out.data() + old);
  ECLAT_DCHECK(decoded == count_);
  (void)decoded;
}

TidList BitsetTidList::to_tidlist() const {
  TidList out;
  out.reserve(count_);
  append_to(out);
  return out;
}

std::size_t BitsetTidList::assign_and(const BitsetTidList& a,
                                      const BitsetTidList& b) {
  ECLAT_DCHECK(a.universe_ == b.universe_);
  universe_ = a.universe_;
  const std::size_t n = std::min(a.words_.size(), b.words_.size());
  words_.resize(n);
  const std::size_t count = static_cast<std::size_t>(simd::kernels().and_words(
      a.words_.data(), b.words_.data(), words_.data(), n));
  count_ = count;
  return count;
}

bool BitsetTidList::assign_and_bounded(const BitsetTidList& a,
                                       const BitsetTidList& b, Count minsup,
                                       std::uint64_t* words_scanned) {
  ECLAT_DCHECK(a.universe_ == b.universe_);
  // Result popcount <= min of the input popcounts: the same pre-scan
  // rejection the sparse short-circuit kernel applies.
  if (std::min(a.count_, b.count_) < minsup) return false;
  universe_ = a.universe_;
  const std::size_t n = std::min(a.words_.size(), b.words_.size());
  words_.resize(n);
  const simd::KernelTable& kt = simd::kernels();
  std::size_t count = 0;
  for (std::size_t w = 0; w < n; w += kBoundBlockWords) {
    const std::size_t k = std::min(kBoundBlockWords, n - w);
    count += static_cast<std::size_t>(kt.and_words(
        a.words_.data() + w, b.words_.data() + w, words_.data() + w, k));
    // Even if every remaining bit survives the AND, the result caps at
    // count + 64 * (words remaining); abort once that drops below minsup.
    if (count + 64 * (n - w - k) < minsup) {
      if (words_scanned != nullptr) *words_scanned += w + k;
      return false;
    }
  }
  if (words_scanned != nullptr) *words_scanned += n;
  count_ = count;
  return count >= minsup;
}

std::optional<std::size_t> BitsetTidList::and_count(
    const BitsetTidList& a, const BitsetTidList& b, Count minsup,
    std::uint64_t* words_scanned) {
  ECLAT_DCHECK(a.universe_ == b.universe_);
  if (std::min(a.count_, b.count_) < minsup) return std::nullopt;
  const std::size_t n = std::min(a.words_.size(), b.words_.size());
  const simd::KernelTable& kt = simd::kernels();
  std::size_t count = 0;
  for (std::size_t w = 0; w < n; w += kBoundBlockWords) {
    const std::size_t k = std::min(kBoundBlockWords, n - w);
    count += static_cast<std::size_t>(
        kt.and_words(a.words_.data() + w, b.words_.data() + w, nullptr, k));
    if (count + 64 * (n - w - k) < minsup) {
      if (words_scanned != nullptr) *words_scanned += w + k;
      return std::nullopt;
    }
  }
  if (words_scanned != nullptr) *words_scanned += n;
  if (count < minsup) return std::nullopt;
  return count;
}

bool BitsetTidList::assign_andnot_bounded(const BitsetTidList& a,
                                          const BitsetTidList& b,
                                          std::size_t budget,
                                          std::uint64_t* words_scanned) {
  ECLAT_DCHECK(a.universe_ == b.universe_);
  universe_ = a.universe_;
  const std::size_t n = a.words_.size();
  words_.resize(n);
  const simd::KernelTable& kt = simd::kernels();
  std::size_t count = 0;
  for (std::size_t w = 0; w < n; w += kBoundBlockWords) {
    const std::size_t k = std::min(kBoundBlockWords, n - w);
    count += static_cast<std::size_t>(kt.andnot_words(
        a.words_.data() + w, b.words_.data() + w, words_.data() + w, k));
    if (count > budget) {
      if (words_scanned != nullptr) *words_scanned += w + k;
      return false;
    }
  }
  if (words_scanned != nullptr) *words_scanned += n;
  count_ = count;
  return true;
}

bool BitsetTidList::assign_minus_sparse(const BitsetTidList& a,
                                        std::span<const Tid> tids,
                                        std::size_t budget,
                                        std::uint64_t* words_scanned) {
  ECLAT_DCHECK(is_valid_tidlist(tids));
  // Quick reject: even if every tid of `tids` hits a set bit of `a`, the
  // result keeps a.count − |tids| bits.
  if (a.count_ > budget + tids.size()) return false;
  universe_ = a.universe_;
  words_ = a.words_;
  std::size_t removed = 0;
  for (const Tid t : tids) {
    ECLAT_DCHECK(t < universe_);
    std::uint64_t& word = words_[t >> 6];
    const std::uint64_t mask = std::uint64_t{1} << (t & 63);
    removed += static_cast<std::size_t>((word & mask) != 0);
    word &= ~mask;
  }
  if (words_scanned != nullptr) *words_scanned += words_.size();
  count_ = a.count_ - removed;
  return count_ <= budget;
}

}  // namespace eclat
