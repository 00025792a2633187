// Dense bitset representation of a tid-list: one bit per transaction over
// a fixed tid universe, packed into 64-bit words. The intersection of two
// bitsets is a word-wise AND with a running popcount — branch-free, eight
// tids per byte, and the compiler vectorizes the loop (see ECLAT_NATIVE).
// This is the "vertical bitmap" kernel of the many-core FIM literature
// (PAPERS.md: Zymbler), profitable once a list's density over the universe
// exceeds ~1/128 (see TidSet for the adaptive selection rule).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "vertical/tidlist.hpp"

namespace eclat {

class BitsetTidList {
 public:
  BitsetTidList() = default;

  /// Rebuild in place from a sorted tid-list over [0, universe). The word
  /// buffer's capacity is reused, so repeated assigns into the same object
  /// (the arena pattern) do not allocate once warmed up.
  void assign(std::span<const Tid> tids, Tid universe);

  Tid universe() const { return universe_; }
  std::size_t count() const { return count_; }  ///< cached popcount
  bool empty() const { return count_ == 0; }
  /// Bytes held by the word buffer (capacity, not size: this feeds the
  /// exec memory budget, which accounts for retained allocations).
  std::size_t memory_bytes() const {
    return words_.capacity() * sizeof(std::uint64_t);
  }

  bool test(Tid t) const {
    return t < universe_ &&
           (words_[t >> 6] >> (t & 63) & std::uint64_t{1}) != 0;
  }

  /// Decode to a sorted tid-list, appending to `out`.
  void append_to(TidList& out) const;
  TidList to_tidlist() const;

  /// this = a & b (exact). Requires a and b over the same universe.
  /// Returns the popcount of the result.
  std::size_t assign_and(const BitsetTidList& a, const BitsetTidList& b);

  /// Short-circuited AND (the bitset analogue of the paper's §5.3 bound):
  /// aborts as soon as the running popcount plus 64·(words remaining)
  /// provably stays below `minsup`. Returns false iff aborted (contents
  /// are then unspecified); `words_scanned`, when given, accumulates the
  /// number of words actually ANDed either way.
  bool assign_and_bounded(const BitsetTidList& a, const BitsetTidList& b,
                          Count minsup, std::uint64_t* words_scanned);

  /// Support-only AND: the popcount of a & b without materializing it,
  /// with the same short-circuit bound (nullopt iff provably < minsup).
  static std::optional<std::size_t> and_count(const BitsetTidList& a,
                                              const BitsetTidList& b,
                                              Count minsup,
                                              std::uint64_t* words_scanned);

  /// this = a & ~b, aborting once the running popcount exceeds `budget`
  /// (the diffset pruning bound: a difference larger than
  /// sup(parent) − minsup cannot yield a frequent child). Returns false
  /// iff aborted. Requires a and b over the same universe.
  bool assign_andnot_bounded(const BitsetTidList& a, const BitsetTidList& b,
                             std::size_t budget,
                             std::uint64_t* words_scanned);

  /// this = a with the bits of the sorted list `tids` cleared, i.e.
  /// a \ tids. Returns false iff the result exceeds `budget` bits.
  bool assign_minus_sparse(const BitsetTidList& a, std::span<const Tid> tids,
                           std::size_t budget,
                           std::uint64_t* words_scanned);

  friend bool operator==(const BitsetTidList&,
                         const BitsetTidList&) = default;

 private:
  std::vector<std::uint64_t> words_;
  Tid universe_ = 0;
  std::size_t count_ = 0;
};

}  // namespace eclat
