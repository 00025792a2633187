// Dense bitset representation of a tid-list: one bit per transaction over
// a fixed tid universe, packed into 64-bit words. The intersection of two
// bitsets is a word-wise AND with a running popcount — branch-free, eight
// tids per byte, through the runtime-dispatched SIMD word kernels. One
// bounded AND serves both the materialized and the support-only join (a
// null output counts only). This is the "vertical bitmap" kernel of the
// many-core FIM literature (PAPERS.md: Zymbler), profitable once a list's
// density over the universe exceeds ~1/128 (see TidSet for the adaptive
// selection rule).
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

  bool test(Tid t) const {
    return t < universe_ &&
           (words_[t >> 6] >> (t & 63) & std::uint64_t{1}) != 0;
  }

  /// Decode to a sorted tid-list, appending to `out`.
  void append_to(TidList& out) const;
  TidList to_tidlist() const;

  /// a & b under the bitset analogue of the paper's §5.3 bound: the
  /// popcount of the result when it reaches `minsup`, nullopt as soon as
  /// the running popcount plus 64·(words remaining) provably stays below
  /// it (minsup 0 never stops: the exact AND). With `out`, the result is
  /// stored there (its contents are unspecified on nullopt); nullptr
  /// counts only. `words_scanned`, when given, accumulates the number of
  /// words actually ANDed either way. Requires a and b over the same
  /// universe.
  static std::optional<std::size_t> and_bounded(const BitsetTidList& a,
                                                const BitsetTidList& b,
                                                Count minsup,
                                                BitsetTidList* out,
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
