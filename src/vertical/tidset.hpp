// Adaptive tid-set layer: every tid-list in the mining recursion is held
// sparse (sorted vector of tids) or dense (flat BitsetTidList), picked
// per list by a density threshold over the class's tid universe.
//
// Selection rule (kAuto): a list of n tids over universe U goes dense
// when n · 128 >= U (measured crossover: the SIMD word AND's U/64-word
// scan beats the sorted merge from density 1/128 up) and stays sparse
// below that (measurement and derivation in DESIGN.md §5).
//
// Representations convert only at class boundaries: atoms are seeded
// into their preferred representation when a class enters the recursion
// and each child is normalized right after its intersection
// materializes. Normalization is hysteretic — densifying happens
// eagerly at the threshold above, while sparsifying waits until the
// size falls a further 8x below it (the stay band: dense holds while
// n · 1024 >= U), so a class oscillating around the threshold stops
// converting at every level; holds and direction reversals are counted
// in IntersectStats (hysteresis_holds / rep_flipflops). Mixed sparse/
// dense intersections run directly (each sparse element probes the flat
// bitmap) rather than converting an operand.
//
// Each representation pair has one join: the word-AND for dense∩dense,
// the bitmap probe for mixed pairs, and for sparse∩sparse the gallop or
// the short-circuited merge. Every intersection join takes a nullable
// output, and its support-only form, for children that can never
// recurse, is the null output: the same scan, counters included, minus
// the writes. The difference joins (difference_into, for dEclat) always
// write their output, since a child's support is read off its diffset.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "common/types.hpp"
#include "vertical/bitset_tidlist.hpp"
#include "vertical/intersect_stats.hpp"
#include "vertical/tidlist.hpp"

namespace eclat {

/// Intersection kernel selection. kMerge and kMergeShortCircuit are the
/// paper's §5.3 ablation pair: every list sparse, joined by the plain or
/// the short-circuited merge. kAuto dispatches at runtime — word-AND
/// when both operands are dense, a bit probe per sparse element when
/// one is, gallop when one sparse list is 32× shorter than the other,
/// short-circuited merge otherwise — with the representation of every
/// list chosen by the density threshold.
enum class IntersectKernel : std::uint8_t {
  kMerge,
  kMergeShortCircuit,  // the paper's default
  kAuto,               // runtime dispatch over adaptive representations
};

/// Canonical lowercase name ("merge", "short-circuit", "auto") — the
/// spelling the bench/example --kernel flags use.
const char* kernel_name(IntersectKernel kernel);

/// Inverse of kernel_name; nullopt on an unknown name.
std::optional<IntersectKernel> kernel_from_name(std::string_view name);

/// The two representations, ordered sparse < dense so conversion
/// direction ("toward denser") is just an enum comparison.
enum class TidRep : std::uint8_t { kSparse, kDense };

/// One tid-list in either representation. Assign/intersect operations reuse
/// the internal buffers, so a TidSet slot held in a TidArena level stops
/// allocating once warmed up.
class TidSet {
 public:
  TidSet() = default;

  TidRep rep() const { return rep_; }
  bool dense() const { return rep_ == TidRep::kDense; }
  Count support() const {
    return rep_ == TidRep::kDense ? bits_.count() : tids_.size();
  }
  bool empty() const { return support() == 0; }

  /// Sorted tids; only valid while sparse.
  std::span<const Tid> tids() const;
  /// Bitset; only valid while dense.
  const BitsetTidList& bits() const;

  void assign_sparse(std::span<const Tid> tids);
  void assign_dense(std::span<const Tid> tids, Tid universe);

  /// True iff the density threshold prefers the flat dense representation
  /// for a list of `size` tids over `universe` transactions (size·128 >= U).
  static bool prefers_dense(std::size_t size, Tid universe);

  /// The representation kAuto targets for a fresh list of `size` tids:
  /// dense at size·128 >= U, else sparse.
  static TidRep preferred_rep(std::size_t size, Tid universe);

  /// Convert toward preferred_rep, hysteretically: densifying happens
  /// eagerly, sparsifying only once the size falls 8x below the entry
  /// threshold (dense holds while size·1024 >= U). Counts conversions,
  /// holds, and direction reversals into `stats` when given.
  void normalize(Tid universe, IntersectStats* stats);

  /// Decode to a sorted tid-list regardless of representation.
  void append_to(TidList& out) const;
  TidList to_tidlist() const;

  /// Logical size: 4 bytes per tid while sparse, 8 per bitmap word while
  /// dense. A function of the contents alone, not of buffer capacities;
  /// the exec memory budget charges it.
  std::size_t bytes() const {
    return rep_ == TidRep::kDense
               ? (std::size_t{bits_.universe()} + 63) / 64 *
                     sizeof(std::uint64_t)
               : tids_.size() * sizeof(Tid);
  }

 private:
  friend void seed_tidset(std::span<const Tid>, Tid, IntersectKernel,
                          TidSet&, IntersectStats*);
  friend void seed_tidset(TidList&&, Tid, IntersectKernel, TidSet&,
                          IntersectStats*);
  friend std::optional<Count> intersect(const TidSet&, const TidSet&, Count,
                                        IntersectKernel, Tid, TidSet*,
                                        IntersectStats*);
  friend bool difference_into(const TidSet&, const TidSet&, std::size_t,
                              IntersectKernel, Tid, TidSet&,
                              IntersectStats*);

  void set_rep(TidRep rep, IntersectStats* stats);

  TidList tids_;        // sparse storage (and decode scratch)
  BitsetTidList bits_;  // dense storage
  TidRep rep_ = TidRep::kSparse;
  std::int8_t last_conv_ = 0;  // +1 densified last, -1 sparsified, 0 never
};

/// Load `tids` into `out` in the representation `kernel` mandates for a
/// class over `universe`: sparse for the paper's kernels, threshold-chosen
/// for kAuto.
void seed_tidset(std::span<const Tid> tids, Tid universe,
                 IntersectKernel kernel, TidSet& out,
                 IntersectStats* stats);

/// seed_tidset taking `tids` over: a sparse seed keeps its buffer rather
/// than copying it, and a dense one frees it once the bitmap is built.
void seed_tidset(TidList&& tids, Tid universe, IntersectKernel kernel,
                 TidSet& out, IntersectStats* stats);

/// |a ∩ b| through the dispatched join when it reaches `minsup`, nullopt
/// once the result provably misses it (then *out is unspecified). With
/// `out`, the result is materialized there and, under kAuto, its
/// representation normalized by the density thresholds; `out` must not
/// alias `a` or `b`. With out == nullptr the join counts only: nothing
/// is written or normalized, and `stats` records it as count_only — the
/// recursion uses this for children that can never recurse (singleton
/// child classes). Both forms run the same scan and move every other
/// counter alike, except the conversion counters that only normalize
/// moves. Every join rejected under a bounded kernel (kMergeShortCircuit
/// and every kAuto arm) counts once as short_circuited, at any minsup;
/// the plain merge (kMerge) never does.
std::optional<Count> intersect(const TidSet& a, const TidSet& b, Count minsup,
                               IntersectKernel kernel, Tid universe,
                               TidSet* out, IntersectStats* stats);

/// out = a \ b, aborting as soon as the result would exceed `budget`
/// elements (the diffset pruning bound). The same representation
/// dispatch and normalization as intersect; every sparse pair runs the
/// bounded merge difference (galloping has no difference analogue).
/// Counts the join in stats->intersections, and an abort in
/// short_circuited.
bool difference_into(const TidSet& a, const TidSet& b, std::size_t budget,
                     IntersectKernel kernel, Tid universe, TidSet& out,
                     IntersectStats* stats);

}  // namespace eclat
