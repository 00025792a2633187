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

/// Intersection kernel selection. kMerge/kMergeShortCircuit/kGallop force
/// the sparse representation everywhere (the paper's kernels); kBitset
/// forces the flat dense bitmap; kAuto dispatches at runtime — word-AND
/// when both operands are dense, a bit probe per sparse element when
/// one is, gallop when one sparse list is 32× shorter than the other,
/// short-circuited merge otherwise — with the representation of every
/// list chosen by the density threshold.
enum class IntersectKernel : std::uint8_t {
  kMerge,
  kMergeShortCircuit,  // the paper's default
  kGallop,
  kBitset,  // dense word-AND + popcount for every list
  kAuto,    // runtime dispatch over adaptive representations
};

/// Canonical lowercase name ("merge", "short-circuit", "gallop",
/// "bitset", "auto") — the spelling the bench/example --kernel flags
/// use.
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

  /// Bytes retained across both internal buffers (capacities). The
  /// exec memory budget sums this over a worker's arena.
  std::size_t memory_bytes() const {
    return tids_.capacity() * sizeof(Tid) + bits_.memory_bytes();
  }

  /// Drop every buffer (capacity included) and reset to an empty sparse
  /// set. Memory-pressure relief for slots whose contents are dead.
  void release();

 private:
  friend void seed_tidset(std::span<const Tid>, Tid, IntersectKernel,
                          TidSet&, IntersectStats*);
  friend bool intersect_into(const TidSet&, const TidSet&, Count,
                             IntersectKernel, Tid, TidSet&,
                             IntersectStats*);
  friend std::optional<Count> intersect_support(const TidSet&, const TidSet&,
                                                Count, IntersectKernel,
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
/// class over `universe`: sparse for the paper's kernels, dense for
/// kBitset, threshold-chosen for kAuto.
void seed_tidset(std::span<const Tid> tids, Tid universe,
                 IntersectKernel kernel, TidSet& out,
                 IntersectStats* stats);

/// out = a ∩ b through the dispatched kernel, short-circuiting below
/// `minsup`. Returns false iff the result provably misses minsup (then
/// out is unspecified). `out` must not alias `a` or `b`. Under kAuto the
/// result representation is normalized by the density thresholds.
bool intersect_into(const TidSet& a, const TidSet& b, Count minsup,
                    IntersectKernel kernel, Tid universe, TidSet& out,
                    IntersectStats* stats);

/// Support-only variant: |a ∩ b| when it reaches minsup, nullopt
/// otherwise. Nothing is materialized — the recursion uses this for
/// children that can never recurse (singleton child classes).
std::optional<Count> intersect_support(const TidSet& a, const TidSet& b,
                                       Count minsup,
                                       IntersectKernel kernel,
                                       IntersectStats* stats);

/// out = a \ b, aborting as soon as the result would exceed `budget`
/// elements (the diffset pruning bound). Same dispatch/normalization
/// rules as intersect_into; kGallop falls back to the sparse merge
/// (galloping has no difference analogue).
bool difference_into(const TidSet& a, const TidSet& b, std::size_t budget,
                     IntersectKernel kernel, Tid universe, TidSet& out,
                     IntersectStats* stats);

}  // namespace eclat
