// Diffset-based mining (dEclat) — the successor optimization to tid-list
// Eclat from the same research line. Instead of carrying each itemset's
// full tid-list down the recursion, carry the *difference* from its
// prefix: d(PX) = t(P) − t(PX). Supports then update incrementally,
//
//     d(PXY) = d(PY) \ d(PX),      sup(PXY) = sup(PX) − |d(PXY)|,
//
// and on dense data the diffsets are dramatically smaller than the
// tidsets they replace. The recursion is compute_frequent's, with the
// join swapped: it enters from ordinary tid-list atoms (the L2
// equivalence-class members) and switches representation at the first
// join, d(XY) = t(X) \ t(Y). Diffsets run over the same adaptive TidSet
// representations as the intersection path: the dense kernel is a
// word-wise AND-NOT with the same budget bound.
#pragma once

#include "eclat/compute_frequent.hpp"

namespace eclat {

/// Drop-in alternative to compute_frequent: identical results in the same
/// order, diffset representation internally. `class_atoms` are tid-list
/// atoms exactly as for compute_frequent. Stats count diffset elements (or
/// bitset words) actually scanned. The paper's kernels use the bounded
/// merge difference; kAuto uses the dense AND-NOT where the
/// representation allows, and the bounded merge difference on sparse
/// pairs (galloping has no difference analogue). As for compute_frequent,
/// the vector sink's one caller is bench_e2e's traced replica.
void compute_frequent_diffsets(const std::vector<Atom>& class_atoms,
                               Count minsup, IntersectKernel kernel,
                               TidArena& arena,
                               std::vector<FrequentItemset>& out,
                               std::vector<std::size_t>& size_histogram,
                               IntersectStats* stats = nullptr);
void compute_frequent_diffsets(const std::vector<Atom>& class_atoms,
                               Count minsup, IntersectKernel kernel,
                               TidArena& arena, ItemsetStore& out,
                               std::vector<std::size_t>& size_histogram,
                               IntersectStats* stats = nullptr);

/// Convenience overload: paper kernel, call-local arena.
void compute_frequent_diffsets(const std::vector<Atom>& class_atoms,
                               Count minsup,
                               std::vector<FrequentItemset>& out,
                               std::vector<std::size_t>& size_histogram,
                               IntersectStats* stats = nullptr);

/// Bounded set difference: a \ b, abandoned (nullopt) as soon as the
/// result would exceed `max_size` elements — the diffset analogue of the
/// paper's short-circuited intersection (|d| > sup(parent) - minsup means
/// the child cannot be frequent).
std::optional<TidList> difference_bounded(std::span<const Tid> a,
                                          std::span<const Tid> b,
                                          std::size_t max_size);

}  // namespace eclat
