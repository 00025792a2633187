// Vertical ("inverted" / decomposed storage) layout: each itemset maps to
// its tid-list, the sorted list of identifiers of the transactions that
// contain it (paper §4.2). The support of a k-itemset is the cardinality of
// the intersection of the tid-lists of any two of its (k-1)-subsets.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace eclat {

/// Sorted, duplicate-free list of transaction ids.
using TidList = std::vector<Tid>;

/// True iff `tids` is strictly increasing (tid-list class invariant).
bool is_valid_tidlist(std::span<const Tid> tids);

/// Plain sorted-merge intersection: out = a ∩ b.
TidList intersect(std::span<const Tid> a, std::span<const Tid> b);

/// Intersection size only (no output list materialized).
std::size_t intersection_size(std::span<const Tid> a, std::span<const Tid> b);

/// Short-circuited intersection (paper §5.3): the support of the result is
/// bounded above by min(|a|,|b|); once enough mismatches accumulate that the
/// bound drops below `minsup`, abort. Returns nullopt iff the intersection
/// provably has fewer than `minsup` elements (the partial list is
/// discarded); otherwise the exact intersection.
std::optional<TidList> intersect_short_circuit(std::span<const Tid> a,
                                               std::span<const Tid> b,
                                               Count minsup);

/// The paper's short-circuited merge (§5.3), the one sorted-list join
/// under every wrapper above and every sparse kernel of the mining
/// recursion: |a ∩ b| when it reaches `minsup`, nullopt once the result
/// provably misses it (minsup 0 never stops: the plain merge). With
/// `out`, the matches are written to it (cleared and refilled, reusing
/// its capacity; its contents are unspecified on nullopt); nullptr
/// counts only. `visited`, when non-null, accumulates the input
/// elements actually inspected — which is what IntersectStats records,
/// so a short-circuited abort never counts as a full scan.
std::optional<Count> merge_bounded(std::span<const Tid> a,
                                   std::span<const Tid> b, Count minsup,
                                   TidList* out,
                                   std::size_t* visited = nullptr);

/// Bounded difference a \ b into `out`: false as soon as the result would
/// exceed `max_size` elements (the diffset pruning bound). `visited` as
/// for merge_bounded.
bool difference_bounded_into(std::span<const Tid> a, std::span<const Tid> b,
                             std::size_t max_size, TidList& out,
                             std::size_t* visited = nullptr);

/// Difference a \ b (used by the failure-injection tests and diffsets
/// extension).
TidList difference(std::span<const Tid> a, std::span<const Tid> b);

/// Union a ∪ b.
TidList unite(std::span<const Tid> a, std::span<const Tid> b);

}  // namespace eclat
