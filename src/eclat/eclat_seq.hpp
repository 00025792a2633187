// Sequential Eclat: the single-processor specialization of the paper's
// algorithm (and the baseline for the speedup curves of Figure 7).
//
// Phases: (1) count items, then the 2-itemsets of frequent items, in one
// horizontal scan via a triangular array; (2) split L2 into equivalence
// classes and invert the database into the tid-lists of the items of
// every class that generates candidates (second scan), each seeded once
// into a TidSet; (3) mine each class to completion with Compute_Frequent,
// its atoms t(prefix) ∩ t(member) joined from those item tid-sets when it
// starts, so only one class's pair tid-lists are ever alive. No hash
// trees, no candidate pruning.
#pragma once

#include "common/result.hpp"
#include "data/horizontal.hpp"
#include "eclat/compute_frequent.hpp"

namespace eclat {

struct EclatConfig {
  Count minsup = 1;  ///< absolute minimum support (transactions)
  IntersectKernel kernel = IntersectKernel::kMergeShortCircuit;
  /// Mine with diffsets (dEclat) instead of tid-list intersections —
  /// identical results, smaller intermediate sets on dense data. The
  /// `kernel` selection applies to the difference kernels too: the
  /// paper's kernels use the bounded merge difference, kAuto the dense
  /// AND-NOT where both lists are dense.
  bool use_diffsets = false;
  /// Also report frequent 1-itemsets. The paper's Eclat never counts
  /// singletons (§5.1); here they are always counted, in the same pass as
  /// the pairs, so that only pairs of frequent items are counted. Reporting
  /// them makes results comparable with Apriori. Disable for strict paper
  /// mode.
  bool include_singletons = true;
};

/// Mine all frequent itemsets of `db` with sequential Eclat. `stats`
/// counts every join, the level-0 item joins of each class included.
MiningResult eclat_sequential(const HorizontalDatabase& db,
                              const EclatConfig& config,
                              IntersectStats* stats = nullptr);

}  // namespace eclat
