// Sequential Eclat: the single-processor specialization of the paper's
// algorithm (and the baseline for the speedup curves of Figure 7).
//
// Phases: (1) count items, then the 2-itemsets of frequent items, in one
// horizontal scan via a triangular array; (2) invert the database into
// tid-lists of the frequent 2-itemsets (second scan) and split L2 into
// equivalence classes; (3) mine each class to completion with
// Compute_Frequent. No hash trees, no candidate pruning.
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

/// Mine all frequent itemsets of `db` with sequential Eclat.
MiningResult eclat_sequential(const HorizontalDatabase& db,
                              const EclatConfig& config,
                              IntersectStats* stats = nullptr);

}  // namespace eclat
