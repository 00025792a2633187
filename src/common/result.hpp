// Result types shared by all mining algorithms (sequential and parallel).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace eclat {

/// Per-level accounting, filled in as an algorithm iterates.
struct LevelStats {
  std::size_t k = 0;           ///< itemset size of this level
  std::size_t candidates = 0;  ///< |Ck| after pruning
  std::size_t frequent = 0;    ///< |Lk|
};

/// The set of all frequent itemsets plus bookkeeping that the benchmarks
/// report (scan counts back the paper's "three scans" claim).
struct MiningResult {
  std::vector<FrequentItemset> itemsets;
  std::vector<LevelStats> levels;
  std::size_t database_scans = 0;  ///< full passes over the (local) data

  /// Number of frequent itemsets of size k (Figure 6's series).
  std::size_t count_of_size(std::size_t k) const {
    return static_cast<std::size_t>(
        std::count_if(itemsets.begin(), itemsets.end(),
                      [k](const FrequentItemset& f) {
                        return f.items.size() == k;
                      }));
  }

  /// Largest frequent-itemset size found.
  std::size_t max_size() const {
    std::size_t max_k = 0;
    for (const FrequentItemset& f : itemsets) {
      max_k = std::max(max_k, f.items.size());
    }
    return max_k;
  }
};

/// Canonical order (by size, then lexicographic) so results from different
/// algorithms compare with operator== in tests. Linear when each size's
/// itemsets already arrive in lexicographic order (Eclat's commit order):
/// itemsets move in place into one run per size, keeping their relative
/// order, and only a run that is not already sorted gets sorted.
void normalize(MiningResult& result);

/// One LevelStats{k, 0, |Lk|} per size k = 1..max_size(), counted in one
/// pass over the itemsets in any order; sizes with no itemsets below the
/// largest get a zero-count level.
std::vector<LevelStats> level_stats(const MiningResult& result);

/// Convert a relative minimum support (e.g. 0.001 for the paper's 0.1%)
/// into the absolute transaction count used internally (ceiling, >= 1).
/// Throws std::invalid_argument unless `fraction` is in [0, 1] (NaN is
/// not).
Count absolute_support(double fraction, std::size_t num_transactions);

}  // namespace eclat
