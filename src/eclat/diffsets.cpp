#include "eclat/diffsets.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace eclat {

std::optional<TidList> difference_bounded(std::span<const Tid> a,
                                          std::span<const Tid> b,
                                          std::size_t max_size) {
  TidList out;
  if (!difference_bounded_into(a, b, max_size, out)) return std::nullopt;
  return out;
}

namespace {

/// Mine the diffset class in arena level `depth`: slot s holds the
/// diffset d(P·suffixes[s]) with support supports[s]. Joins run in the
/// diffset orientation d(PXY) = d(PY) \ d(PX), i.e. operands (j, i).
void mine(TidArena& arena, std::size_t depth, Count minsup,
          IntersectKernel kernel, Tid universe,
          std::vector<FrequentItemset>& out,
          std::vector<std::size_t>& size_histogram, IntersectStats* stats) {
  TidArena::Level& cur = arena.level(depth);
  TidArena::Level& next = arena.level(depth + 1);
  const std::size_t n = cur.used;
  Itemset& prefix = arena.prefix();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    ECLAT_DCHECK(cur.supports[i] >= minsup);
    const std::size_t budget = cur.supports[i] - minsup;
    prefix.push_back(cur.suffixes[i]);
    next.reset();
    for (std::size_t j = i + 1; j < n; ++j) {
      TidSet& slot = next.scratch();
      if (!difference_into(cur.sets[j], cur.sets[i], budget, kernel,
                           universe, slot, stats)) {
        continue;
      }
      const Count support = cur.supports[i] - slot.support();
      emit_itemset(prefix, cur.suffixes[j], support, out, size_histogram);
      next.commit(cur.suffixes[j], support);
    }
    if (next.used >= 2) {
      mine(arena, depth + 1, minsup, kernel, universe, out, size_histogram,
           stats);
    }
    prefix.pop_back();
  }
}

}  // namespace

void compute_frequent_diffsets(const std::vector<Atom>& class_atoms,
                               Count minsup, IntersectKernel kernel,
                               TidArena& arena,
                               std::vector<FrequentItemset>& out,
                               std::vector<std::size_t>& size_histogram,
                               IntersectStats* stats) {
  if (class_atoms.size() < 2) return;
  // Seed level 0 with the atoms' *tid-lists*; the representation switch
  // happens at the first join below.
  const Tid universe = seed_class(class_atoms, kernel, arena, stats);
  const TidArena::Level& root = arena.level(0);
  Itemset& prefix = arena.prefix();

  // First join switches representation: d(XY) = t(X) \ t(Y) — note the
  // (i, j) orientation here versus (j, i) in the diffset recursion.
  TidArena::Level& next = arena.level(1);
  const std::size_t n = root.used;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const Count parent_support = root.supports[i];
    if (parent_support < minsup) continue;  // defensive
    const std::size_t budget = parent_support - minsup;
    prefix.push_back(root.suffixes[i]);
    next.reset();
    for (std::size_t j = i + 1; j < n; ++j) {
      TidSet& slot = next.scratch();
      if (!difference_into(root.sets[i], root.sets[j], budget, kernel,
                           universe, slot, stats)) {
        continue;
      }
      const Count support = parent_support - slot.support();
      emit_itemset(prefix, root.suffixes[j], support, out, size_histogram);
      next.commit(root.suffixes[j], support);
    }
    if (next.used >= 2) {
      mine(arena, 1, minsup, kernel, universe, out, size_histogram, stats);
    }
    prefix.pop_back();
  }
  prefix.clear();
}

void compute_frequent_diffsets(const std::vector<Atom>& class_atoms,
                               Count minsup,
                               std::vector<FrequentItemset>& out,
                               std::vector<std::size_t>& size_histogram,
                               IntersectStats* stats) {
  TidArena arena;
  compute_frequent_diffsets(class_atoms, minsup,
                            IntersectKernel::kMergeShortCircuit, arena, out,
                            size_histogram, stats);
}

}  // namespace eclat
