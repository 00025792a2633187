// Equivalence-class partitioning and scheduling (paper §4.1, §5.2.1).
//
// L2, sorted lexicographically, splits into classes by common 1-item
// prefix: [a] = { {a,b} in L2 }. Classes generate candidate sub-lattices
// independently, so they are the unit of work distribution. A class of s
// members is assigned weight C(s,2) — the number of candidate 3-itemsets it
// will generate — and classes are placed on processors by a greedy
// longest-processing-time heuristic (sort by weight descending, assign to
// the least-loaded processor, ties to the smaller processor id).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "eclat/compute_frequent.hpp"
#include "vertical/vertical_db.hpp"

namespace eclat {

/// An L2 equivalence class: prefix item `a`, and the sorted items `b > a`
/// such that {a, b} is frequent.
struct EquivalenceClass {
  Item prefix = 0;
  std::vector<Item> members;

  std::size_t size() const { return members.size(); }

  /// Scheduling weight C(s, 2): candidate pairs at the next level.
  std::size_t weight() const {
    return members.size() < 2 ? 0 : members.size() * (members.size() - 1) / 2;
  }

  /// The 2-itemsets {prefix, b} this class owns.
  std::vector<PairKey> pair_keys() const;
};

/// Split a sorted list of frequent pairs into equivalence classes.
/// Singleton classes (one member) are kept: their 2-itemset is frequent and
/// must be reported, but their weight is 0 so they cost nothing to place.
std::vector<EquivalenceClass> partition_into_classes(
    std::span<const PairKey> frequent_pairs);

/// The pairs whose tid-lists the mining needs: those of every class of
/// size >= 2, class after class. Singleton classes generate no candidates
/// (§4.1). Sorted, and each such class owns one contiguous run.
std::vector<PairKey> mined_pairs(std::span<const EquivalenceClass> classes);

/// The items whose tid-lists the native miners join a class's atoms from:
/// the prefix and members of every class of size >= 2. Sorted and
/// duplicate-free.
std::vector<Item> mined_items(std::span<const EquivalenceClass> classes);

/// The atoms of every class of size >= 2, indexed by class id (singleton
/// classes get none), moved out of `lists`, which holds one tid-list per
/// entry of mined_pairs(classes), in that order.
std::vector<std::vector<Atom>> atoms_by_class(
    std::span<const EquivalenceClass> classes, std::span<TidList> lists);

/// Greedy schedule: `assignment[i]` is the processor that owns class i.
/// Deterministic given the inputs (paper §5.2.1 tie-breaking).
std::vector<std::size_t> schedule_greedy(
    std::span<const EquivalenceClass> classes, std::size_t num_processors);

/// Greedy longest-processing-time over explicit per-class weights (the
/// generic core of schedule_greedy, exposed for custom weight functions).
std::vector<std::size_t> schedule_greedy_by_weight(
    std::span<const std::size_t> weights, std::size_t num_processors);

/// Support-aware class weight — §5.2.1's suggested refinement ("make use
/// of the average support of the itemsets within a class"): the estimated
/// intersection work Σ over member pairs of min(sup(a,x), sup(a,y)),
/// which bounds each first-level tid-list intersection of the class.
std::size_t support_weight(const EquivalenceClass& eq_class,
                           const TriangleCounter& counter);

/// Round-robin schedule by class index — the naive baseline the scheduling
/// ablation benchmark compares against.
std::vector<std::size_t> schedule_round_robin(
    std::span<const EquivalenceClass> classes, std::size_t num_processors);

/// Total weight per processor under an assignment (for load-imbalance
/// metrics: max/mean of this vector).
std::vector<std::size_t> processor_loads(
    std::span<const EquivalenceClass> classes,
    std::span<const std::size_t> assignment, std::size_t num_processors);

}  // namespace eclat
