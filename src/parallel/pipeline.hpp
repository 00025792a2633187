// Backend-independent core of the Par-Eclat pipeline (paper §5-§6).
//
// Every execution backend — the deterministic mc::Cluster simulator and
// the native shared-memory thread pool (src/exec) — runs the *same*
// logical pipeline: count L1/L2, derive the frequent pairs and their
// equivalence classes, build the vertical tid-lists (each class's pair
// lists on the simulator, the shared item lists each class task joins
// its atoms from on the thread pool), mine each class with
// Compute_Frequent, and assemble the result in deterministic commit
// order. This header is that shared logic, as pure functions of their
// inputs: no virtual time, no threads, no wire formats. What differs per
// backend is only *how* the stages are placed on processors and how the
// data moves between them.
//
// The simulator's placement lives here too: the replicated MiningPlan
// (derive_plan — the classes plus the paper's static class schedule and
// the exchange lists) serves the simulated algorithms only. The thread
// pool derives just the classes (partition_into_classes, as
// eclat_sequential does) and its workers share one queue of them.
//
// Determinism contract: every function here is a pure function of its
// arguments. Class ids ascend with the prefix item, which is the commit
// order the final reduction walks — results assembled per class id are
// byte-identical no matter which worker mined which class, or in what
// interleaving (see DESIGN.md §9).
#pragma once

#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "eclat/compute_frequent.hpp"
#include "eclat/equivalence.hpp"
#include "vertical/vertical_db.hpp"

namespace eclat::par {

/// Class-scheduling heuristic (§5.2.1; round-robin is the ablation
/// baseline).
enum class ScheduleHeuristic : std::uint8_t {
  kGreedyWeight,    ///< greedy over C(s,2) weights (the paper's default)
  kGreedySupport,   ///< greedy over support-aware weights (§5.2.1 idea)
  kRoundRobin,      ///< naive baseline for the scheduling ablation
};

/// Static class placement over `bins` processors (or hosts, for the
/// hybrid algorithms) under the chosen heuristic.
std::vector<std::size_t> make_schedule(
    std::span<const EquivalenceClass> classes, std::size_t bins,
    ScheduleHeuristic heuristic, const TriangleCounter& counter);

/// The replicated mining plan every simulated processor derives
/// independently from the globally reduced L2 counts (paper §5.2.1:
/// "done concurrently on all the processors since all of them have
/// access to the global L2"). Class ids are dense and ordered by
/// ascending prefix item; they are both the scheduling unit and the
/// commit order of the final reduction. Simulator only: the thread
/// backend builds no schedule or exchange lists.
struct MiningPlan {
  std::vector<PairKey> frequent_pairs;
  std::vector<EquivalenceClass> classes;
  /// Static owner of each class (processor for par_eclat, host for
  /// hybrid_eclat).
  std::vector<std::size_t> assignment;
  /// Pairs belonging to classes of size >= 2 — the tid-lists that move in
  /// the vertical exchange. Singleton classes generate no candidates
  /// (§4.1), so their lists never materialize. Sorted and class-contiguous:
  /// each such class owns one run of consecutive entries, in class order.
  std::vector<PairKey> exchanged_pairs;
  /// Class id owning each exchanged pair, aligned with exchanged_pairs.
  std::vector<std::size_t> class_of;
};

/// Derive the plan from the reduced global pair counts. Pure: identical
/// counts and parameters yield the identical plan on every caller.
MiningPlan derive_plan(const TriangleCounter& counter, Count minsup,
                       std::size_t bins, ScheduleHeuristic heuristic);

/// Build the atoms of one equivalence class by *moving* the class's
/// global tid-lists out of `lists` (keyed by pair). The atoms come out
/// sorted lexicographically, the order Compute_Frequent requires. The
/// miners take atoms by slot (atoms_by_class); the one caller left is
/// bench_e2e's traced replica, and this goes once that replica does too.
std::vector<Atom> take_class_atoms(
    const EquivalenceClass& eq_class,
    std::unordered_map<PairKey, TidList>& lists);

/// Lineage fallback: rebuild the atoms of one equivalence class straight
/// from the horizontal partitions (given in ascending block order), as if
/// the transformation phase had run for just this class. Because the
/// database is block-partitioned, concatenating per-partition inversions
/// in partition order reproduces the globally sorted tid-lists exactly —
/// the result is byte-for-byte the atoms the exchange would have
/// delivered (none for a singleton class), which is what keeps recovery
/// output identical when every replica of a class's image has been lost.
std::vector<Atom> rebuild_class_atoms(
    const EquivalenceClass& eq_class,
    std::span<const std::span<const Transaction>> partitions);

// --- Final-reduction assembly. All backends build the result in the same
// deterministic order: frequent 1-itemsets, then frequent pairs, then the
// per-class discoveries walked by ascending class id, then finalize. ---

/// Append the frequent 1-itemsets from the globally reduced item counts.
void append_singletons(MiningResult& result,
                       std::span<const Count> item_counts, Count minsup);

/// Append every frequent pair with its globally counted support, read
/// from a counter of either cell width.
template <typename Cell>
void append_frequent_pairs(MiningResult& result,
                           std::span<const PairKey> frequent_pairs,
                           const BasicTriangleCounter<Cell>& counter) {
  for (PairKey key : frequent_pairs) {
    const Item pair[] = {pair_first(key), pair_second(key)};
    result.itemsets.push_back(pair, counter.get(pair[0], pair[1]));
  }
}

/// Canonical order (normalize) + per-level frequency stats. After this
/// the result is a pure function of the itemset *set*, independent of the
/// order classes were mined or appended in.
void finalize_result(MiningResult& result);

}  // namespace eclat::par
