// Parallel Eclat (paper §5-§6): the paper's contribution.
//
// Four phases per processor:
//   1. Initialization — scan the local partition once, count all
//      2-itemsets in a local triangular array, sum-reduce to the global L2
//      (the paper never counts single items).
//   2. Transformation — partition L2 into equivalence classes, schedule
//      them greedily over the processors, scan the local partition a
//      second time building partial tid-lists for every exchanged
//      2-itemset (slot-indexed, through PairSlots), then exchange tid-lists
//      so each processor holds the *global* tid-lists of the classes it
//      owns. Because the database is block-partitioned, partial lists
//      concatenated in processor order are already globally sorted
//      (§6.3): a receiver groups the sections by their partition tag and
//      appends each to its pair's slot in ascending partition order.
//   3. Asynchronous — mine each owned class to completion with recursive
//      tid-list intersections. No communication, no synchronization; the
//      third and final scan reads the class tid-lists back from local disk.
//   4. Final reduction — gather every processor's discoveries.
//
// Crash recovery (beyond the paper; see DESIGN.md §5): every phase
// tolerates processor crashes injected via a cluster FaultPlan. Lost
// partition counts are re-counted by survivors and repaired with a
// delta-reduction; the tid-list exchange is redone until a commit
// barrier sees no new failures (dead processors' partitions re-scanned,
// their classes reassigned by the same greedy weights); each mined class
// is checkpointed in replicated receive regions, so after the final
// gather survivors re-mine only the dead processors' *unfinished*
// classes. The mined itemsets are byte-identical to the fault-free run;
// the recovery cost appears in the virtual-time makespan (and, when
// recovery ran, in a fifth "recovery" entry of phase_seconds).
//
// Straggler mitigation (also beyond the paper; see DESIGN.md §6): the
// static greedy schedule cannot move work off a processor that is slow
// rather than dead — a persistent disk stall or a silent hang
// (FaultKind::kHang) would bound the asynchronous phase by the
// straggler. With config.lease.speculate on, each owner acquires a
// progress lease per owned class at the exchange commit and renews at
// every class checkpoint; idle survivors watch the lease board
// (mc/lease.hpp) and speculatively re-mine classes whose lease expired,
// from the replicated tid-list images — MapReduce-backup-task style.
// Commits into the RecoveryStore are idempotent first-writer-wins, so a
// hung-then-resumed owner racing its backup cannot tear or duplicate
// output, and owners skip (migrate away) classes a backup already
// committed. The final result is assembled per class id from the store,
// byte-identical across {speculation on, off, fault-free}.
#pragma once

#include "eclat/compute_frequent.hpp"
#include "eclat/equivalence.hpp"
#include "parallel/parallel_common.hpp"
#include "parallel/pipeline.hpp"

namespace eclat::par {

struct ParEclatConfig {
  Count minsup = 1;
  IntersectKernel kernel = IntersectKernel::kMergeShortCircuit;
  ScheduleHeuristic schedule = ScheduleHeuristic::kGreedyWeight;
  /// Report frequent 1-itemsets too (costed extra work in the first scan;
  /// off reproduces the paper exactly, on makes results comparable with
  /// Apriori in the cross-validation tests).
  bool include_singletons = true;
  /// Progress-lease straggler detection and speculative re-execution
  /// (lease duration, launch threshold, suspector seed; mc/lease.hpp).
  /// Never affects the mined itemsets, only who mines them and when.
  mc::LeasePolicy lease;
  /// Corrupted-payload recovery: up to this many retransmissions per
  /// payload, with exponential virtual-time backoff between attempts,
  /// before the sender is marked suspect and the transfer abandoned.
  std::size_t max_retransmits = 4;
  /// First retry's backoff in virtual seconds (doubles per attempt).
  double retransmit_backoff = 1e-4;
  /// Replication factor R for the class tid-list images in the recovery
  /// store: each image lives on the R highest-ranked nodes of its
  /// rendezvous placement, and survivors re-replicate after every failure
  /// fold (parallel/recovery.hpp). 0 = full replication, the legacy
  /// every-node-holds-everything behaviour. When all R holders of an
  /// image are lost before recovery needs it, the class is rebuilt by
  /// lineage: re-inverting its tid-lists from the on-disk horizontal
  /// partitions. Never affects the mined itemsets, only recovery cost.
  std::size_t replication = 0;
};

/// Run parallel Eclat on the cluster. Fills phase_seconds with
/// "initialization", "transformation", "asynchronous" and "reduction".
ParallelOutput par_eclat(mc::Cluster& cluster, const HorizontalDatabase& db,
                         const ParEclatConfig& config);

}  // namespace eclat::par
