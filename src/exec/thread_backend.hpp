// Native shared-memory execution of the Par-Eclat pipeline. The pipeline
// (L1/L2 counting, transformation, asynchronous class mining,
// deterministic final reduction; parallel/pipeline.hpp) runs on two
// substrates, each called directly:
//
//   - "mc"      par::par_eclat on an mc::Cluster (parallel/par_eclat.hpp):
//               the deterministic virtual-time simulator. Makespans,
//               faults, stragglers and leases are pure functions of
//               (plan, seed), and classes are placed by the paper's static
//               greedy schedule (par::derive_plan).
//   - "threads" thread_eclat below: real wall-clock speed on a native
//               pool, with a deterministic per-class fault-tolerance layer
//               (exec_fault.hpp) that every run takes. DESIGN.md §11.
//
// Both produce byte-identical mined output for the same input and config
// (DESIGN.md §9); api::mine_with_stats picks one by BackendKind.
//
// thread_eclat runs the same four phases as the simulator path, placed on
// real threads instead of simulated processors. A call runs on one Crew
// (exec/crew.hpp): the calling thread is worker 0 and the W - 1 helpers
// start once per call, none at W = 1. Each parallel step runs on every
// worker and ends at a barrier; the serial code between the steps runs on
// the caller.
//
//   1. Initialization — each worker counts items and then pairs over its
//      block of the same T-way partition the simulator uses
//      (par::local_partition), the pairs into a 4-byte-cell
//      TriangleCounter32; in the next step each worker sums one cell
//      range of the W pair counters into the first.
//   2. Transformation — the frequent pairs and their equivalence classes
//      are derived from the merged counts (pure functions, as in
//      eclat_sequential; the simulator's MiningPlan, with its static
//      schedule and exchange lists, is not built here). The caller builds
//      the result's head (singletons, then frequent pairs with their
//      supports) and frees every triangle before anything below is
//      allocated. The tid-list of every item that occurs in a class of
//      two or more members is allocated once, exact-size from the merged
//      item counts, and each worker writes its block's tids in place
//      through ItemSlots cursors that start at the item's count over the
//      earlier blocks: block order is tid order, so the lists come out
//      globally sorted (paper §6.3) with no merge. In the next step each
//      list is seeded once into a shared, read-only TidSet under the
//      run's kernel over the database's tid universe (under auto a dense
//      item is a bitmap). No pair tid-list is built here.
//   3. Asynchronous — each class runs as an isolated task with
//      compute_frequent over a per-worker TidArena, its atoms
//      t(prefix) ∩ t(member) joined from the item tid-sets when the task
//      starts, so the item tid-sets and one class per worker are all the
//      tid-lists alive (paper §5.3). All workers take classes through
//      one atomic cursor over one queue of every class, sorted by
//      descending C(s,2) with ties by class id, so whichever frees up
//      first takes the heaviest class left. Every worker joins any class
//      from the same shared item tid-sets, so pinning a class to a worker
//      (the paper's static placement, §5.2.1, which the simulator keeps)
//      would keep no locality here.
//      Every attempt runs inside capture_class_failure: an exception
//      fails only that attempt, and the class runs again at once on the
//      same worker, up to --exec-max-retries, then is quarantined; with
//      --exec-mem-budget set, the class memory budget is the recursion's
//      MiningGuard; every mined slot is contract-validated before it is
//      committed. A class's attempts never overlap, so its slot has
//      exactly one writer. The fault schedule, retry sequence, and
//      quarantine outcome are pure functions of (plan, seed, class id,
//      attempt index) — DESIGN.md §11.
//   4. Final reduction — results are committed into per-class slots
//      (exact-size flat stores; the item tid-sets are freed once every
//      class is mined), then the head and the slots are scattered by the
//      W workers to offsets prefix-summed from their per-size counts, in
//      ascending class id after the head (paper §6.3), so the result
//      arrives in canonical order and normalize only verifies it; output
//      is therefore byte-identical to the sequential reference and to the
//      mc backend regardless of worker count, interleaving, or recovered
//      faults (DESIGN.md §9).
//
// A run either completes with the byte-identical result or throws the
// typed clean abort ExecClassQuarantined after the asynchronous step
// (lowest quarantined class id, deterministic). ParEclatConfig's
// schedule, lease, retransmit and replication knobs are ignored (they
// model the simulated cluster, not this pool); the run report is
// all-kFinished on success.
#pragma once

#include <cstddef>
#include <cstdint>

#include "data/horizontal.hpp"
#include "exec/exec_fault.hpp"
#include "parallel/par_eclat.hpp"
#include "parallel/parallel_common.hpp"

namespace eclat::exec {

/// Which substrate api::mine_with_stats runs Par-Eclat on.
enum class BackendKind : std::uint8_t {
  kMc,       ///< deterministic virtual-time simulator (the default)
  kThreads,  ///< native shared-memory threads (thread_eclat)
};

struct ThreadBackendOptions {
  /// Worker threads; 0 resolves to the hardware concurrency (and the
  /// resolved value is echoed in ParallelOutput::exec_threads).
  std::size_t threads = 0;
  /// Retry budget per class (--exec-max-retries): a class whose attempts
  /// fail more than this many times is quarantined and the run ends in
  /// the typed clean abort (ExecClassQuarantined).
  std::uint32_t max_retries = 2;
  /// Memory budget in bytes on the live tid-sets of the class being mined
  /// (--exec-mem-budget); 0 = unlimited (metering disabled). See
  /// mem_budget.hpp for the ladder.
  std::size_t mem_budget = 0;
  /// Deterministic class-attempt fault schedule (empty = fault-free).
  ExecFaultPlan faults;
};

/// Resolve a requested thread count: 0 means hardware concurrency,
/// clamped to at least 1.
std::size_t resolve_threads(std::size_t requested);

/// Run Par-Eclat on resolve_threads(options.threads) workers.
/// total_seconds and wall_seconds are both host wall-clock here;
/// phase_seconds carries the usual four phase labels. Throws
/// ExecClassQuarantined when a class exhausts its retry budget.
par::ParallelOutput thread_eclat(const HorizontalDatabase& db,
                                 const par::ParEclatConfig& config,
                                 const ThreadBackendOptions& options);

}  // namespace eclat::exec
