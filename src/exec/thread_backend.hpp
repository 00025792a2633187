// Native shared-memory execution of the Par-Eclat pipeline: the same
// four phases as the simulator path (parallel/pipeline.hpp), placed on a
// real thread pool instead of simulated processors.
//
//   1. Initialization — each worker counts items and pairs over its block
//      of the same T-way partition the simulator uses
//      (par::local_partition), then the partial counters are sum-merged.
//   2. Transformation — every worker derives the identical MiningPlan
//      from the merged counts (pure function). The global tid-lists are
//      allocated once, exact-size from the merged counts, and each worker
//      writes its block's tids in place through PairSlots cursors that
//      start at the pair's count over the earlier blocks: block order is
//      tid order, so the lists come out globally sorted (paper §6.3) with
//      no merge.
//   3. Asynchronous — each class runs as an isolated task with
//      compute_frequent over a per-worker TidArena. Workers take classes
//      through an atomic cursor over a queue sorted by descending C(s,2):
//      under static, worker w walks its own queue, the paper's greedy
//      assignment; under steal, all workers walk one queue of every
//      class, so whichever frees up first takes the heaviest class left.
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
//      (exact-size flat stores; a committed class frees its tid-lists),
//      then scattered by the W workers to offsets prefix-summed from the
//      per-size counts of singletons, pairs and slots in ascending class
//      id (paper §6.3), so the result arrives in canonical order and
//      normalize only verifies it; output is therefore byte-identical to
//      the sequential reference and to the mc backend regardless of
//      worker count, scheduler, interleaving, or recovered faults
//      (DESIGN.md §9).
//
// A run either completes with the byte-identical result or throws the
// typed clean abort ExecClassQuarantined after the workers joined
// (lowest quarantined class id, deterministic). ParEclatConfig's mc
// lease/retransmit knobs are still ignored (those model the simulated
// cluster, not this pool); the run report is all-kFinished on success.
#pragma once

#include "exec/backend.hpp"

namespace eclat::exec {

class ThreadBackend final : public Backend {
 public:
  explicit ThreadBackend(const ThreadBackendOptions& options)
      : threads_(resolve_threads(options.threads)),
        scheduler_(options.scheduler),
        max_retries_(options.max_retries),
        mem_budget_(options.mem_budget),
        faults_(options.faults) {}

  std::string_view name() const override { return "threads"; }
  /// Resolved worker count (--exec-threads=0 -> hardware concurrency).
  std::size_t workers() const override { return threads_; }

  /// total_seconds and wall_seconds are both host wall-clock here;
  /// phase_seconds carries the usual four phase labels. Throws
  /// ExecClassQuarantined when a class exhausts its retry budget.
  par::ParallelOutput mine(const HorizontalDatabase& db,
                           const par::ParEclatConfig& config) override;

 private:
  std::size_t threads_;
  ClassScheduler scheduler_;
  std::uint32_t max_retries_;
  std::size_t mem_budget_;
  ExecFaultPlan faults_;
};

}  // namespace eclat::exec
