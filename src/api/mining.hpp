// Public facade of the library: one include for the common "mine this
// database" workflows. Power users can target the per-module headers
// directly (eclat/, apriori/, parallel/, exec/, rules/). Par-Eclat runs on
// one of two substrates, each a direct call: par::par_eclat on an
// mc::Cluster (MineOptions::backend = kMc) or exec::thread_eclat
// (kThreads); hybrid Eclat and Count Distribution run on the simulator
// only.
#pragma once

#include <string>

#include "apriori/apriori.hpp"
#include "apriori/dhp.hpp"
#include "common/result.hpp"
#include "data/horizontal.hpp"
#include "eclat/eclat_seq.hpp"
#include "exec/thread_backend.hpp"
#include "mc/cluster.hpp"
#include "parallel/count_distribution.hpp"
#include "parallel/hybrid.hpp"
#include "parallel/par_eclat.hpp"
#include "partition/partition.hpp"
#include "rules/rules.hpp"

namespace eclat::api {

enum class Algorithm : std::uint8_t {
  kEclat,                  ///< sequential Eclat (the default)
  kEclatDiffsets,          ///< sequential Eclat with dEclat diffsets
  kApriori,                ///< sequential Apriori
  kDhp,                    ///< Apriori + DHP hash filtering
  kPartition,              ///< two-scan Partition algorithm
  kParEclat,               ///< parallel Eclat on a simulated cluster
  kHybridEclat,            ///< host-aware parallel Eclat (paper §8.1)
  kCountDistribution,      ///< parallel Apriori baseline
};

struct MineOptions {
  Algorithm algorithm = Algorithm::kEclat;
  /// Relative minimum support (0.001 = the paper's 0.1%).
  double min_support = 0.01;
  /// Intersection kernel for the Eclat-family algorithms (kEclat,
  /// kEclatDiffsets, kParEclat, kHybridEclat); Apriori-family algorithms
  /// ignore it. See kernel_from_name for the flag spellings
  /// ("merge", "short-circuit", "auto").
  IntersectKernel kernel = IntersectKernel::kMergeShortCircuit;
  /// Cluster shape for the parallel algorithms; ignored by sequential ones.
  mc::Topology topology{1, 1};
  mc::CostModel cost;
  /// Substrate for kParEclat: par::par_eclat on the deterministic
  /// virtual-time simulator (default) or exec::thread_eclat on native
  /// threads. The other parallel algorithms are simulator-only for now
  /// and reject kThreads with an actionable error.
  exec::BackendKind backend = exec::BackendKind::kMc;
  /// Worker threads for the threads backend; 0 = hardware concurrency.
  std::size_t exec_threads = 0;
  /// Per-class retry budget on the threads backend: a class failing more
  /// than this many attempts quarantines the run (clean typed abort,
  /// exec::ExecClassQuarantined).
  std::uint32_t exec_max_retries = 2;
  /// Memory budget in bytes on the live tid-sets of each class the
  /// threads backend mines; 0 = unlimited. A class over budget fails its
  /// attempt, fails every retry the same way, and quarantines the run
  /// (clean typed abort) instead of growing without bound.
  std::size_t exec_mem_budget = 0;
  /// Deterministic fault schedule for the threads backend (tests/chaos;
  /// empty = fault-free production default).
  exec::ExecFaultPlan exec_faults;
  /// Replication factor for the recovery store's class tid-list images
  /// under kParEclat on the mc backend (0 = full replication). Bounds the
  /// replicated footprint; lost images fall back to lineage recomputation.
  std::size_t replication = 0;
};

/// Mine all frequent itemsets of `db`.
MiningResult mine(const HorizontalDatabase& db, const MineOptions& options);

/// Mine and also report virtual-time accounting (parallel algorithms) or
/// just the result with zero timing (sequential).
par::ParallelOutput mine_with_stats(const HorizontalDatabase& db,
                                    const MineOptions& options);

/// End-to-end KDD pipeline: frequent itemsets, then confident rules.
std::vector<AssociationRule> mine_rules(const HorizontalDatabase& db,
                                        const MineOptions& options,
                                        double min_confidence);

/// Parse an algorithm name ("eclat", "declat", "apriori", "dhp",
/// "partition", "pareclat", "hybrid", "cd").
Algorithm parse_algorithm(const std::string& name);

}  // namespace eclat::api
