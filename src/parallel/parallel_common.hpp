// Types shared by all parallel mining algorithms.
#pragma once

#include <map>
#include <string>

#include "common/result.hpp"
#include "data/horizontal.hpp"
#include "mc/cluster.hpp"

namespace eclat::par {

/// What a parallel run returns: the (globally identical) mining result plus
/// the virtual-time accounting the benchmarks report.
struct ParallelOutput {
  MiningResult result;

  /// Per-processor outcome of the run (all kFinished unless a fault plan
  /// injected crashes; the mined result is complete either way as long as
  /// at least one processor survives).
  mc::RunReport run_report;

  /// Makespan of the run in the backend's native clock: max final
  /// *virtual* clock under the mc simulator, host *wall* seconds under
  /// the native thread backend.
  double total_seconds = 0.0;
  /// Named phase durations; for Eclat: "initialization", "transformation",
  /// "asynchronous", "reduction". "setup" = initialization+transformation
  /// (the break-up column of the paper's Table 2).
  std::map<std::string, double> phase_seconds;

  /// Which substrate produced this run: "mc" (the default; the
  /// deterministic virtual-time simulator) or "threads", which
  /// exec::thread_eclat sets.
  std::string backend = "mc";
  /// Resolved worker count of exec::thread_eclat (--exec-threads=0
  /// resolves to hardware concurrency, echoed here); 0 on the simulator,
  /// whose width is its topology's T.
  std::size_t exec_threads = 0;
  /// Host wall-clock seconds of an exec::thread_eclat run; 0 on the
  /// simulator, which knows only virtual time. Unlike total_seconds this
  /// is machine-dependent and never feeds virtual time.
  double wall_seconds = 0.0;

  std::uint64_t mc_bytes = 0;     ///< Memory Channel traffic of the run
  std::uint64_t mc_messages = 0;

  // --- Recovery-store accounting (mc backend only; zero under the thread
  // backend, which has no simulated failures). ---
  /// Logical tid-list image bytes in the recovery store (one copy each;
  /// multiply by the replication factor for the cluster-wide footprint).
  std::uint64_t image_bytes = 0;
  /// Live image replica copies across all classes at the end of the run,
  /// as seen by the assembling survivor's tracker.
  std::uint64_t replica_copies = 0;
  /// Store puts rejected by the epoch fence (stale writers from a healed
  /// partition minority).
  std::uint64_t fenced_rejections = 0;
  /// Classes recovered by lineage recomputation from the on-disk
  /// horizontal partitions because every image replica was lost.
  std::uint64_t lineage_rebuilds = 0;

  // --- Thread-backend fault-tolerance accounting (zero under the mc
  // backend). ---
  /// Class attempts that failed (injected throws, corrupt-result
  /// detections, memory-budget trips).
  std::uint64_t exec_task_failures = 0;
  /// Failed attempts re-enqueued by the retry path (failures short of
  /// the retry budget).
  std::uint64_t exec_task_retries = 0;
  /// Peak live tid-set bytes of any class at a budget checkpoint: a
  /// function of the input and config alone (0 when the budget is
  /// disabled, since metering is off).
  std::uint64_t exec_arena_peak_bytes = 0;

  double setup_seconds() const {
    double setup = 0.0;
    for (const auto& [name, seconds] : phase_seconds) {
      if (name == "initialization" || name == "transformation") {
        setup += seconds;
      }
    }
    return setup;
  }
};

/// The per-processor slice of the horizontally partitioned database: block
/// `p` of a T-way equal split (paper §3: equal-sized blocks on each
/// processor's local disk).
std::span<const Transaction> local_partition(const HorizontalDatabase& db,
                                             const mc::Topology& topology,
                                             std::size_t proc);

/// Bytes of the local partition, for disk-scan cost charging.
std::size_t partition_bytes(std::span<const Transaction> transactions);

}  // namespace eclat::par
