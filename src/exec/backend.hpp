// Execution-backend seam: the same Par-Eclat pipeline (L1/L2 counting,
// vertical exchange, asynchronous class mining, deterministic final
// reduction — parallel/pipeline.hpp) runs on two substrates:
//
//   - "mc"      the deterministic virtual-time cluster simulator
//               (mc/cluster.hpp), wrapped as McBackend. Replayable:
//               makespans, faults, stragglers and leases are pure
//               functions of (plan, seed). The research backend; it
//               places classes by the paper's static greedy schedule
//               (par::derive_plan).
//   - "threads" a native shared-memory pool (ThreadBackend): one worker
//               per core, per-worker TidArenas, and classes taken
//               heaviest-first through an atomic cursor over one queue
//               of every class. Real wall-clock speed, with a
//               deterministic per-class fault-tolerance layer
//               (exec_fault.hpp) that every run takes: task isolation,
//               result validation, bounded retry,
//               quarantine-then-clean-abort and a per-class memory
//               budget. DESIGN.md §11.
//
// Both backends produce byte-identical mined output for the same input
// and config — the commit-order reduction rule (results assembled per
// class id, then normalized) makes the result independent of which
// worker mined which class and in what interleaving. DESIGN.md §9.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "data/horizontal.hpp"
#include "exec/exec_fault.hpp"
#include "parallel/par_eclat.hpp"
#include "parallel/parallel_common.hpp"

namespace eclat::exec {

/// Which execution substrate runs the pipeline.
enum class BackendKind : std::uint8_t {
  kMc,       ///< deterministic virtual-time simulator (the default)
  kThreads,  ///< native shared-memory thread pool
};

const char* to_string(BackendKind kind);

/// Parse "mc" | "threads"; throws std::invalid_argument naming the
/// allowed values otherwise.
BackendKind parse_backend(std::string_view name);

/// One execution substrate the Par-Eclat pipeline runs on.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Stable backend label ("mc" | "threads"); echoed into
  /// ParallelOutput::backend of every run.
  virtual std::string_view name() const = 0;

  /// Resolved worker count (simulated processors or real threads).
  virtual std::size_t workers() const = 0;

  /// Run the full Par-Eclat pipeline. The mined result is byte-identical
  /// across backends and worker counts; only the timing accounting
  /// differs.
  virtual par::ParallelOutput mine(const HorizontalDatabase& db,
                                   const par::ParEclatConfig& config) = 0;
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

/// Construct a backend. The mc flavour mines on a fresh Cluster of the
/// given topology per run; the threads flavour ignores topology/cost and
/// uses `options`.
std::unique_ptr<Backend> make_backend(BackendKind kind,
                                      const mc::Topology& topology,
                                      const mc::CostModel& cost,
                                      const ThreadBackendOptions& options);

/// Resolve a requested thread count: 0 means hardware concurrency,
/// clamped to at least 1.
std::size_t resolve_threads(std::size_t requested);

}  // namespace eclat::exec
