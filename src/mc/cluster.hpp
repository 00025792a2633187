// Virtual-time cluster simulation: the SPMD substrate the parallel mining
// algorithms run on.
//
// Each simulated processor is a real std::thread, so the concurrency
// structure (phases, barriers, data exchange) is genuinely exercised; but
// *time* is virtual. Every processor owns a clock (seconds) advanced by:
//   - measured thread-CPU time of compute sections, scaled by
//     CostModel::cpu_scale (so results do not depend on the host machine's
//     core count or load);
//   - modeled disk-scan time with per-host contention;
//   - modeled Memory Channel message/collective time.
// Barriers and collectives advance every participant to the maximum clock
// (plus the collective's own cost), exactly like lock-step phases on the
// real machine. The reported "total execution time" of an algorithm is the
// maximum final clock — deterministic for a fixed dataset and topology.
//
// Failure semantics: a FaultPlan attached with set_fault_plan can crash
// processors (ProcessorFailed), stall disks, corrupt payloads and degrade
// the hub — deterministically, from a seeded schedule. A crashed processor
// deregisters from the PhaseBarrier, and every collective completes with
// survivor-only semantics: surviving processors fold only surviving slots
// and keep running; Cluster::run reports a per-processor outcome instead
// of rethrowing-and-hanging. The failed set visible to an SPMD body is the
// epoch snapshot taken at its last collective, so every survivor of one
// generation observes the identical set and failure-handling control flow
// stays globally consistent.
//
// Non-fail-stop slowness (kDiskStall stragglers, bounded or unbounded
// kHang) is invisible to the barrier layer; the progress-lease board
// (mc/lease.hpp, exposed via the Processor::lease_* methods) is how
// algorithms detect and migrate around it deterministically.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "common/types.hpp"
#include "mc/cost_model.hpp"
#include "mc/fault.hpp"
#include "mc/lease.hpp"
#include "mc/memory_channel.hpp"
#include "mc/phase_barrier.hpp"
#include "mc/trace.hpp"
#include "mc/topology.hpp"

namespace eclat::mc {

/// Opaque byte payload for point-to-point style exchange.
using Blob = std::vector<std::uint8_t>;

class Cluster;

/// How one simulated processor ended a run.
enum class ProcessorOutcome : std::uint8_t {
  kFinished,     ///< body returned normally
  kCrashed,      ///< an injected ProcessorFailed fault fired
  kHung,         ///< an injected unbounded ProcessorHung fault fired
  kPartitioned,  ///< cut off from quorum by an injected partition window
  kAborted,      ///< the body threw any other exception
};

const char* to_string(ProcessorOutcome outcome);

/// Per-processor outcome of a Cluster::run. Replaces the old behaviour of
/// rethrowing the first exception while peers hang at a barrier: crashes
/// are *reported*, non-fault exceptions are still rethrown (first one)
/// after every thread has joined, with the rest logged to the Trace.
struct RunReport {
  std::vector<ProcessorOutcome> outcomes;

  bool all_finished() const {
    for (const ProcessorOutcome o : outcomes) {
      if (o != ProcessorOutcome::kFinished) return false;
    }
    return true;
  }

  std::size_t crashed() const {
    std::size_t n = 0;
    for (const ProcessorOutcome o : outcomes) {
      if (o == ProcessorOutcome::kCrashed) ++n;
    }
    return n;
  }

  std::size_t partitioned() const {
    std::size_t n = 0;
    for (const ProcessorOutcome o : outcomes) {
      if (o == ProcessorOutcome::kPartitioned) ++n;
    }
    return n;
  }

  std::size_t finished() const {
    std::size_t n = 0;
    for (const ProcessorOutcome o : outcomes) {
      if (o == ProcessorOutcome::kFinished) ++n;
    }
    return n;
  }

  /// Ids of processors that did not finish.
  std::vector<std::size_t> failed() const {
    std::vector<std::size_t> ids;
    for (std::size_t p = 0; p < outcomes.size(); ++p) {
      if (outcomes[p] != ProcessorOutcome::kFinished) ids.push_back(p);
    }
    return ids;
  }
};

/// Handle an SPMD body uses to act as one processor of the cluster.
/// Not copyable; lives for the duration of Cluster::run.
class Processor {
 public:
  std::size_t id() const { return id_; }
  std::size_t host() const;
  const Topology& topology() const;
  const CostModel& cost() const;

  /// Current virtual time, seconds.
  double now() const;

  /// Advance this processor's clock.
  void advance(double seconds);

  /// Run `body`, measure its thread-CPU time, and charge it (scaled) to
  /// the clock. Returns body's result.
  template <typename F>
  auto compute(F&& body) {
    fault_probe(FaultOp::kCompute);
    // eclat-lint: allow(det-wallclock) measured thread-CPU feeds virtual time scaled by cost().cpu_scale; deterministic runs pin cpu_scale = 0
    CpuStopwatch watch;
    if constexpr (std::is_void_v<decltype(body())>) {
      body();
      const auto ns = watch.elapsed_ns();
      advance(static_cast<double>(ns) * 1e-9 * cost().cpu_scale);
      trace_compute(static_cast<std::uint64_t>(ns));
    } else {
      auto result = body();
      const auto ns = watch.elapsed_ns();
      advance(static_cast<double>(ns) * 1e-9 * cost().cpu_scale);
      trace_compute(static_cast<std::uint64_t>(ns));
      return result;
    }
  }

  /// Charge a sequential scan of `bytes` from the host-local disk.
  /// `scanners` = processors of this host scanning concurrently
  /// (0 = assume all of them, the common SPMD case).
  void disk_read(std::size_t bytes, std::size_t scanners = 0);
  void disk_write(std::size_t bytes, std::size_t scanners = 0);

  /// Like disk_read, but the head is already positioned (the previous
  /// access on this processor ended where this read starts), so no seek
  /// is charged — only transfer. Use for runs of contiguous reads; the
  /// first read of the run, and the first after skipping ahead, must go
  /// through disk_read.
  void disk_read_stream(std::size_t bytes, std::size_t scanners = 0);

  /// Seek-free counterpart of disk_write, for appending runs of records
  /// to a log the head is already parked at (e.g. streaming several
  /// replica images in one re-replication batch). The first write of a
  /// batch must go through disk_write.
  void disk_write_stream(std::size_t bytes, std::size_t scanners = 0);

  // --- Collectives. Every *surviving* processor of the cluster must call
  // the same sequence of collectives (standard SPMD discipline); failed
  // processors are excluded from the fold and their result slots stay
  // empty. ---

  /// Synchronize; clocks jump to the survivors' max clock, never below
  /// the closing phase's start, plus the barrier cost.
  void barrier();

  /// How a sum-reduction is charged in virtual time. The data movement is
  /// identical; only the cost model differs.
  enum class ReduceScheme : std::uint8_t {
    /// The paper's §6.2 scheme: processors update a shared Memory Channel
    /// array one at a time (mutually exclusive), O(P) updates end to end.
    /// CCPD/Count Distribution pays this every iteration.
    kSerialized,
    /// Recursive-doubling allreduce, O(log P) rounds — the alternative the
    /// paper's footnote 2 points out. Parallel Eclat uses it for its
    /// single initialization reduction.
    kTree,
    /// Serialized across *hosts* only (one representative per host; the
    /// intra-host combine is shared memory). The hybrid algorithms' (§8.1)
    /// inter-host reduction.
    kSerializedHosts,
  };

  /// Element-wise global sum of `values` (same length on every survivor);
  /// on return every surviving processor holds the survivor totals.
  void sum_reduce(std::span<Count> values,
                  ReduceScheme scheme = ReduceScheme::kSerialized);

  /// Deliver root's payload to every processor (MC writes are multicast,
  /// §6.1, so the root pays one message). A failed root delivers an empty
  /// payload.
  Blob broadcast(std::size_t root, Blob payload);

  /// Personalized all-to-all: `outgoing[d]` goes to processor d; returns
  /// `incoming[s]` from processor s. Models the §6.3 lock-step
  /// write/read-phase exchange through bounded transmit buffers. Rows from
  /// processors that had failed before the fold arrive empty — consult
  /// failed_snapshot() for who participated.
  std::vector<Blob> all_to_all(std::vector<Blob> outgoing);

  /// Every surviving processor contributes `payload`; all receive all
  /// surviving contributions (failed slots are empty).
  std::vector<Blob> all_gather(Blob payload);

  // --- Failure handling. ---

  /// The failed-processor set as of this processor's most recent
  /// collective (the epoch snapshot folded under the barrier lock). Every
  /// participant of one generation sees the identical set, which is what
  /// keeps SPMD failure-handling decisions globally consistent.
  std::vector<bool> failed_snapshot() const;

  /// Commit epoch as of this processor's most recent collective: the
  /// number of processors in its epoch snapshot that had failed. The
  /// counter is monotone and advances exactly when the failed set grows,
  /// so it fences first-writer-wins stores: a survivor that observed a
  /// newer epoch raises the store's fence, and writes stamped with an
  /// older epoch — a healed minority replaying pre-partition state — are
  /// rejected instead of committed.
  std::size_t commit_epoch() const;

  /// False while an active partition window leaves this processor on a
  /// side without quorum (at its current clock). Commits that require a
  /// quorum acknowledgement must be queued locally until this turns true
  /// again (the window healed) — or dropped with the processor when its
  /// next collective aborts it.
  bool quorum_member() const;

  /// Named injection site for algorithm-level fault points (e.g. "after
  /// this equivalence class was checkpointed"). No-op without a fault
  /// plan; may throw ProcessorFailed.
  void fault_point(const std::string& label);

  /// Fetch the pristine copy of the last collective payload delivered from
  /// `src` to this processor after its delivered copy failed validation
  /// (the fault injector keeps corrupted deliveries' originals in the
  /// cluster's retransmit buffer). Charges a full retransmission. Throws
  /// std::logic_error when nothing was corrupted — a decoder rejecting an
  /// uncorrupted payload is a bug, not a recoverable fault.
  Blob retransmit(std::size_t src);

  // --- Progress leases (see mc/lease.hpp). Deterministic straggler
  // detection: algorithms acquire a lease per unit of owned work, renew
  // at fault_point probes, and observe peers through lease_view. Every
  // call below also publishes this processor's clock to the board. ---

  /// Start a progress lease on `task`, held by this processor.
  void lease_acquire(std::size_t task);
  /// Drop the lease on `task` without committing (work migrated away).
  void lease_release(std::size_t task);
  /// Announce a speculative claim on a suspected peer's task.
  void lease_claim(std::size_t task);
  /// Announce a commit of `task`; releases this processor's own lease.
  void lease_commit(std::size_t task);
  /// Publish this processor's clock with no other fact (idle progress).
  void lease_touch();
  /// This processor will publish no further lease activity this run.
  void lease_done();
  /// Explicitly mark `proc` suspect (e.g. retransmissions exhausted).
  void lease_suspect(std::size_t proc);
  /// Virtual-time-consistent view of peers' progress at now(). Blocks in
  /// real time (free) until the view is complete; see mc/lease.hpp.
  LeaseView lease_view(const LeasePolicy& policy);

  // --- Tracing (no-ops unless a Trace is attached to the cluster). ---
  void phase_begin(const std::string& label);
  void phase_end(const std::string& label);
  void mark(const std::string& label, std::uint64_t detail = 0);

 private:
  friend class Cluster;
  Processor(Cluster* cluster, std::size_t id) : cluster_(cluster), id_(id) {}
  Processor(const Processor&) = delete;
  Processor& operator=(const Processor&) = delete;

  void trace_compute(std::uint64_t nanoseconds);
  /// Probe the fault injector at an injection site; throws
  /// ProcessorFailed on a crash event, returns the disk-stall multiplier.
  double fault_probe(FaultOp op, const std::string& label = "");

  Cluster* cluster_;
  std::size_t id_;
  std::string phase_;  ///< current phase label (set by phase_begin/end)
};

class Cluster {
 public:
  Cluster(const Topology& topology, const CostModel& cost = {});

  /// Run `body` as one instance per processor (T real threads). May be
  /// called repeatedly; clocks, failure state and the fault injector are
  /// reset per run. Injected crashes (ProcessorFailed) are *reported* in
  /// the RunReport; any other exception is rethrown here after all
  /// threads join (first one wins, the rest are logged to the Trace).
  RunReport run(const std::function<void(Processor&)>& body);

  const Topology& topology() const { return topology_; }
  const CostModel& cost() const { return cost_; }
  MemoryChannel& channel() { return channel_; }

  /// Final per-processor clocks of the last run.
  const std::vector<double>& clocks() const { return clocks_; }

  /// Total execution time of the last run = max final clock.
  double makespan() const;

  /// Attach a deterministic failure schedule; each subsequent run()
  /// instantiates a fresh FaultInjector from it, so every run replays the
  /// identical schedule. Pass an empty plan to run fault-free.
  void set_fault_plan(FaultPlan plan) { fault_plan_ = std::move(plan); }

  /// Outcomes of the last run (also returned by run()).
  const RunReport& last_run_report() const { return report_; }

  /// Attach an event sink; processors then record disk scans, compute
  /// sections, barriers, phase markers and fault events with virtual
  /// timestamps. Pass nullptr to detach. The Trace must outlive
  /// subsequent runs.
  void set_trace(Trace* trace) { trace_ = trace; }
  Trace* trace() { return trace_; }

 private:
  friend class Processor;

  /// Arrive at the barrier; `fold` (may be empty) runs on the last
  /// arriver, then the epoch snapshot is captured. Every collective and
  /// barrier funnels through here.
  void sync(const std::function<void()>& fold);

  void apply_phase_floor_and_sync(double extra_cost);
  double max_survivor_clock() const;
  void fill_survivor_clocks(double value);
  /// Hub aggregate bandwidth, after any active degradation fault.
  double hub_bandwidth();

  Topology topology_;
  CostModel cost_;
  MemoryChannel channel_;
  PhaseBarrier barrier_;
  LeaseBoard lease_board_;
  Trace* trace_ = nullptr;

  FaultPlan fault_plan_;
  std::unique_ptr<FaultInjector> injector_;  ///< fresh per run
  RunReport report_;

  std::vector<double> clocks_;
  double phase_start_max_ = 0.0;  // max clock at the last barrier

  // Epoch snapshot of the failed set, rewritten by every fold while the
  // barrier lock is held; read by survivors between collectives (the
  // barrier's release/arrive edges order those reads against the next
  // fold's write).
  std::vector<bool> epoch_failed_;

  // Pristine copies of payloads the injector corrupted in the last
  // collective, keyed [dst][src]; consumed by Processor::retransmit.
  std::vector<std::unordered_map<std::size_t, Blob>> retransmit_store_;

  // Collective scratch state (written before a barrier, folded by the
  // last arriver, consumed after release — see the data-flow note in
  // cluster.cpp).
  std::vector<std::span<Count>> reduce_slots_;
  std::vector<Count> reduce_accum_;
  std::vector<Blob> gather_slots_;
  std::vector<Blob> gather_result_;
  std::vector<std::vector<Blob>> a2a_out_;
  std::vector<std::vector<Blob>> a2a_in_;
  Blob bcast_payload_;
};

}  // namespace eclat::mc
