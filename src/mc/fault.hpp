// Deterministic, seeded fault injection for the simulated cluster.
//
// A FaultPlan is a list of FaultEvents attached to a Cluster before a run.
// Each event names a *site* — (processor, operation kind, phase label,
// call count) — or a virtual-time trigger, and a fault kind:
//
//   - kCrash: the processor raises ProcessorFailed at the injection site.
//     The cluster marks it failed in the PhaseBarrier so every collective
//     completes with survivor-only semantics instead of deadlocking.
//   - kDiskStall: the matching disk scan(s) take `severity` times longer —
//     a straggler, visible in the makespan but never in the mined output.
//   - kHang: the processor silently stops progressing at the injection
//     site — no exception a peer could observe, no barrier deregistration
//     it performs itself. With duration < 0 it never resumes
//     (ProcessorHung is raised so the *simulation* can reap the thread;
//     semantically the processor just went quiet). With duration >= 0 it
//     resumes after that much virtual time without having renewed its
//     progress leases — the hang-then-resume straggler that races its
//     speculative backups. Only the lease layer (mc/lease.hpp) can detect
//     either form.
//   - kCorruptMessage: bit flips or truncation applied to a payload
//     delivered by all_to_all, exercising the CRC-framed wire decoders.
//     The pristine payload stays in the cluster's retransmit buffer, so a
//     receiver that detects the corruption can recover it at a modeled
//     retransmission cost.
//   - kHubDegrade: divides the hub's aggregate bandwidth by `severity`
//     during a virtual-time window.
//   - kPartition: a deterministic virtual-time window [at_time, at_time +
//     duration) that splits the processors into two groups (`members` and
//     its complement). A group holds quorum iff it contains a strict
//     majority of *all* processors. While the window is active, a
//     processor on a non-quorum side that attempts any collective
//     operation (barrier, reduce, broadcast, all-to-all, all-gather)
//     aborts with ProcessorPartitioned — it cannot reach enough peers to
//     complete the rendezvous — while the quorum side completes with
//     survivor-only semantics once the minority has deregistered. A
//     processor whose own clock passes the window end before its next
//     collective was never observably cut: the partition healed under it.
//     When neither side holds quorum, every processor that communicates
//     in-window aborts and the run ends as a deterministic clean abort.
//
// Every random draw (which bytes flip, truncation points) comes from
// eclat::Rng streams forked from FaultPlan::seed, and every trigger
// counter is advanced only by the thread that owns it — so a (plan, seed)
// pair reproduces the exact same failure schedule on every run.
// validate_plan() rejects malformed plans (ambiguous shared trigger
// counters, out-of-order partition windows) with an actionable
// std::invalid_argument at construction instead of a debug-only contract.
#pragma once
// eclat-lint: allow-file(det-thread) injector state spans processor threads; every trigger counter is advanced only by its owning thread, so replays are exact

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace eclat::mc {

enum class FaultKind : std::uint8_t {
  kCrash,
  kDiskStall,
  kHang,
  kCorruptMessage,
  kHubDegrade,
  kPartition,
};

/// Operation kinds a fault site can match. kPoint matches the explicit
/// Processor::fault_point(label) probes algorithms place at recovery-
/// relevant boundaries (e.g. par_eclat's "class-checkpointed").
enum class FaultOp : std::uint8_t {
  kAny,
  kCompute,
  kDiskRead,
  kDiskWrite,
  kBarrier,
  kSumReduce,
  kBroadcast,
  kAllToAll,
  kAllGather,
  kPoint,
};

const char* to_string(FaultKind kind);
const char* to_string(FaultOp op);

inline constexpr std::size_t kAnyProcessor = static_cast<std::size_t>(-1);

struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;

  /// Target processor. Required (not kAnyProcessor) for kCrash,
  /// kDiskStall and kHang so trigger counters stay single-owner
  /// (that is what makes the schedule deterministic). For kCorruptMessage
  /// this is the *destination*; kAnyProcessor matches any destination.
  std::size_t processor = kAnyProcessor;

  /// kCorruptMessage only: source processor filter (kAnyProcessor = any).
  std::size_t peer = kAnyProcessor;

  FaultOp op = FaultOp::kAny;
  std::string phase;  ///< phase label filter; empty matches any phase
  std::string label;  ///< kPoint probes only: fault_point label filter

  /// Fire on the Nth matching probe (0 = the first one).
  std::size_t after_calls = 0;

  /// Alternative trigger: fire at the first matching probe whose virtual
  /// time is >= at_time (enabled when >= 0). For kHubDegrade this is the
  /// start of the degradation window.
  double at_time = -1.0;

  /// kDiskStall: time multiplier. kCorruptMessage: maximum bytes
  /// mutated. kHubDegrade: aggregate-bandwidth divisor.
  double severity = 8.0;

  /// kDiskStall only: keep stalling every later matching scan too
  /// (a persistent straggler rather than a single hiccup).
  bool persistent = false;

  /// kHubDegrade: window length in virtual seconds (< 0 = forever).
  /// kHang: how long the processor stays silent (< 0 = it never resumes).
  /// kPartition: window length; must be positive (partitions heal — an
  /// everlasting cut is indistinguishable from crashing the minority).
  double duration = -1.0;

  /// kPartition only: one side of the cut. The other side is the
  /// complement. Must be a non-empty proper subset of the processors,
  /// without duplicates (validate_plan enforces all of it).
  std::vector<std::size_t> members;
};

/// A reproducible failure schedule: seed + events. Value type; attach to a
/// Cluster with Cluster::set_fault_plan. Convenience builders cover the
/// common single-fault cases.
struct FaultPlan {
  std::uint64_t seed = 0x5eed;
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  static FaultEvent crash(std::size_t proc, FaultOp op,
                          std::string phase = "",
                          std::size_t after_calls = 0);
  static FaultEvent crash_at_point(std::size_t proc, std::string label,
                                   std::size_t after_calls = 0);
  static FaultEvent crash_at_time(std::size_t proc, double at_time);
  /// A failing/contended disk: multiplies the duration of every disk
  /// access (reads and writes — device fault, not op fault) on `proc`.
  static FaultEvent disk_stall(std::size_t proc, double multiplier,
                               std::string phase = "",
                               bool persistent = true);
  static FaultEvent hang(std::size_t proc, FaultOp op, std::string phase = "",
                         std::size_t after_calls = 0, double duration = -1.0);
  static FaultEvent hang_at_point(std::size_t proc, std::string label,
                                  std::size_t after_calls = 0,
                                  double duration = -1.0);
  static FaultEvent hang_at_time(std::size_t proc, double at_time,
                                 double duration = -1.0);
  static FaultEvent corrupt_message(std::size_t dst, std::size_t src,
                                    std::size_t after_calls = 0,
                                    double max_bytes = 8.0);
  static FaultEvent hub_degrade(double divisor, double from,
                                double duration = -1.0);
  /// Network partition: `members` vs the rest, active over the virtual-
  /// time window [from, from + duration).
  static FaultEvent partition(std::vector<std::size_t> members, double from,
                              double duration);
};

/// Construction-time sanity check of a plan, also run by FaultInjector:
/// throws std::invalid_argument — with a message naming the offending
/// event — when an owner-kind event lacks an explicit in-range target
/// processor, when two count-triggered events of the same kind share a
/// single-owner trigger counter (same site, same after_calls: both would
/// fire on the same probe, which makes the schedule ambiguous), or when a
/// partition window has out-of-order bounds or a member set that is not a
/// non-empty proper subset of the processors.
void validate_plan(const FaultPlan& plan, std::size_t total_processors);

/// The trigger identity of a count-triggered event: two events of one
/// kind with identical site filters and the same after_calls would fire
/// on the exact same probe — an ambiguous schedule validate_plan rejects,
/// and one the chaos generator steers its events off.
std::string trigger_signature(const FaultEvent& event);

/// Raised inside a simulated processor when a kCrash event fires. The
/// cluster catches it, deregisters the processor from the barrier (so
/// peers never deadlock) and reports the outcome as kCrashed.
class ProcessorFailed : public std::runtime_error {
 public:
  ProcessorFailed(std::size_t processor, const std::string& site);
  std::size_t processor() const { return processor_; }

 private:
  std::size_t processor_;
};

/// Raised inside a simulated processor when an *unbounded* kHang event
/// fires. Semantically the processor just stops making progress — it
/// crashes nothing and deregisters from nothing on its own — but the
/// simulation must reap the real thread, so the cluster catches this,
/// marks the processor terminal on the LeaseBoard, deregisters it and
/// reports kHung. Peers only ever learn about it through expired leases.
class ProcessorHung : public std::runtime_error {
 public:
  ProcessorHung(std::size_t processor, const std::string& site);
  std::size_t processor() const { return processor_; }

 private:
  std::size_t processor_;
};

/// Raised inside a simulated processor when it attempts a collective
/// operation while an active kPartition window leaves it on a side
/// without quorum: it cannot rendezvous with a majority, so it aborts the
/// phase cleanly. The cluster catches this, deregisters the processor
/// (releasing the quorum side's barriers) and reports kPartitioned.
class ProcessorPartitioned : public std::runtime_error {
 public:
  ProcessorPartitioned(std::size_t processor, const std::string& site);
  std::size_t processor() const { return processor_; }

 private:
  std::size_t processor_;
};

/// What a fault probe decided, besides possibly throwing: the disk-time
/// multiplier of active stalls and a silent-stall duration from a
/// *bounded* hang (0 when none) to be added to the processor's clock
/// without any lease renewal.
struct ProbeResult {
  double stall = 1.0;
  double hang_seconds = 0.0;
};

/// Per-run instantiation of a FaultPlan. Owned by Cluster::run; one fresh
/// injector per run, so repeated runs of one cluster replay the identical
/// schedule.
///
/// Thread-safety contract: probe() is called from the target processor's
/// own thread, and each probed event's trigger state is owned by that
/// single thread (enforced by requiring an explicit processor on those
/// kinds). corrupt_message() folds shared trigger state; folds are
/// serialized by the barrier lock, and hub_divisor() only reads the plan.
/// corrupt_message() additionally serializes itself internally because
/// retransmissions re-probe it from processor threads. Plans that corrupt
/// retransmissions should therefore name an explicit dst *and* src, so
/// the firing order does not depend on which receiver retries first.
class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, std::size_t total_processors);

  /// Probe an injection site. Throws ProcessorFailed when a crash event
  /// fires and ProcessorHung when an unbounded hang fires; otherwise
  /// returns the combined disk-time multiplier of active stalls plus any
  /// bounded-hang stall duration.
  ProbeResult probe(std::size_t proc, FaultOp op, const std::string& phase,
                    const std::string& label, double now);

  /// Fold-side: maybe mutate a payload delivered src -> dst. Returns true
  /// when the payload was corrupted (caller then saves the pristine copy
  /// for retransmission).
  bool corrupt_message(std::size_t dst, std::size_t src,
                       std::vector<std::uint8_t>& payload);

  /// Aggregate-bandwidth divisor active at virtual time `now` (>= 1.0).
  double hub_divisor(double now) const;

  /// True when `proc` sits on a side without quorum of a kPartition
  /// window active at virtual time `now`. Read-only (no trigger state) so
  /// processors may poll it between collectives — e.g. to defer commits
  /// that need a quorum acknowledgement until the partition heals.
  bool partition_minority(std::size_t proc, double now) const;

 private:
  struct EventState {
    FaultEvent event;
    std::size_t hits = 0;
    bool fired = false;
  };

  void mutate(std::vector<std::uint8_t>& bytes, std::size_t max_bytes,
              Rng& rng);

  std::size_t total_processors_;
  std::vector<EventState> events_;
  Rng fold_rng_;               ///< fold-side draws (message corruption)
  std::mutex message_mutex_;   ///< serializes corrupt_message (folds and
                               ///< per-processor retransmissions)
};

}  // namespace eclat::mc
