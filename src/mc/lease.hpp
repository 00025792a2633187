// Progress leases: deterministic straggler detection in virtual time.
//
// The LeaseBoard is a per-run bulletin board on which every processor
// publishes timestamped progress facts: lease acquisitions/renewals/
// releases on the tasks it owns, speculative claims, commits, and its own
// current virtual clock. A processor that wants to act on peers' progress
// asks for a LeaseView at its own virtual time T. The board then blocks
// the caller — in *real* time, which is free in the simulation — until
// every other processor has either finished, terminated, or published a
// clock past T, and answers the query from events with timestamp <= T
// only. Because each processor's published clock is monotone, the answer
// is a pure function of (fault plan, seed, T): real-thread scheduling can
// delay a view but never change its contents. That is what keeps
// suspicion, speculation and migration decisions bit-identical across
// runs, unlike wall-clock failure detectors.
//
// Release condition for observer `me` waiting at time T, for every other
// processor p:
//
//     done(p) || terminal(p) || clock(p) > T || (clock(p) == T && p > me)
//
// The id tie-break makes the "simultaneous observers" case well-defined
// (the lower id is served first) and excludes symmetric deadlock: among
// the waiting processors with the minimal published clock, the one with
// the highest id is always released.
//
// Claims order by (time, processor) lexicographically; a claim shadows an
// observer's own intent iff its key precedes (T, me) and the claimant was
// still live at T (terminal_time > T) — except that a claimant that has
// declared done shadows permanently, because a death after done (e.g. a
// partition cut at the next collective) publishes its terminal fact
// outside the protocol window the release condition can order against.
// Commits are permanent facts.
// Terminal processors (crashed / hung / aborted) stop publishing forever,
// so waiters release immediately; their outstanding leases simply stop
// being renewed, which is exactly how a silent hang becomes visible.
//
// Protocol obligation: while any processor may still call view_at, every
// live processor must eventually publish (renew / touch / done) — in
// particular it must call lease_done() before blocking in a collective
// the observer has not reached, or the observer's real-time wait would
// deadlock against the barrier. The cluster marks done/terminal on every
// thread-exit path as a backstop.
#pragma once
// eclat-lint: allow-file(det-thread) the lease board is shared across processor threads; it blocks in real time (free) and answers only from virtual-time-stamped events

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

namespace eclat::mc {

/// Tunables for lease-based speculation. Durations are virtual seconds.
struct LeasePolicy {
  /// Master switch for speculative re-execution of expired-lease tasks.
  bool speculate = true;

  /// A lease not renewed for this long is expired and its holder
  /// suspected. Must exceed the longest fault-free inter-probe gap or
  /// healthy processors are suspected spuriously (harmless for
  /// correctness — first-writer-wins absorbs the duplicates — but wasted
  /// work).
  double lease_duration = 0.25;

  /// Backup launch threshold: speculation starts once a lease is overdue
  /// by lease_duration * speculation_threshold. 1.0 = speculate at
  /// expiry; see EXPERIMENTS.md "straggler ablation" for the sweep behind
  /// the default.
  double speculation_threshold = 1.0;

  /// Seed for the suspector's idle-poll jitter stream (forked per
  /// processor), de-synchronizing concurrent idle speculators
  /// deterministically.
  std::uint64_t seed = 0x1ea5e;

  /// Effective expiry horizon.
  double suspicion_after() const {
    return lease_duration * speculation_threshold;
  }
};

/// A virtual-time-consistent answer to "who is behind at time T?".
/// Produced by LeaseBoard::view_at; every set below is filtered to events
/// with timestamp <= the view's time.
struct LeaseView {
  struct ExpiredLease {
    std::size_t task = 0;
    std::size_t holder = 0;
    double renewed = 0.0;  ///< last renewal <= time
    double expiry = 0.0;   ///< renewed + suspicion horizon
  };

  double time = 0.0;
  std::size_t observer = 0;

  /// Outstanding leases whose last renewal is at least the suspicion
  /// horizon in the past, sorted by task id.
  std::vector<ExpiredLease> expired;

  /// Tasks with a commit at or before `time`, sorted.
  std::vector<std::size_t> committed;

  /// Tasks with a prior claim — claim key (t, proc) < (time, observer)
  /// and the claimant not terminal by `time` — sorted.
  std::vector<std::size_t> claimed;

  /// Processors explicitly marked suspect (e.g. retransmission
  /// exhaustion) at or before `time`, sorted.
  std::vector<std::size_t> suspects;

  /// Earliest future expiry among outstanding, not-yet-expired leases;
  /// +inf when none (nothing left to wait for).
  double next_expiry = std::numeric_limits<double>::infinity();

  bool is_committed(std::size_t task) const;
  bool is_claimed(std::size_t task) const;
};

/// The bulletin board. One instance per Cluster, reset per run. All
/// methods are thread-safe; publishing methods also act as a clock
/// publication for the calling processor and wake blocked observers.
class LeaseBoard {
 public:
  explicit LeaseBoard(std::size_t total_processors);

  /// Forget everything from the previous run.
  void reset();

  // --- Publications. `now` must be monotone per processor (it is a
  // Processor virtual clock). ---

  /// Publish the caller's clock with no other fact attached.
  void touch(std::size_t proc, double now);

  /// Start a lease on `task`, held by `proc`, renewed as of `now`.
  void acquire(std::size_t proc, std::size_t task, double now);

  /// Renew every outstanding lease held by `proc`.
  void renew_all(std::size_t proc, double now);

  /// End `proc`'s lease on `task` without committing (e.g. the task was
  /// migrated away). No-op if no outstanding lease.
  void release(std::size_t proc, std::size_t task, double now);

  /// Record a speculative claim on `task` by `proc`.
  void claim(std::size_t proc, std::size_t task, double now);

  /// Record a commit of `task` by `proc`; also releases `proc`'s own
  /// lease on `task` if outstanding.
  void commit(std::size_t proc, std::size_t task, double now);

  /// Explicitly mark `proc` suspect (retransmission exhaustion escalates
  /// here). Published on behalf of the *observer*, so pass the observer's
  /// clock.
  void mark_suspect(std::size_t proc, std::size_t reporter, double now);

  /// `proc` will publish no further lease activity this run but keeps
  /// running (normal completion of its lease-managed work).
  void mark_done(std::size_t proc, double now);

  /// `proc` stopped executing at `now` (crash / hang / abort). Claims it
  /// made strictly after... — claims dated <= now stay valid history;
  /// viewers disregard claims whose claimant has terminal_time <= their
  /// view time.
  void mark_terminal(std::size_t proc, double now);

  // --- Observation. ---

  /// Block (real time) until every other processor satisfies the release
  /// condition for (observer, time), then answer from events dated <=
  /// time. `policy.suspicion_after()` sets the expiry horizon.
  LeaseView view_at(std::size_t observer, double time,
                    const LeasePolicy& policy);

 private:
  struct LeaseRecord {
    std::size_t task = 0;
    std::size_t holder = 0;
    double acquired = 0.0;
    std::vector<double> renewals;  ///< ascending; front() == acquired
    double released = -1.0;        ///< < 0 while outstanding
  };

  struct ClaimRecord {
    std::size_t task = 0;
    std::size_t proc = 0;
    double time = 0.0;
  };

  struct CommitRecord {
    std::size_t task = 0;
    std::size_t proc = 0;
    double time = 0.0;
  };

  struct SuspectRecord {
    std::size_t proc = 0;
    double time = 0.0;
  };

  void publish_locked(std::size_t proc, double now);

  mutable std::mutex mutex_;
  std::condition_variable published_;

  std::size_t total_ = 0;
  std::vector<double> clock_;          ///< last published clock per proc
  std::vector<bool> done_;             ///< no further lease activity
  std::vector<double> terminal_time_;  ///< < 0 while live
  std::vector<LeaseRecord> leases_;
  std::vector<ClaimRecord> claims_;
  std::vector<CommitRecord> commits_;
  std::vector<SuspectRecord> suspects_;
};

}  // namespace eclat::mc
