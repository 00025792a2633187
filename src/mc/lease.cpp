#include "mc/lease.hpp"
// eclat-lint: allow-file(det-thread) the lease board is shared across processor threads; it blocks in real time (free) and answers only from virtual-time-stamped events

#include <algorithm>

#include "common/check.hpp"

namespace eclat::mc {

bool LeaseView::is_committed(std::size_t task) const {
  return std::binary_search(committed.begin(), committed.end(), task);
}

bool LeaseView::is_claimed(std::size_t task) const {
  return std::binary_search(claimed.begin(), claimed.end(), task);
}

LeaseBoard::LeaseBoard(std::size_t total_processors) : total_(total_processors) {
  reset();
}

void LeaseBoard::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  clock_.assign(total_, 0.0);
  done_.assign(total_, false);
  terminal_time_.assign(total_, -1.0);
  leases_.clear();
  claims_.clear();
  commits_.clear();
  suspects_.clear();
  published_.notify_all();
}

void LeaseBoard::publish_locked(std::size_t proc, double now) {
  ECLAT_DCHECK(proc < total_);
  // Virtual clocks are monotone per processor; the board keeps the max so
  // a stale republication can never un-release a waiting observer.
  clock_[proc] = std::max(clock_[proc], now);
  published_.notify_all();
}

void LeaseBoard::touch(std::size_t proc, double now) {
  std::lock_guard<std::mutex> lock(mutex_);
  publish_locked(proc, now);
}

void LeaseBoard::acquire(std::size_t proc, std::size_t task, double now) {
  std::lock_guard<std::mutex> lock(mutex_);
  LeaseRecord record;
  record.task = task;
  record.holder = proc;
  record.acquired = now;
  record.renewals.push_back(now);
  leases_.push_back(std::move(record));
  publish_locked(proc, now);
}

void LeaseBoard::renew_all(std::size_t proc, double now) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (LeaseRecord& lease : leases_) {
    if (lease.holder != proc || lease.released >= 0.0) continue;
    ECLAT_DCHECK(lease.renewals.empty() || lease.renewals.back() <= now);
    lease.renewals.push_back(now);
  }
  publish_locked(proc, now);
}

void LeaseBoard::release(std::size_t proc, std::size_t task, double now) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (LeaseRecord& lease : leases_) {
    if (lease.holder == proc && lease.task == task && lease.released < 0.0) {
      lease.released = now;
    }
  }
  publish_locked(proc, now);
}

void LeaseBoard::claim(std::size_t proc, std::size_t task, double now) {
  std::lock_guard<std::mutex> lock(mutex_);
  claims_.push_back(ClaimRecord{task, proc, now});
  publish_locked(proc, now);
}

void LeaseBoard::commit(std::size_t proc, std::size_t task, double now) {
  std::lock_guard<std::mutex> lock(mutex_);
  commits_.push_back(CommitRecord{task, proc, now});
  for (LeaseRecord& lease : leases_) {
    if (lease.holder == proc && lease.task == task && lease.released < 0.0) {
      lease.released = now;
    }
  }
  publish_locked(proc, now);
}

void LeaseBoard::mark_suspect(std::size_t proc, std::size_t reporter,
                              double now) {
  std::lock_guard<std::mutex> lock(mutex_);
  suspects_.push_back(SuspectRecord{proc, now});
  publish_locked(reporter, now);
}

void LeaseBoard::mark_done(std::size_t proc, double now) {
  std::lock_guard<std::mutex> lock(mutex_);
  done_[proc] = true;
  publish_locked(proc, now);
}

void LeaseBoard::mark_terminal(std::size_t proc, double now) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (terminal_time_[proc] < 0.0) terminal_time_[proc] = now;
  publish_locked(proc, now);
}

LeaseView LeaseBoard::view_at(std::size_t observer, double time,
                              const LeasePolicy& policy) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Publish the observer's own clock first: a peer blocked at the same
  // virtual time must be able to see us, or two simultaneous observers
  // would wait on each other forever (the id tie-break then settles who
  // goes first).
  publish_locked(observer, time);
  published_.wait(lock, [&] {
    for (std::size_t p = 0; p < total_; ++p) {
      if (p == observer) continue;
      const bool released = done_[p] || terminal_time_[p] >= 0.0 ||
                            clock_[p] > time ||
                            (clock_[p] == time && p > observer);
      if (!released) return false;
    }
    return true;
  });

  // Every peer is now past `time` (or will never publish again), so the
  // records dated <= time are complete: the view is a pure function of
  // virtual time.
  LeaseView view;
  view.time = time;
  view.observer = observer;
  const double horizon = policy.suspicion_after();

  for (const LeaseRecord& lease : leases_) {
    if (lease.acquired > time) continue;
    if (lease.released >= 0.0 && lease.released <= time) continue;
    // Last renewal at or before `time` (renewals are ascending).
    const auto it = std::upper_bound(lease.renewals.begin(),
                                     lease.renewals.end(), time);
    ECLAT_DCHECK(it != lease.renewals.begin());
    const double renewed = *(it - 1);
    const double expiry = renewed + horizon;
    if (expiry <= time) {
      view.expired.push_back(
          LeaseView::ExpiredLease{lease.task, lease.holder, renewed, expiry});
    } else {
      view.next_expiry = std::min(view.next_expiry, expiry);
    }
  }
  std::sort(view.expired.begin(), view.expired.end(),
            [](const LeaseView::ExpiredLease& a,
               const LeaseView::ExpiredLease& b) { return a.task < b.task; });

  for (const CommitRecord& commit : commits_) {
    if (commit.time <= time) view.committed.push_back(commit.task);
  }
  std::sort(view.committed.begin(), view.committed.end());
  view.committed.erase(
      std::unique(view.committed.begin(), view.committed.end()),
      view.committed.end());

  for (const ClaimRecord& claim : claims_) {
    // A claim shadows this observer iff it strictly precedes (time,
    // observer) in (t, proc) order and the claimant was still live at
    // `time` — a claim by a processor that is virtually dead by now will
    // never be honoured, so it must not block a backup. Exception: a
    // claimant that already declared done shadows permanently. Death
    // after done (a partition or hang at the next collective) publishes
    // its terminal fact outside the board protocol — done_ is what
    // released our wait above, so terminal_time_ may or may not have
    // landed when we read it. Ignoring it for done claimants keeps the
    // view a pure function of virtual time; a shadowed class the dead
    // claimant never committed is re-mined by the post-gather recovery
    // rounds, not by a racing backup.
    const bool precedes = claim.time < time ||
                          (claim.time == time && claim.proc < observer);
    if (!precedes) continue;
    const double terminal = terminal_time_[claim.proc];
    if (!done_[claim.proc] && terminal >= 0.0 && terminal <= time) continue;
    view.claimed.push_back(claim.task);
  }
  std::sort(view.claimed.begin(), view.claimed.end());
  view.claimed.erase(std::unique(view.claimed.begin(), view.claimed.end()),
                     view.claimed.end());

  for (const SuspectRecord& suspect : suspects_) {
    if (suspect.time <= time) view.suspects.push_back(suspect.proc);
  }
  std::sort(view.suspects.begin(), view.suspects.end());
  view.suspects.erase(
      std::unique(view.suspects.begin(), view.suspects.end()),
      view.suspects.end());

  return view;
}

}  // namespace eclat::mc
