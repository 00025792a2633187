#include "exec/thread_backend.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "apriori/apriori.hpp"
#include "common/clock.hpp"
#include "eclat/compute_frequent.hpp"
#include "eclat/mining_guard.hpp"
#include "eclat/tid_arena.hpp"
#include "exec/cancel.hpp"
#include "exec/exec_fault.hpp"
#include "exec/fault_capture.hpp"
#include "exec/mem_budget.hpp"
#include "exec/progress.hpp"
#include "exec/steal_deque.hpp"
#include "exec/steal_loop.hpp"
#include "parallel/parallel_common.hpp"
#include "parallel/pipeline.hpp"
#include "vertical/simd/dispatch.hpp"
#include "vertical/vertical_db.hpp"

namespace eclat::exec {

namespace {

// Spawn-join SPMD region: run `body(w)` on `workers` real threads, join
// them all, then rethrow the first exception any worker raised. Every
// region boundary is a full barrier (thread join), so plain writes made
// inside one region are visible in the next without further
// synchronization.
template <typename Body>
void parallel_region(std::size_t workers, Body&& body) {
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      try {
        body(w);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

// One class attempt queued for re-execution after a failure or a
// watchdog reclaim. ready_at is in units of the global task-acquisition
// counter — backoff-in-attempts, never wall time, so a replay acquires
// the same attempt sequence per class.
struct RetryTask {
  std::size_t class_id = 0;
  std::uint32_t attempt = 0;
  std::uint64_t ready_at = 0;
};

// The per-attempt MiningGuard the isolation layer plants into the
// compute_frequent recursion: checks the lease's cancellation token,
// consumes a pending injected stall by parking the lease until the
// watchdog reclaims it, and meters the arena memory budget. All three
// hooks fire only at checkpoint granularity (class entry + leading-atom
// boundaries), where no scratch reference into the arena is live.
class TaskGuard final : public MiningGuard {
 public:
  TaskGuard(ProgressBoard& board, std::size_t worker, std::size_t class_id,
            std::uint32_t attempt, bool stall_pending, ArenaBudget* budget,
            const std::function<void()>& park_scan)
      : board_(board),
        worker_(worker),
        class_id_(class_id),
        attempt_(attempt),
        stall_pending_(stall_pending),
        budget_(budget),
        park_scan_(park_scan) {}

  void checkpoint() override {
    if (board_.token(worker_).cancelled()) {
      throw ClassCancelled(class_id_, attempt_);
    }
    if (stall_pending_) {
      stall_pending_ = false;
      park_and_wait();
    }
    if (budget_ != nullptr) budget_->check();
  }

 private:
  // An injected stall: expose the lease to the watchdog and stop
  // progressing. The only way out is cancellation (the reclaiming scan
  // has already accounted the stall and re-enqueued the class). While
  // parked, periodically scan the other leases ourselves so that "every
  // worker is parked at once" still unwinds — with a single worker the
  // scan covers our own lease (self-rescue) and fires immediately.
  [[noreturn]] void park_and_wait() {
    board_.park(worker_);
    std::size_t spins = 0;
    while (!board_.token(worker_).cancelled()) {
      if ((spins++ & 0xFFu) == 0) park_scan_();
      std::this_thread::yield();
    }
    throw ClassCancelled(class_id_, attempt_);
  }

  ProgressBoard& board_;
  std::size_t worker_;
  std::size_t class_id_;
  std::uint32_t attempt_;
  bool stall_pending_;
  ArenaBudget* budget_;
  const std::function<void()>& park_scan_;
};

}  // namespace

par::ParallelOutput ThreadBackend::mine(const HorizontalDatabase& db,
                                        const par::ParEclatConfig& config) {
  const std::size_t W = threads_;
  if (!isolation_ && (!faults_.empty() || mem_budget_ != 0)) {
    throw std::invalid_argument(
        "exec: fault injection and memory budgets require task isolation "
        "(drop --exec-isolation=off)");
  }
  const ExecFaultInjector injector(faults_);
  // Resolve the SIMD kernel table once on the coordinating thread (the
  // cpuid probe and ECLAT_FORCE_SCALAR read live behind magic statics,
  // so workers then only load a settled pointer) and cross-check every
  // dispatched kernel against the scalar reference before any worker
  // mines with it.
  simd::self_check();
  // Same block partition as the simulator path: Topology{1, W} makes
  // local_partition split the database into W equal contiguous blocks,
  // so per-block partial tid-lists laid out in block order are globally
  // sorted (paper §6.3) for any W.
  const mc::Topology topo{1, W};
  WallStopwatch wall;

  // ----- Phase 1: initialization. Per-worker item counts, summed into
  // the global ones; then each worker counts its block's pairs of
  // frequent items (C2 = L1 x L1) into a counter it allocates and zeroes
  // itself from those read-only sums, and an in-place prefix sum:
  // counters[w] ends up holding blocks 0..w, so the last one is the
  // merged L2 and counters[w-1] is where block w's tids start in every
  // global tid-list. Exact integer arithmetic, so the merged counts equal
  // the simulator's tree reduction for any W. -----
  std::vector<std::vector<Count>> item_partials(W);
  parallel_region(W, [&](std::size_t w) {
    item_partials[w] =
        count_items(par::local_partition(db, topo, w), db.num_items());
  });
  std::vector<Count> item_counts(db.num_items(), 0);
  for (const std::vector<Count>& partial : item_partials) {
    for (std::size_t i = 0; i < partial.size(); ++i) {
      item_counts[i] += partial[i];
    }
  }
  std::vector<std::optional<TriangleCounter>> counters(W);
  parallel_region(W, [&](std::size_t w) {
    counters[w].emplace(item_counts, config.minsup)
        .count(par::local_partition(db, topo, w));
  });
  for (std::size_t w = 1; w < W; ++w) counters[w]->merge(*counters[w - 1]);
  const TriangleCounter& counter = *counters.back();
  const double t_init = wall.elapsed_seconds();

  // ----- Phase 2: transformation. The plan is a pure function of the
  // merged counts. Every global tid-list is sized exactly at its merged
  // count, and each worker writes its block's tids in place from the
  // pair's count over the earlier blocks (paper §6.3): the ranges are
  // disjoint, so writers never collide and the lists come out sorted with
  // no merge. exchanged_pairs is class-contiguous, so each class's atoms
  // are a moved run of lists. -----
  const par::MiningPlan plan =
      par::derive_plan(counter, config.minsup, W, config.schedule);
  const PairSlots pair_slots(plan.exchanged_pairs);
  std::vector<TidList> lists = pair_slots.make_lists(counter);
  parallel_region(W, [&](std::size_t w) {
    std::vector<Tid*> cursors =
        pair_slots.cursors(lists, w == 0 ? nullptr : &*counters[w - 1]);
    pair_slots.write(par::local_partition(db, topo, w), cursors);
  });
  std::vector<std::vector<Atom>> class_atoms =
      atoms_by_class(plan.classes, lists);
  const double t_transform = wall.elapsed_seconds();

  // ----- Phase 3: asynchronous. Each class runs as an isolated task into
  // its own result slot; per-worker arenas keep mining allocation-free
  // and deterministic per class. The level histogram is recomputed from
  // the final result (finalize_result), so the per-worker one is scratch. -----
  const std::size_t num_classes = plan.classes.size();
  std::vector<std::vector<FrequentItemset>> slots(num_classes);
  const auto load_of = [&](std::size_t c) {
    return static_cast<std::int64_t>(plan.classes[c].weight()) + 1;
  };
  // Deques seeded with the static assignment in ascending-weight order,
  // so the owner's LIFO pop yields its heaviest class first (LPT-style)
  // and a thief's FIFO steal takes the heaviest class still queued on
  // the victim. Both schedulers seed identically; only stealing differs.
  std::vector<std::vector<std::size_t>> owned(W);
  for (std::size_t c = 0; c < num_classes; ++c) {
    owned[plan.assignment[c]].push_back(c);
  }
  // std::deque, not vector: StealDeque is pinned (atomics are neither
  // movable nor copyable) and deque never relocates elements.
  std::deque<StealDeque> deques;
  std::vector<std::atomic<std::int64_t>> loads(W);
  for (std::size_t w = 0; w < W; ++w) {
    std::stable_sort(owned[w].begin(), owned[w].end(),
                     [&](std::size_t a, std::size_t b) {
                       return plan.classes[a].weight() <
                              plan.classes[b].weight();
                     });
    deques.emplace_back(owned[w].empty() ? 1 : owned[w].size());
    std::int64_t total = 0;
    for (std::size_t c : owned[w]) {
      deques[w].push(c);
      total += load_of(c);
    }
    loads[w].store(total, std::memory_order_relaxed);
  }

  std::uint64_t stat_failures_total = 0;
  std::uint64_t stat_retries_total = 0;
  std::uint64_t stat_reclaims_total = 0;
  std::uint64_t stat_peak_bytes = 0;

  if (!isolation_) {
    // Bare direct-call phase (the overhead baseline): no capture, no
    // retries, no validation. A task exception aborts the whole region,
    // with exception-exact tasks_left accounting on the stealing path
    // (steal_loop.hpp).
    std::atomic<std::size_t> tasks_left{num_classes};
    std::atomic<bool> aborted{false};
    parallel_region(W, [&](std::size_t w) {
      TidArena arena;
      std::vector<std::size_t> histogram;
      const auto mine_class = [&](std::size_t c) {
        if (class_atoms[c].empty()) return;
        compute_frequent(class_atoms[c], config.minsup, config.kernel, arena,
                         slots[c], histogram);
      };
      if (scheduler_ == ClassScheduler::kStatic) {
        for (std::size_t c = 0; c < num_classes; ++c) {
          if (plan.assignment[c] == w) mine_class(c);
        }
        return;
      }
      run_stealing_loop(w, deques, loads, tasks_left, aborted, load_of,
                        mine_class);
    });
  } else {
    // Isolated execution. Shared scheduling state:
    //   outstanding  — class attempts not yet retired; the loop's exit
    //                  condition. Every retry/reclaim enqueue increments
    //                  it *before* the enqueuer's own unit retires, so it
    //                  can never transiently read 0 with work pending.
    //   acquisitions — total attempts started; the clock for retry
    //                  backoff (backoff-in-attempts, not time).
    //   retry_pool   — failed/reclaimed attempts awaiting re-execution on
    //                  any worker; a desperate take ignores ready_at so
    //                  an otherwise-idle pool cannot deadlock on backoff.
    std::mutex retry_mutex;
    std::vector<RetryTask> retry_pool;
    std::atomic<std::size_t> retry_size{0};
    std::atomic<std::size_t> outstanding{num_classes};
    std::atomic<std::uint64_t> acquisitions{0};
    std::vector<std::atomic<std::uint32_t>> next_attempt(num_classes);
    std::vector<std::atomic<std::uint32_t>> failures(num_classes);
    std::vector<std::atomic<std::uint8_t>> committed(num_classes);
    std::vector<std::atomic<std::uint8_t>> quarantined(num_classes);
    std::vector<std::string> quarantine_msg(num_classes);
    for (auto& a : next_attempt) a.store(1, std::memory_order_relaxed);
    ProgressBoard board(W);
    std::atomic<std::uint64_t> stat_failures{0};
    std::atomic<std::uint64_t> stat_retries{0};
    std::atomic<std::uint64_t> stat_reclaims{0};
    std::vector<std::uint64_t> worker_peak(W, 0);

    // The message is written before the release-store on the flag, and
    // the post-join read acquires the flag first — so the string is safe
    // to read unsynchronized there. A class quarantines at most once
    // (failures are strictly sequential per class).
    const auto quarantine = [&](std::size_t c, const std::string& why) {
      quarantine_msg[c] = why;
      quarantined[c].store(1, std::memory_order_release);
    };

    const auto enqueue_retry = [&](std::size_t c, std::uint64_t ready_at) {
      const std::uint32_t attempt =
          next_attempt[c].fetch_add(1, std::memory_order_relaxed);
      outstanding.fetch_add(1, std::memory_order_acq_rel);
      {
        std::lock_guard<std::mutex> lock(retry_mutex);
        retry_pool.push_back(RetryTask{c, attempt, ready_at});
      }
      retry_size.fetch_add(1, std::memory_order_release);
    };

    // Watchdog reclaim of one parked lease (runs under the exclusive CAS
    // license of ProgressBoard::scan_and_reclaim, before the owner's
    // token is cancelled). A reclaim counts as a failure of the parked
    // attempt, which bounds how often a stalling class can respawn.
    const auto reclaim_parked = [&](std::size_t c, std::uint32_t attempt) {
      stat_reclaims.fetch_add(1, std::memory_order_relaxed);
      stat_failures.fetch_add(1, std::memory_order_relaxed);
      const std::uint32_t n =
          failures[c].fetch_add(1, std::memory_order_acq_rel) + 1;
      if (n > max_retries_) {
        quarantine(c, "attempt " + std::to_string(attempt) +
                          " stalled; lease reclaimed by the watchdog");
      } else {
        enqueue_retry(c, acquisitions.load(std::memory_order_relaxed));
      }
    };

    const auto take_retry = [&](bool desperate) -> std::optional<RetryTask> {
      if (retry_size.load(std::memory_order_acquire) == 0) {
        return std::nullopt;
      }
      const std::uint64_t now = acquisitions.load(std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(retry_mutex);
      std::size_t best = retry_pool.size();
      for (std::size_t i = 0; i < retry_pool.size(); ++i) {
        if (retry_pool[i].ready_at <= now) {
          best = i;
          break;
        }
      }
      if (best == retry_pool.size()) {
        if (!desperate || retry_pool.empty()) return std::nullopt;
        best = 0;
        for (std::size_t i = 1; i < retry_pool.size(); ++i) {
          if (retry_pool[i].ready_at < retry_pool[best].ready_at) best = i;
        }
      }
      const RetryTask task = retry_pool[best];
      retry_pool.erase(retry_pool.begin() +
                       static_cast<std::ptrdiff_t>(best));
      retry_size.fetch_sub(1, std::memory_order_release);
      return task;
    };

    parallel_region(W, [&](std::size_t w) {
      TidArena arena;
      ArenaBudget budget(arena, mem_budget_);
      std::vector<FrequentItemset> scratch;
      std::vector<std::size_t> histogram;
      const auto scan = [&](std::size_t self) {
        return board.scan_and_reclaim(self, reclaim_parked);
      };
      // What a parked lease runs while waiting for its own reclaim: scan
      // the *other* leases (all of them — self-rescue — when this is the
      // only worker).
      const std::function<void()> park_scan = [&] {
        scan(W == 1 ? ProgressBoard::kScanAll : w);
      };

      const auto run_task = [&](std::size_t c, std::uint32_t attempt) {
        board.begin(w, c, attempt);
        budget.set_class(c);
        const ExecFaultKind fault = injector.fault_for(c, attempt);
        scratch.clear();
        TaskGuard guard(board, w, c, attempt,
                        fault == ExecFaultKind::kStall,
                        budget.enabled() ? &budget : nullptr, park_scan);
        const TaskError err = capture_class_failure([&] {
          if (fault == ExecFaultKind::kThrow) {
            throw InjectedTaskThrow(c, attempt);
          }
          if (!class_atoms[c].empty()) {
            compute_frequent(class_atoms[c], config.minsup, config.kernel,
                             arena, scratch, histogram, nullptr, &guard);
          }
          if (fault == ExecFaultKind::kCorrupt) {
            injector.corrupt_result(c, attempt, config.minsup, scratch);
          }
          validate_class_result(plan.classes[c], config.minsup, scratch);
        });
        board.end(w);
        switch (err.outcome) {
          case TaskOutcome::kOk: {
            // First writer wins: a reclaimed-then-resurrected owner can
            // never overwrite the backup's already-committed slot (and
            // vice versa), so the committed bytes are attempt-order
            // independent — and identical anyway, since every honest
            // attempt of a class mines the same atoms.
            std::uint8_t expected = 0;
            if (committed[c].compare_exchange_strong(
                    expected, 1, std::memory_order_acq_rel)) {
              slots[c] = std::move(scratch);
            }
            break;
          }
          case TaskOutcome::kCancelled:
            // The watchdog already accounted this attempt when it
            // reclaimed the lease; just unwind.
            break;
          case TaskOutcome::kFailed: {
            stat_failures.fetch_add(1, std::memory_order_relaxed);
            const std::uint32_t n =
                failures[c].fetch_add(1, std::memory_order_acq_rel) + 1;
            if (n > max_retries_) {
              quarantine(c, err.what);
            } else {
              stat_retries.fetch_add(1, std::memory_order_relaxed);
              const std::uint64_t backoff =
                  1ull << std::min<std::uint32_t>(n, 6);
              enqueue_retry(
                  c, acquisitions.load(std::memory_order_relaxed) + backoff);
            }
            // Fresh arena for whatever runs here next: a failed attempt
            // may have left oversized scratch behind.
            arena.clear();
            break;
          }
        }
      };

      const auto execute = [&](std::size_t c, std::uint32_t attempt) {
        acquisitions.fetch_add(1, std::memory_order_relaxed);
        run_task(c, attempt);
        // Retire after run_task: any retry it enqueued has already
        // incremented outstanding, so the count cannot dip to 0 with
        // work still pending.
        outstanding.fetch_sub(1, std::memory_order_acq_rel);
      };

      while (outstanding.load(std::memory_order_acquire) != 0) {
        if (const std::optional<std::size_t> c = deques[w].pop()) {
          loads[w].fetch_sub(load_of(*c), std::memory_order_relaxed);
          execute(*c, 0);
          continue;
        }
        if (const std::optional<RetryTask> t = take_retry(false)) {
          execute(t->class_id, t->attempt);
          continue;
        }
        if (scheduler_ == ClassScheduler::kWorkStealing) {
          std::size_t victim = W;
          std::int64_t best = 0;
          for (std::size_t v = 0; v < W; ++v) {
            if (v == w) continue;
            const std::int64_t load =
                loads[v].load(std::memory_order_relaxed);
            if (load > best) {
              best = load;
              victim = v;
            }
          }
          if (victim != W) {
            if (const std::optional<std::size_t> c = deques[victim].steal()) {
              loads[victim].fetch_sub(load_of(*c),
                                      std::memory_order_relaxed);
              execute(*c, 0);
              continue;
            }
          }
        }
        if (const std::optional<RetryTask> t = take_retry(true)) {
          execute(t->class_id, t->attempt);
          continue;
        }
        // Idle and nothing acquirable: the only possible pending work is
        // parked on another worker's lease — scan for it. Reclaiming is
        // CAS-gated on kParked, which only an injected stall ever sets,
        // so an honest slow class cannot be reclaimed by mistake.
        scan(w);
        std::this_thread::yield();
      }
      worker_peak[w] = budget.peak_bytes();
    });

    // Clean typed abort, decided after the pool fully drained: every
    // class ran to its own conclusion, so the *lowest* quarantined class
    // id — and with it the whole diagnostic — is a pure function of the
    // fault plan, not of thread interleaving.
    for (std::size_t c = 0; c < num_classes; ++c) {
      if (quarantined[c].load(std::memory_order_acquire)) {
        throw ExecClassQuarantined(c, failures[c].load(std::memory_order_relaxed),
                                   quarantine_msg[c]);
      }
    }
    stat_failures_total = stat_failures.load(std::memory_order_relaxed);
    stat_retries_total = stat_retries.load(std::memory_order_relaxed);
    stat_reclaims_total = stat_reclaims.load(std::memory_order_relaxed);
    for (std::size_t w = 0; w < W; ++w) {
      stat_peak_bytes = std::max<std::uint64_t>(stat_peak_bytes, worker_peak[w]);
    }
  }
  const double t_async = wall.elapsed_seconds();

  // ----- Phase 4: final reduction in commit order — singletons, pairs,
  // then the class slots by ascending class id, then normalize. This is
  // what makes the output independent of scheduling and interleaving.
  // Each size's itemsets arrive in lexicographic order, so normalize
  // only places them by size. -----
  par::ParallelOutput output;
  output.result.database_scans = 3;  // two horizontal scans + vertical read
  std::size_t itemsets = plan.frequent_pairs.size();
  if (config.include_singletons) {
    itemsets += static_cast<std::size_t>(
        std::count_if(item_counts.begin(), item_counts.end(),
                      [&](Count n) { return n >= config.minsup; }));
  }
  for (const std::vector<FrequentItemset>& slot : slots) {
    itemsets += slot.size();
  }
  output.result.itemsets.reserve(itemsets);
  if (config.include_singletons) {
    par::append_singletons(output.result, item_counts, config.minsup);
  }
  par::append_frequent_pairs(output.result, plan.frequent_pairs, counter);
  for (std::vector<FrequentItemset>& slot : slots) {
    for (FrequentItemset& found : slot) {
      output.result.itemsets.push_back(std::move(found));
    }
  }
  par::finalize_result(output.result);

  const double total = wall.elapsed_seconds();
  output.run_report.outcomes.assign(W, mc::ProcessorOutcome::kFinished);
  output.total_seconds = total;
  output.wall_seconds = total;
  output.phase_seconds["initialization"] = t_init;
  output.phase_seconds["transformation"] = t_transform - t_init;
  output.phase_seconds["asynchronous"] = t_async - t_transform;
  output.phase_seconds["reduction"] = total - t_async;
  output.backend = "threads";
  output.exec_threads = W;
  output.exec_task_failures = stat_failures_total;
  output.exec_task_retries = stat_retries_total;
  output.exec_stall_reclaims = stat_reclaims_total;
  output.exec_arena_peak_bytes = stat_peak_bytes;
  return output;
}

}  // namespace eclat::exec
