#include "exec/thread_backend.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apriori/apriori.hpp"
#include "common/check.hpp"
#include "common/clock.hpp"
#include "eclat/compute_frequent.hpp"
#include "eclat/mining_guard.hpp"
#include "eclat/tid_arena.hpp"
#include "exec/exec_fault.hpp"
#include "exec/fault_capture.hpp"
#include "exec/mem_budget.hpp"
#include "exec/steal_deque.hpp"
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

// One class attempt queued for re-execution after a failure. ready_at is
// in units of the global task-acquisition counter — backoff-in-attempts,
// never wall time, so a replay acquires the same attempt sequence per
// class.
struct RetryTask {
  std::size_t class_id = 0;
  std::uint32_t attempt = 0;
  std::uint64_t ready_at = 0;
};

}  // namespace

par::ParallelOutput ThreadBackend::mine(const HorizontalDatabase& db,
                                        const par::ParEclatConfig& config) {
  const std::size_t W = threads_;
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
  // its own result slot, an exact-size store; per-worker arenas keep
  // mining allocation-free and deterministic per class. The level
  // histogram is recomputed from the final result (finalize_result), so
  // the per-worker one is scratch. part_sizes[1 + c] holds slot c's
  // per-size counts for the reduction, whose part 0 is the head
  // (singletons and pairs). -----
  const std::size_t num_classes = plan.classes.size();
  std::vector<ItemsetStore> slots(num_classes);
  std::vector<std::vector<std::size_t>> part_sizes(num_classes + 1);
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

  // Shared scheduling state:
  //   outstanding  — class attempts not yet retired; the loop's exit
  //                  condition. A retry enqueue increments it *before*
  //                  the failed attempt's own unit retires, so it can
  //                  never transiently read 0 with work pending.
  //   acquisitions — total attempts started; the clock for retry
  //                  backoff (backoff-in-attempts, not time).
  //   retry_pool   — failed attempts awaiting re-execution on any
  //                  worker; a desperate take ignores ready_at so an
  //                  otherwise-idle pool cannot deadlock on backoff.
  std::mutex retry_mutex;
  std::vector<RetryTask> retry_pool;
  std::atomic<std::size_t> retry_size{0};
  std::atomic<std::size_t> outstanding{num_classes};
  std::atomic<std::uint64_t> acquisitions{0};
  // Per-class failure state. A retry is enqueued only by the attempt
  // that failed, after it ended, so a class has at most one live attempt:
  // these plain entries pass from attempt to attempt through
  // retry_mutex, and are read after the join.
  std::vector<std::uint32_t> failures(num_classes, 0);
  std::vector<std::string> last_error(num_classes);
  std::atomic<std::uint64_t> stat_failures{0};
  std::atomic<std::uint64_t> stat_retries{0};
  std::vector<std::uint64_t> worker_peak(W, 0);

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
    // Unbudgeted runs mine with the null guard, the recursion's fast path.
    MiningGuard* const guard = mem_budget_ != 0 ? &budget : nullptr;
    ItemsetStore scratch;
    std::vector<std::size_t> histogram;

    const auto run_task = [&](std::size_t c, std::uint32_t attempt) {
      budget.set_class(c);
      const ExecFaultKind fault = injector.fault_for(c, attempt);
      scratch.clear();
      const TaskError err = capture_class_failure([&] {
        if (fault == ExecFaultKind::kThrow) {
          throw InjectedTaskThrow(c, attempt);
        }
        if (!class_atoms[c].empty()) {
          compute_frequent(class_atoms[c], config.minsup, config.kernel,
                           arena, scratch, histogram, nullptr, guard);
        }
        if (fault == ExecFaultKind::kCorrupt) {
          injector.corrupt_result(c, attempt, config.minsup, scratch);
        }
        validate_class_result(plan.classes[c], config.minsup, scratch);
      });
      if (err.outcome == TaskOutcome::kOk) {
        // The copy is exact-size; scratch keeps its capacity for the next
        // class. A committed class is never retried, so its tid-lists go.
        slots[c] = scratch;
        part_sizes[1 + c] = size_counts(slots[c]);
        std::vector<Atom>().swap(class_atoms[c]);
        return;
      }
      stat_failures.fetch_add(1, std::memory_order_relaxed);
      const std::uint32_t n = ++failures[c];
      if (n > max_retries_) {
        last_error[c] = err.what;  // quarantined: no further attempt
      } else {
        stat_retries.fetch_add(1, std::memory_order_relaxed);
        const std::uint64_t ready_at =
            acquisitions.load(std::memory_order_relaxed) +
            (1ull << std::min<std::uint32_t>(n, 6));
        outstanding.fetch_add(1, std::memory_order_acq_rel);
        {
          std::lock_guard<std::mutex> lock(retry_mutex);
          retry_pool.push_back(RetryTask{c, attempt + 1, ready_at});
        }
        retry_size.fetch_add(1, std::memory_order_release);
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
      // Idle and nothing acquirable: the pending work is running on other
      // workers.
      std::this_thread::yield();
    }
    worker_peak[w] = budget.peak_bytes();
  });

  // Clean typed abort, decided after the pool fully drained: every
  // class ran to its own conclusion, so the *lowest* quarantined class
  // id — and with it the whole diagnostic — is a pure function of the
  // fault plan, not of thread interleaving.
  for (std::size_t c = 0; c < num_classes; ++c) {
    if (failures[c] > max_retries_) {
      throw ExecClassQuarantined(c, failures[c], last_error[c]);
    }
  }
  const double t_async = wall.elapsed_seconds();

  // ----- Phase 4: final reduction by offset scatter (paper §6.3). The
  // commit order — singletons, pairs, then the class slots by ascending
  // class id — is placed stably by size; each part's destination ranges
  // are a prefix sum of the per-size counts, so the W workers copy the
  // parts straight to their final offsets, freeing each slot once
  // copied.
  // Each size's itemsets arrive in lexicographic order, so the result is
  // canonical as assembled and normalize only verifies it. This is what
  // makes the output independent of scheduling and interleaving. -----
  par::ParallelOutput output;
  output.result.database_scans = 3;  // two horizontal scans + vertical read
  // Part 0 is the head: singletons (when reported), then frequent pairs.
  // Its counts are known up front, so it is assembled in the region too.
  const std::size_t singletons =
      !config.include_singletons
          ? 0
          : static_cast<std::size_t>(
                std::count_if(item_counts.begin(), item_counts.end(),
                              [&](Count n) { return n >= config.minsup; }));
  part_sizes[0] = {0, singletons, plan.frequent_pairs.size()};
  ResultScatter scatter(part_sizes);
  std::atomic<std::size_t> next_part{0};
  parallel_region(W, [&](std::size_t /*w*/) {
    for (std::size_t p = next_part.fetch_add(1, std::memory_order_relaxed);
         p <= num_classes;
         p = next_part.fetch_add(1, std::memory_order_relaxed)) {
      if (p != 0) {
        scatter.copy(p, slots[p - 1]);
        slots[p - 1] = ItemsetStore();
        continue;
      }
      MiningResult head;
      if (config.include_singletons) {
        par::append_singletons(head, item_counts, config.minsup);
      }
      par::append_frequent_pairs(head, plan.frequent_pairs, counter);
      scatter.copy(0, head.itemsets);
    }
  });
  output.result.itemsets = scatter.take();
  ECLAT_DCHECK(is_canonical(output.result.itemsets));
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
  output.exec_task_failures = stat_failures.load(std::memory_order_relaxed);
  output.exec_task_retries = stat_retries.load(std::memory_order_relaxed);
  output.exec_arena_peak_bytes =
      *std::max_element(worker_peak.begin(), worker_peak.end());
  return output;
}

}  // namespace eclat::exec
