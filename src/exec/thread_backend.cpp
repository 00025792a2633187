#include "exec/thread_backend.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apriori/apriori.hpp"
#include "common/check.hpp"
#include "common/clock.hpp"
#include "eclat/compute_frequent.hpp"
#include "eclat/equivalence.hpp"
#include "eclat/mining_guard.hpp"
#include "eclat/tid_arena.hpp"
#include "exec/crew.hpp"
#include "exec/exec_fault.hpp"
#include "exec/fault_capture.hpp"
#include "exec/mem_budget.hpp"
#include "parallel/parallel_common.hpp"
#include "parallel/pipeline.hpp"
#include "vertical/simd/dispatch.hpp"
#include "vertical/vertical_db.hpp"

namespace eclat::exec {

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

par::ParallelOutput thread_eclat(const HorizontalDatabase& db,
                                 const par::ParEclatConfig& config,
                                 const ThreadBackendOptions& options) {
  const std::size_t W = resolve_threads(options.threads);
  const std::uint32_t max_retries = options.max_retries;
  const std::size_t mem_budget = options.mem_budget;
  const ExecFaultInjector injector(options.faults);
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
  // One crew for the whole call: this thread is worker 0, and the W - 1
  // helpers start here, once. Each crew.run is one step on every worker
  // and ends at a barrier; the code between the steps runs on this thread.
  Crew crew(W);

  // ----- Phase 1: initialization. Per-worker item counts, summed into
  // the global ones; then each worker counts its block's pairs of
  // frequent items (C2 = L1 x L1) into the 4-byte cells of a counter it
  // allocates and zeroes itself from those read-only sums, and in the
  // next step adds one cell range of the W counters into the first,
  // which is then the merged L2. Exact integer arithmetic, so the merged
  // counts equal the simulator's tree reduction for any W. The per-block
  // item counts stay: they place each block's tids in the item
  // tid-lists. -----
  std::vector<std::vector<Count>> item_partials(W);
  crew.run([&](std::size_t w) {
    item_partials[w] =
        count_items(par::local_partition(db, topo, w), db.num_items());
  });
  std::vector<Count> item_counts(db.num_items(), 0);
  for (const std::vector<Count>& partial : item_partials) {
    for (std::size_t i = 0; i < partial.size(); ++i) {
      item_counts[i] += partial[i];
    }
  }
  std::vector<std::optional<TriangleCounter32>> counters(W);
  crew.run([&](std::size_t w) {
    counters[w].emplace(item_counts, config.minsup)
        .count(par::local_partition(db, topo, w));
  });
  crew.run([&](std::size_t w) {
    const std::span<std::uint32_t> sum = counters.front()->raw();
    const std::size_t begin = sum.size() * w / W;
    const std::size_t end = sum.size() * (w + 1) / W;
    for (std::size_t v = 1; v < W; ++v) {
      const std::span<const std::uint32_t> part =
          std::as_const(*counters[v]).raw();
      for (std::size_t i = begin; i < end; ++i) sum[i] += part[i];
    }
  });
  const double t_init = wall.elapsed_seconds();

  // ----- Phase 2: transformation. The frequent pairs and their classes
  // are pure functions of the merged counts, derived as eclat_sequential
  // derives them. The result's head (singletons, when reported, then the
  // frequent pairs with their supports) is built from the merged counts,
  // and then every triangle is freed, before the transformation allocates
  // anything: the merged one sits in this thread's malloc arena, where
  // the item lists and the result store can reuse it. The tid-list of
  // every item that occurs in a class of two or more members is sized
  // exactly at the item's count, and each worker writes its block's tids
  // in place from the item's count over the earlier blocks (paper §6.3):
  // the ranges are disjoint, so writers never collide and the lists come
  // out sorted with no merge. Once every block is written, each list is
  // seeded once into a shared, read-only TidSet under the run's kernel
  // over the database's tid universe; a class task joins its atoms from
  // those. -----
  const std::vector<PairKey> frequent_pairs =
      counters.front()->frequent_pairs(config.minsup);
  MiningResult head;
  if (config.include_singletons) {
    par::append_singletons(head, item_counts, config.minsup);
  }
  par::append_frequent_pairs(head, frequent_pairs, *counters.front());
  std::vector<std::optional<TriangleCounter32>>().swap(counters);
  const std::vector<EquivalenceClass> classes =
      partition_into_classes(frequent_pairs);
  ItemTidSets items(ItemSlots(mined_items(classes)), db.tid_universe());
  std::vector<TidList> lists = items.slots().sized_lists(item_counts);
  crew.run([&](std::size_t w) {
    const ItemSlots& slots = items.slots();
    std::vector<Tid*> at =
        slots.cursors(lists, std::span(item_partials).first(w));
    slots.write(par::local_partition(db, topo, w), at);
  });
  crew.run([&](std::size_t w) {
    for (std::size_t s = w; s < lists.size(); s += W) {
      items.seed(s, std::move(lists[s]), config.kernel, nullptr);
    }
  });
  std::vector<TidList>().swap(lists);
  std::vector<std::vector<Count>>().swap(item_partials);
  const double t_transform = wall.elapsed_seconds();

  // ----- Phase 3: asynchronous. All workers take classes through one
  // atomic cursor over one queue of every class, sorted by descending
  // C(s,2) with ties by class id, so the worker that frees up first takes
  // the heaviest class left (paper §5.2.1's greedy rule applied online).
  // Each attempt joins the class's atoms from the item tid-sets into the
  // worker's arena and mines them, isolated, into its scratch store, and
  // a failed attempt runs again at once on the same worker, so a class has
  // one live attempt and its result slot, an exact-size store, one
  // writer. The level histogram is recomputed from the final result
  // (finalize_result), so the per-worker one is scratch. part_sizes[1 + c]
  // holds slot c's per-size counts for the reduction, whose part 0 is the
  // head. -----
  const std::size_t num_classes = classes.size();
  std::vector<ItemsetStore> slots(num_classes);
  std::vector<std::vector<std::size_t>> part_sizes(num_classes + 1);
  std::vector<std::size_t> queue(num_classes);
  std::iota(queue.begin(), queue.end(), std::size_t{0});
  std::stable_sort(queue.begin(), queue.end(),
                   [&](std::size_t a, std::size_t b) {
                     return classes[a].weight() > classes[b].weight();
                   });
  std::atomic<std::size_t> cursor{0};
  // Per-class failure count and last diagnostic: written only by the
  // worker that took the class, read after the step.
  std::vector<std::uint32_t> failures(num_classes, 0);
  std::vector<std::string> last_error(num_classes);
  std::vector<std::uint64_t> worker_peak(W, 0);

  crew.run([&](std::size_t w) {
    TidArena arena;
    ArenaBudget budget(arena, mem_budget);
    // Unbudgeted runs mine with the null guard, the recursion's fast path.
    MiningGuard* const guard = mem_budget != 0 ? &budget : nullptr;
    ItemsetStore scratch;
    std::vector<std::size_t> histogram;

    const auto attempt_class = [&](std::size_t c, std::uint32_t attempt) {
      budget.set_class(c);
      const ExecFaultKind fault = injector.fault_for(c, attempt);
      scratch.clear();
      return capture_class_failure([&] {
        if (fault == ExecFaultKind::kThrow) {
          throw InjectedTaskThrow(c, attempt);
        }
        compute_frequent(items, classes[c].prefix, classes[c].members,
                         config.minsup, config.kernel, arena, scratch,
                         histogram, nullptr, guard);
        if (fault == ExecFaultKind::kCorrupt) {
          injector.corrupt_result(c, attempt, config.minsup, scratch);
        }
        validate_class_result(classes[c], config.minsup, scratch);
      });
    };

    for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
         i < queue.size(); i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      const std::size_t c = queue[i];
      for (std::uint32_t attempt = 0;; ++attempt) {
        std::optional<std::string> error = attempt_class(c, attempt);
        if (!error) {
          // The copy is exact-size; scratch keeps its capacity for the
          // next class.
          slots[c] = scratch;
          part_sizes[1 + c] = size_counts(slots[c]);
          break;
        }
        if (++failures[c] > max_retries) {
          last_error[c] = std::move(*error);  // quarantined: no more attempts
          break;
        }
      }
    }
    worker_peak[w] = budget.peak_bytes();
  });
  items = ItemTidSets();

  // Every failure counts; every failure within the budget was retried.
  std::uint64_t total_failures = 0;
  std::uint64_t total_retries = 0;
  for (const std::uint32_t f : failures) {
    total_failures += f;
    total_retries += std::min(f, max_retries);
  }
  // Clean typed abort, decided after the step: every class ran to its
  // own conclusion, so the *lowest* quarantined class id — and with it
  // the whole diagnostic — is a pure function of the fault plan, not of
  // thread interleaving.
  for (std::size_t c = 0; c < num_classes; ++c) {
    if (failures[c] > max_retries) {
      throw ExecClassQuarantined(c, failures[c], last_error[c],
                                 total_failures, total_retries);
    }
  }
  const double t_async = wall.elapsed_seconds();

  // ----- Phase 4: final reduction by offset scatter (paper §6.3). The
  // commit order — the head, then the class slots by ascending class
  // id — is placed stably by size; each part's destination ranges are a
  // prefix sum of the per-size counts, so the W workers copy the parts
  // straight to their final offsets, freeing each part once copied.
  // Each size's itemsets arrive in lexicographic order, so the result is
  // canonical as assembled and normalize only verifies it. This is what
  // makes the output independent of scheduling and interleaving. -----
  par::ParallelOutput output;
  output.result.database_scans = 3;  // two horizontal scans + vertical read
  part_sizes[0] = size_counts(head.itemsets);
  ResultScatter scatter(part_sizes);
  std::atomic<std::size_t> next_part{0};
  crew.run([&](std::size_t /*w*/) {
    for (std::size_t p = next_part.fetch_add(1, std::memory_order_relaxed);
         p <= num_classes;
         p = next_part.fetch_add(1, std::memory_order_relaxed)) {
      ItemsetStore& part = p == 0 ? head.itemsets : slots[p - 1];
      scatter.copy(p, part);
      part = ItemsetStore();
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
  output.exec_task_failures = total_failures;
  output.exec_task_retries = total_retries;
  output.exec_arena_peak_bytes =
      *std::max_element(worker_peak.begin(), worker_peak.end());
  return output;
}

}  // namespace eclat::exec
