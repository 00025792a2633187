// Differential tests for Par-Eclat's two substrates: the native thread
// backend (exec::thread_eclat) must emit byte-identical results to the
// mc simulator (par::par_eclat on an mc::Cluster) and to the sequential
// oracle — across every intersect kernel, a minsup grid, every worker
// count, every simulator schedule heuristic, and a skewed workload whose
// weight sits in a few classes. This is the determinism contract of
// DESIGN.md §9 as an executable spec.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/mining.hpp"
#include "apriori/apriori.hpp"
#include "data/result_io.hpp"
#include "eclat/eclat_seq.hpp"
#include "eclat/equivalence.hpp"
#include "exec/exec_fault.hpp"
#include "exec/thread_backend.hpp"
#include "mc/cluster.hpp"
#include "parallel/par_eclat.hpp"
#include "parallel/pipeline.hpp"
#include "test_util.hpp"
#include "vertical/simd/dispatch.hpp"
#include "vertical/vertical_db.hpp"

namespace {

using namespace eclat;
using testutil::same_itemsets;
using testutil::small_quest_db;

constexpr IntersectKernel kAllKernels[] = {IntersectKernel::kMerge,
                                           IntersectKernel::kMergeShortCircuit,
                                           IntersectKernel::kAuto};

par::ParallelOutput run_threads(const HorizontalDatabase& db,
                                const par::ParEclatConfig& config,
                                std::size_t threads) {
  exec::ThreadBackendOptions options;
  options.threads = threads;
  return exec::thread_eclat(db, config, options);
}

par::ParallelOutput run_mc(const HorizontalDatabase& db,
                           const par::ParEclatConfig& config,
                           const mc::Topology& topology) {
  mc::Cluster cluster(topology, mc::CostModel{});
  return par::par_eclat(cluster, db, config);
}

/// Deliberately skewed database: a dense overlapping core on items 0..11
/// concentrates almost all C(s,2) mining weight in the first few
/// equivalence classes, so under the simulator's static greedy schedule
/// one processor owns nearly everything, and on the thread backend the
/// workers that take the light classes soon find the queue drained.
HorizontalDatabase skewed_db() {
  DatabaseBuilder builder;
  for (Tid t = 0; t < 600; ++t) {
    Itemset items;
    for (Item i = 0; i < 12; ++i) {
      if ((t + i) % 3 != 0) items.push_back(i);
    }
    items.push_back(static_cast<Item>(12 + t % 6));
    builder.add(t, items);
  }
  return std::move(builder).finish(18);
}

TEST(ExecBackend, ThreadsMatchesMcAndOracleAcrossKernelsAndMinsup) {
  const HorizontalDatabase db = small_quest_db(400, 30, 7);
  for (IntersectKernel kernel : kAllKernels) {
    for (Count minsup : {Count{2}, Count{4}, Count{8}, Count{16}}) {
      par::ParEclatConfig config;
      config.minsup = minsup;
      config.kernel = kernel;

      EclatConfig seq_config;
      seq_config.minsup = minsup;
      seq_config.kernel = kernel;
      const MiningResult oracle = eclat_sequential(db, seq_config);

      const par::ParallelOutput mc_run = run_mc(db, config, {1, 4});
      const par::ParallelOutput threads_run = run_threads(db, config, 3);

      const std::string label = "kernel=" + std::string(kernel_name(kernel)) +
                                " minsup=" + std::to_string(minsup);
      EXPECT_EQ(result_to_bytes(threads_run.result),
                result_to_bytes(mc_run.result))
          << label << ": threads diverged from mc";
      EXPECT_TRUE(same_itemsets(threads_run.result, oracle))
          << label << ": threads diverged from the sequential oracle";
    }
  }
}

TEST(ExecBackend, ByteIdenticalAcrossThreadCounts) {
  const HorizontalDatabase db = small_quest_db(350, 28, 11);
  par::ParEclatConfig config;
  config.minsup = 5;

  const std::vector<std::uint8_t> reference =
      result_to_bytes(run_mc(db, config, {2, 2}).result);
  for (std::size_t threads : {1u, 2u, 3u, 4u, 5u}) {
    const par::ParallelOutput run = run_threads(db, config, threads);
    EXPECT_EQ(result_to_bytes(run.result), reference)
        << "threads=" << threads;
    EXPECT_EQ(run.exec_threads, threads);
    EXPECT_EQ(run.backend, "threads");
  }
}

TEST(ExecBackend, StealHeavySkewStaysIdentical) {
  const HorizontalDatabase db = skewed_db();
  par::ParEclatConfig config;
  config.minsup = 100;

  const std::vector<std::uint8_t> reference =
      result_to_bytes(run_mc(db, config, {1, 4}).result);
  ASSERT_FALSE(result_from_bytes(reference).itemsets.empty());

  const par::ParallelOutput shared = run_threads(db, config, 4);
  EXPECT_EQ(result_to_bytes(shared.result), reference);
}

// Phase 1 sums the W pair triangles by cell ranges, one range per worker,
// and phase 2 writes each block's item tids from the per-block item
// counts. At every W from 1 to 8 and every kernel, the result stays the
// mc backend's bytes and sequential Eclat's and dEclat's itemsets —
// including W that do not divide the triangle's cells — whichever
// schedule heuristic the config names: only the simulator places classes
// by it.
TEST(ExecBackend, EveryWorkerCountSumsTheTriangleAndMatchesMcAndSequential) {
  const HorizontalDatabase db = small_quest_db(500, 13, 23);
  constexpr Count kMinsup = 3;
  const std::vector<Count> item_counts =
      count_items(db.transactions(), db.num_items());
  const std::size_t k = static_cast<std::size_t>(
      std::count_if(item_counts.begin(), item_counts.end(),
                    [](Count n) { return n >= kMinsup; }));
  const std::size_t cells = k * (k - 1) / 2;
  ASSERT_EQ(cells, 45u);  // 10 frequent items: 2, 4, 6, 7 and 8 leave a rest
  for (IntersectKernel kernel : kAllKernels) {
    par::ParEclatConfig config;
    config.minsup = kMinsup;
    config.kernel = kernel;
    const std::vector<std::uint8_t> reference =
        result_to_bytes(run_mc(db, config, {1, 4}).result);
    EclatConfig seq_config;
    seq_config.minsup = kMinsup;
    seq_config.kernel = kernel;
    const MiningResult eclat = eclat_sequential(db, seq_config);
    seq_config.use_diffsets = true;
    const MiningResult declat = eclat_sequential(db, seq_config);
    EXPECT_EQ(eclat.itemsets, result_from_bytes(reference).itemsets)
        << kernel_name(kernel);
    EXPECT_EQ(declat.itemsets, eclat.itemsets) << kernel_name(kernel);
    for (std::size_t threads = 1; threads <= 8; ++threads) {
      for (par::ScheduleHeuristic schedule :
           {par::ScheduleHeuristic::kGreedyWeight,
            par::ScheduleHeuristic::kGreedySupport,
            par::ScheduleHeuristic::kRoundRobin}) {
        config.schedule = schedule;
        EXPECT_EQ(result_to_bytes(run_threads(db, config, threads).result),
                  reference)
            << kernel_name(kernel) << " threads=" << threads
            << " schedule=" << static_cast<int>(schedule)
            << " cells % threads=" << cells % threads;
      }
    }
  }
}

// Universes of fewer than two items have no pair to count: the thread
// backend mines them as sequential Eclat and the mc backend do.
TEST(ExecBackend, TinyItemUniversesMatchSequentialAndMc) {
  const std::vector<testutil::Basket> baskets[] = {
      {{0, {}}, {1, {}}, {2, {}}, {3, {}}},
      {{0, {0}}, {1, {}}, {2, {0}}, {3, {0}}},
      {{0, {0, 1}}, {1, {0}}, {2, {1}}, {3, {0, 1}}},
  };
  const std::size_t expected_itemsets[] = {0, 1, 3};
  for (Item num_items = 0; num_items <= 2; ++num_items) {
    const HorizontalDatabase db =
        testutil::database_of(baskets[num_items], num_items);
    EclatConfig seq_config;
    seq_config.minsup = 2;
    const MiningResult oracle = eclat_sequential(db, seq_config);
    ASSERT_EQ(oracle.itemsets.size(), expected_itemsets[num_items]);
    const std::vector<std::uint8_t> reference = result_to_bytes(oracle);
    par::ParEclatConfig config;
    config.minsup = 2;
    EXPECT_EQ(result_to_bytes(run_mc(db, config, {1, 2}).result), reference)
        << "num_items=" << num_items;
    for (std::size_t threads : {1u, 2u, 3u}) {
      EXPECT_EQ(result_to_bytes(run_threads(db, config, threads).result),
                reference)
          << "num_items=" << num_items << " threads=" << threads;
    }
  }
}

TEST(ExecBackend, PhaseAccountingAndRunReport) {
  const HorizontalDatabase db = small_quest_db();
  par::ParEclatConfig config;
  config.minsup = 4;
  const par::ParallelOutput run = run_threads(db, config, 2);

  EXPECT_TRUE(run.run_report.all_finished());
  EXPECT_EQ(run.run_report.outcomes.size(), 2u);
  EXPECT_EQ(run.result.database_scans, 3u);
  EXPECT_GT(run.wall_seconds, 0.0);
  EXPECT_DOUBLE_EQ(run.total_seconds, run.wall_seconds);
  for (const char* phase : {"initialization", "transformation",
                            "asynchronous", "reduction"}) {
    EXPECT_TRUE(run.phase_seconds.count(phase)) << phase;
  }
}

TEST(ExecBackend, ZeroThreadsResolvesToHardwareConcurrency) {
  const std::size_t resolved = exec::resolve_threads(0);
  EXPECT_GE(resolved, 1u);

  const HorizontalDatabase db = testutil::handmade_db();
  par::ParEclatConfig config;
  config.minsup = 3;
  const par::ParallelOutput run =
      exec::thread_eclat(db, config, exec::ThreadBackendOptions{});
  EXPECT_EQ(run.exec_threads, resolved);  // resolved value echoed
}

TEST(ExecBackend, ResolveThreadsPassesThroughAndClampsToOne) {
  EXPECT_EQ(exec::resolve_threads(1), 1u);
  EXPECT_EQ(exec::resolve_threads(5), 5u);
  EXPECT_EQ(exec::resolve_threads(64), 64u);
  EXPECT_GE(exec::resolve_threads(0), 1u);  // even if hw probing fails
}

TEST(ExecBackend, ScalarPinnedThreadsRunStaysByteIdentical) {
  // The ECLAT_FORCE_SCALAR=1 contract as an in-process test: pinning the
  // scalar kernel table (the same table the env var pins) must not change
  // a single byte of the threads-backend output relative to the full-ISA
  // run and the mc reference. CI also runs the whole suite under the env
  // var itself.
  const HorizontalDatabase db = small_quest_db(300, 24, 19);
  par::ParEclatConfig config;
  config.minsup = 4;
  config.kernel = IntersectKernel::kAuto;  // widest SIMD surface

  const std::vector<std::uint8_t> reference =
      result_to_bytes(run_mc(db, config, {1, 3}).result);
  const std::vector<std::uint8_t> full_isa =
      result_to_bytes(run_threads(db, config, 3).result);
  EXPECT_EQ(full_isa, reference);

  simd::override_isa_level(simd::IsaLevel::kScalar);
  const std::vector<std::uint8_t> scalar =
      result_to_bytes(run_threads(db, config, 3).result);
  simd::override_isa_level(std::nullopt);
  EXPECT_EQ(scalar, reference)
      << "scalar-pinned threads run diverged from the mc reference";
}

TEST(ExecBackend, ClassRetriedAfterCorruptAttemptLandsExactlyOnce) {
  // A corrupt attempt appends to and mutates the worker's scratch store;
  // the retry must commit only its own clean slot, which the reduction
  // scatters to the same offsets as in a fault-free run.
  const HorizontalDatabase db = small_quest_db(350, 28, 11);
  par::ParEclatConfig config;
  config.minsup = 5;
  TriangleCounter counter(db.num_items());
  counter.count(db.transactions());
  const std::vector<EquivalenceClass> classes =
      partition_into_classes(counter.frequent_pairs(config.minsup));
  // The heaviest class: the one whose itemsets a double commit would show.
  std::size_t target = 0;
  for (std::size_t c = 1; c < classes.size(); ++c) {
    if (classes[c].weight() > classes[target].weight()) target = c;
  }
  const Item prefix = classes[target].prefix;
  const auto class_itemsets = [&](const MiningResult& result) {
    return std::count_if(result.itemsets.begin(), result.itemsets.end(),
                         [&](const ItemsetView& f) {
                           return f.items.size() >= 3 &&
                                  f.items.front() == prefix;
                         });
  };

  const par::ParallelOutput clean = run_threads(db, config, 1);
  const std::vector<std::uint8_t> reference = result_to_bytes(clean.result);
  ASSERT_GT(class_itemsets(clean.result), 0);
  for (std::size_t threads : {1u, 2u, 3u, 4u}) {
    exec::ThreadBackendOptions options;
    options.threads = threads;
    options.faults.events.push_back(
        exec::ExecFaultPlan::corrupt_on(target, 2));
    const par::ParallelOutput run = exec::thread_eclat(db, config, options);
    EXPECT_EQ(run.exec_task_failures, 2u) << "threads=" << threads;
    EXPECT_EQ(run.exec_task_retries, 2u) << "threads=" << threads;
    EXPECT_EQ(class_itemsets(run.result), class_itemsets(clean.result))
        << "threads=" << threads;
    EXPECT_EQ(result_to_bytes(run.result), reference)
        << "threads=" << threads;
  }
}

TEST(ExecBackend, EveryClassIsTakenExactlyOnce) {
  // Every class's first attempt throws and its retry runs clean, so each
  // take of a class adds exactly one failure and one retry: the counters
  // equal the class count only if every class was taken exactly once,
  // however many workers contend for the queue.
  const HorizontalDatabase db = small_quest_db(300, 26, 5);
  par::ParEclatConfig config;
  config.minsup = 3;
  TriangleCounter counter(db.num_items());
  counter.count(db.transactions());
  const std::size_t classes =
      partition_into_classes(counter.frequent_pairs(config.minsup)).size();
  ASSERT_EQ(classes, 16u);
  const std::vector<std::uint8_t> reference =
      result_to_bytes(run_mc(db, config, {1, 4}).result);
  for (std::size_t threads : {1u, 2u, 3u, 4u, 6u, 8u}) {
    exec::ThreadBackendOptions options;
    options.threads = threads;
    options.max_retries = 1;
    options.faults.events.push_back(
        exec::ExecFaultPlan::hashed(exec::ExecFaultKind::kThrow, 1, 0, 1));
    const par::ParallelOutput run = exec::thread_eclat(db, config, options);
    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_EQ(run.exec_task_failures, classes) << label;
    EXPECT_EQ(run.exec_task_retries, classes) << label;
    EXPECT_EQ(result_to_bytes(run.result), reference) << label;
  }
}

TEST(ExecBackend, ApiDispatchesParEclatToThreads) {
  const HorizontalDatabase db = small_quest_db();
  api::MineOptions mc_options;
  mc_options.algorithm = api::Algorithm::kParEclat;
  mc_options.min_support = 0.02;
  mc_options.topology = {1, 2};

  api::MineOptions thread_options = mc_options;
  thread_options.backend = exec::BackendKind::kThreads;
  thread_options.exec_threads = 2;

  const par::ParallelOutput mc_run = api::mine_with_stats(db, mc_options);
  const par::ParallelOutput threads_run =
      api::mine_with_stats(db, thread_options);
  EXPECT_EQ(result_to_bytes(threads_run.result),
            result_to_bytes(mc_run.result));
  EXPECT_EQ(threads_run.backend, "threads");
  EXPECT_EQ(mc_run.backend, "mc");
}

TEST(ExecBackend, ApiRejectsThreadsForSimulatorOnlyAlgorithms) {
  const HorizontalDatabase db = testutil::handmade_db();
  for (api::Algorithm algorithm :
       {api::Algorithm::kHybridEclat, api::Algorithm::kCountDistribution}) {
    api::MineOptions options;
    options.algorithm = algorithm;
    options.backend = exec::BackendKind::kThreads;
    try {
      api::mine_with_stats(db, options);
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--backend=mc"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
