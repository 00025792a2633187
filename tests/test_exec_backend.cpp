// Differential tests for the execution-backend seam: the native thread
// backend must emit byte-identical results to the mc simulator backend
// and to the sequential oracle — across every intersect kernel, a minsup
// grid, every worker count, both class schedulers, and a steal-heavy
// skewed workload. This is the determinism contract of DESIGN.md §9 as
// an executable spec.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/mining.hpp"
#include "data/result_io.hpp"
#include "eclat/eclat_seq.hpp"
#include "exec/backend.hpp"
#include "exec/mc_backend.hpp"
#include "exec/thread_backend.hpp"
#include "test_util.hpp"
#include "vertical/simd/dispatch.hpp"

namespace {

using namespace eclat;
using testutil::same_itemsets;
using testutil::small_quest_db;

constexpr IntersectKernel kAllKernels[] = {
    IntersectKernel::kMerge, IntersectKernel::kMergeShortCircuit,
    IntersectKernel::kGallop, IntersectKernel::kBitset,
    IntersectKernel::kAuto};

par::ParallelOutput run_threads(const HorizontalDatabase& db,
                                const par::ParEclatConfig& config,
                                std::size_t threads,
                                exec::ClassScheduler scheduler) {
  exec::ThreadBackendOptions options;
  options.threads = threads;
  options.scheduler = scheduler;
  exec::ThreadBackend backend(options);
  return backend.mine(db, config);
}

par::ParallelOutput run_mc(const HorizontalDatabase& db,
                           const par::ParEclatConfig& config,
                           const mc::Topology& topology) {
  exec::McBackend backend(topology, mc::CostModel{});
  return backend.mine(db, config);
}

/// Deliberately skewed database: a dense overlapping core on items 0..11
/// concentrates almost all C(s,2) mining weight in the first few
/// equivalence classes, so under the static greedy schedule one worker
/// owns nearly everything and the others must steal to help.
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
      const par::ParallelOutput threads_run =
          run_threads(db, config, 3, exec::ClassScheduler::kWorkStealing);

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

TEST(ExecBackend, ByteIdenticalAcrossThreadCountsAndSchedulers) {
  const HorizontalDatabase db = small_quest_db(350, 28, 11);
  par::ParEclatConfig config;
  config.minsup = 5;

  const std::vector<std::uint8_t> reference =
      result_to_bytes(run_mc(db, config, {2, 2}).result);
  for (std::size_t threads : {1u, 2u, 3u, 4u, 5u}) {
    for (exec::ClassScheduler scheduler :
         {exec::ClassScheduler::kStatic, exec::ClassScheduler::kWorkStealing}) {
      const par::ParallelOutput run =
          run_threads(db, config, threads, scheduler);
      EXPECT_EQ(result_to_bytes(run.result), reference)
          << "threads=" << threads
          << " scheduler=" << exec::to_string(scheduler);
      EXPECT_EQ(run.exec_threads, threads);
      EXPECT_EQ(run.backend, "threads");
    }
  }
}

TEST(ExecBackend, StealHeavySkewStaysIdentical) {
  const HorizontalDatabase db = skewed_db();
  par::ParEclatConfig config;
  config.minsup = 100;

  const std::vector<std::uint8_t> reference =
      result_to_bytes(run_mc(db, config, {1, 4}).result);
  ASSERT_FALSE(result_from_bytes(reference).itemsets.empty());

  const par::ParallelOutput stolen =
      run_threads(db, config, 4, exec::ClassScheduler::kWorkStealing);
  const par::ParallelOutput pinned =
      run_threads(db, config, 4, exec::ClassScheduler::kStatic);
  EXPECT_EQ(result_to_bytes(stolen.result), reference);
  EXPECT_EQ(result_to_bytes(pinned.result), reference);
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
      for (exec::ClassScheduler scheduler :
           {exec::ClassScheduler::kStatic,
            exec::ClassScheduler::kWorkStealing}) {
        EXPECT_EQ(
            result_to_bytes(run_threads(db, config, threads, scheduler).result),
            reference)
            << "num_items=" << num_items << " threads=" << threads
            << " scheduler=" << exec::to_string(scheduler);
      }
    }
  }
}

TEST(ExecBackend, PhaseAccountingAndRunReport) {
  const HorizontalDatabase db = small_quest_db();
  par::ParEclatConfig config;
  config.minsup = 4;
  const par::ParallelOutput run =
      run_threads(db, config, 2, exec::ClassScheduler::kWorkStealing);

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
  exec::ThreadBackend backend(exec::ThreadBackendOptions{});
  EXPECT_EQ(backend.workers(), resolved);

  const HorizontalDatabase db = testutil::handmade_db();
  par::ParEclatConfig config;
  config.minsup = 3;
  const par::ParallelOutput run = backend.mine(db, config);
  EXPECT_EQ(run.exec_threads, resolved);  // resolved value echoed
}

TEST(ExecBackend, McBackendEchoesBackendFields) {
  const HorizontalDatabase db = testutil::handmade_db();
  par::ParEclatConfig config;
  config.minsup = 3;
  const par::ParallelOutput run = run_mc(db, config, {2, 2});
  EXPECT_EQ(run.backend, "mc");
  EXPECT_EQ(run.exec_threads, 4u);
  EXPECT_GT(run.wall_seconds, 0.0);
  EXPECT_GT(run.total_seconds, 0.0);  // virtual makespan, not wall
}

TEST(ExecBackend, ParseHelpersRejectUnknownNamesActionably) {
  EXPECT_EQ(exec::parse_backend("mc"), exec::BackendKind::kMc);
  EXPECT_EQ(exec::parse_backend("threads"), exec::BackendKind::kThreads);
  EXPECT_EQ(exec::parse_scheduler("static"), exec::ClassScheduler::kStatic);
  EXPECT_EQ(exec::parse_scheduler("steal"),
            exec::ClassScheduler::kWorkStealing);
  try {
    exec::parse_backend("gpu");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'gpu'"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("threads"), std::string::npos);
  }
  EXPECT_THROW(exec::parse_scheduler("lifo"), std::invalid_argument);
  try {
    exec::parse_scheduler("fifo");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'static'"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("'steal'"), std::string::npos)
        << e.what();
  }
  // Case and whitespace are not forgiven: flag spellings are exact.
  EXPECT_THROW(exec::parse_backend("Threads"), std::invalid_argument);
  EXPECT_THROW(exec::parse_backend(" mc"), std::invalid_argument);
  EXPECT_THROW(exec::parse_backend(""), std::invalid_argument);
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
  const std::vector<std::uint8_t> full_isa = result_to_bytes(
      run_threads(db, config, 3, exec::ClassScheduler::kWorkStealing)
          .result);
  EXPECT_EQ(full_isa, reference);

  simd::override_isa_level(simd::IsaLevel::kScalar);
  const std::vector<std::uint8_t> scalar = result_to_bytes(
      run_threads(db, config, 3, exec::ClassScheduler::kWorkStealing)
          .result);
  simd::override_isa_level(std::nullopt);
  EXPECT_EQ(scalar, reference)
      << "scalar-pinned threads run diverged from the mc reference";
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
