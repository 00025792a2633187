// Executable spec of the thread backend's fault-tolerance contract
// (DESIGN.md §11): for every seeded exec fault plan, a run either
// completes with output byte-identical to the fault-free mc reference,
// or ends in the clean typed abort ExecClassQuarantined — and which of
// the two happens, the diagnostic, and the retry accounting are pure
// functions of the plan, independent of thread interleaving.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/mining.hpp"
#include "data/result_io.hpp"
#include "eclat/tid_arena.hpp"
#include "exec/exec_fault.hpp"
#include "exec/thread_backend.hpp"
#include "mc/cluster.hpp"
#include "parallel/par_eclat.hpp"
#include "test_util.hpp"
#include "vertical/tidset.hpp"

namespace {

using namespace eclat;
using exec::ExecFaultKind;
using exec::ExecFaultPlan;
using testutil::small_quest_db;

std::vector<std::uint8_t> mc_reference(const HorizontalDatabase& db,
                                       const par::ParEclatConfig& config) {
  mc::Cluster cluster(mc::Topology{1, 4}, mc::CostModel{});
  return result_to_bytes(par::par_eclat(cluster, db, config).result);
}

// ---------------------------------------------------------------------------
// Plan validation + text form
// ---------------------------------------------------------------------------

TEST(ExecFault, ValidateRejectsMalformedEvents) {
  ExecFaultPlan plan;
  plan.events.push_back(ExecFaultPlan::throw_on(3));
  EXPECT_NO_THROW(exec::validate_exec_plan(plan));

  ExecFaultPlan none = plan;
  none.events[0].kind = ExecFaultKind::kNone;
  EXPECT_THROW(exec::validate_exec_plan(none), std::invalid_argument);

  ExecFaultPlan zero_times = plan;
  zero_times.events[0].times = 0;
  EXPECT_THROW(exec::validate_exec_plan(zero_times), std::invalid_argument);

  ExecFaultPlan zero_mod = plan;
  zero_mod.events[0].class_id = exec::kAnyClass;
  zero_mod.events[0].mod = 0;
  EXPECT_THROW(exec::validate_exec_plan(zero_mod), std::invalid_argument);

  ExecFaultPlan bad_sel = plan;
  bad_sel.events[0].class_id = exec::kAnyClass;
  bad_sel.events[0].mod = 4;
  bad_sel.events[0].sel = 4;
  EXPECT_THROW(exec::validate_exec_plan(bad_sel), std::invalid_argument);
}

TEST(ExecFault, PlanTextRoundTripsExactly) {
  ExecFaultPlan plan;
  plan.seed = 0xFEEDBEEF;
  plan.events.push_back(ExecFaultPlan::throw_on(3, 2));
  plan.events.push_back(ExecFaultPlan::corrupt_on(0));
  plan.events.push_back(ExecFaultPlan::throw_on(17, 4));
  plan.events.push_back(
      ExecFaultPlan::hashed(ExecFaultKind::kCorrupt, 5, 2, 3));

  const std::string text = exec::exec_plan_to_text(plan);
  const ExecFaultPlan parsed = exec::exec_plan_from_text(text);
  EXPECT_EQ(exec::exec_plan_to_text(parsed), text);  // fixpoint
  ASSERT_EQ(parsed.events.size(), plan.events.size());
  EXPECT_EQ(parsed.seed, plan.seed);
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(parsed.events[i].kind, plan.events[i].kind) << i;
    EXPECT_EQ(parsed.events[i].class_id, plan.events[i].class_id) << i;
    EXPECT_EQ(parsed.events[i].mod, plan.events[i].mod) << i;
    EXPECT_EQ(parsed.events[i].sel, plan.events[i].sel) << i;
    EXPECT_EQ(parsed.events[i].times, plan.events[i].times) << i;
  }
}

TEST(ExecFault, PlanFromTextRejectsGarbageWithLineNumbers) {
  EXPECT_THROW(exec::exec_plan_from_text("exec-event kind=throw class=1\n"),
               std::invalid_argument);  // missing exec-seed
  // Every input below is bad on its line 2; the diagnostic names that
  // line and what is wrong there.
  const auto rejects = [](const std::string& text, const std::string& names) {
    try {
      (void)exec::exec_plan_from_text(text);
      ADD_FAILURE() << "accepted " << text;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 2"), std::string::npos) << what;
      EXPECT_NE(what.find(names), std::string::npos) << what;
    }
  };
  rejects("exec-seed 7\nexec-event kind=explode class=1 times=1\n",
          "'explode'");
  rejects("exec-seed 7\nexec-event kind=stall class=1\n", "'stall'");
  // A number is the whole token, unsigned, and in range for its field.
  rejects("exec-seed 7\nexec-event kind=throw class=1 times=-1\n",
          "'times'");
  rejects("exec-seed 7\nexec-event kind=throw class=1 times=4294967297\n",
          "'times'");
  rejects("exec-seed 7\nexec-event kind=throw class=2x\n", "'class'");
  rejects("exec-seed 7\nexec-event kind=throw class=any mod=-3 sel=0\n",
          "'mod'");
  rejects("# replayed\nexec-seed -5\n", "'-5'");

  // The extremes of each field's range still parse.
  const ExecFaultPlan edge = exec::exec_plan_from_text(
      "exec-seed 18446744073709551615\n"
      "exec-event kind=corrupt class=3 times=4294967295\n");
  EXPECT_EQ(edge.seed, UINT64_MAX);
  ASSERT_EQ(edge.events.size(), 1u);
  EXPECT_EQ(edge.events[0].class_id, 3u);
  EXPECT_EQ(edge.events[0].times, UINT32_MAX);
}

TEST(ExecFault, InjectorIsPureAndHonoursTimes) {
  ExecFaultPlan plan;
  plan.events.push_back(ExecFaultPlan::throw_on(5, 2));
  plan.events.push_back(ExecFaultPlan::hashed(ExecFaultKind::kCorrupt, 3, 1));
  const exec::ExecFaultInjector injector(plan);

  // Explicit event: the two leading attempts fault, the third runs clean.
  EXPECT_EQ(injector.fault_for(5, 0), ExecFaultKind::kThrow);
  EXPECT_EQ(injector.fault_for(5, 1), ExecFaultKind::kThrow);
  EXPECT_EQ(injector.fault_for(5, 2), ExecFaultKind::kNone);

  // Purity: probing in any order, any number of times, changes nothing.
  for (int round = 0; round < 3; ++round) {
    for (std::size_t c = 0; c < 24; ++c) {
      EXPECT_EQ(injector.fault_for(c, 0), injector.fault_for(c, 0)) << c;
    }
  }
  // The hash selector matches a strict, non-empty subset of classes.
  std::size_t corrupted = 0;
  for (std::size_t c = 100; c < 200; ++c) {
    if (injector.fault_for(c, 0) == ExecFaultKind::kCorrupt) ++corrupted;
  }
  EXPECT_GT(corrupted, 0u);
  EXPECT_LT(corrupted, 100u);
}

// ---------------------------------------------------------------------------
// Result-contract validation
// ---------------------------------------------------------------------------

TEST(ExecFault, ValidateClassResultCatchesEveryCorruptionShape) {
  EquivalenceClass eq_class;
  eq_class.prefix = 4;
  eq_class.members = {5, 7, 9};
  const Count minsup = 3;

  ItemsetStore honest;
  honest.push_back({{4, 5, 7}, 6});
  honest.push_back({{4, 5, 7, 9}, 3});
  EXPECT_NO_THROW(exec::validate_class_result(eq_class, minsup, honest));
  EXPECT_NO_THROW(exec::validate_class_result(eq_class, minsup, {}));

  const auto rejects = [&](const ItemsetStore& result) {
    EXPECT_THROW(exec::validate_class_result(eq_class, minsup, result),
                 exec::ClassResultCorrupt);
  };
  rejects({{{4, 5}, 6}});           // pair-sized: too small for a slot
  rejects({{{3, 5, 7}, 6}});        // wrong prefix
  rejects({{{4, 7, 5}, 6}});        // not ascending
  rejects({{{4, 5, 8}, 6}});        // 8 is not a class member
  rejects({{{4, 5, 7}, 2}});        // below minsup
}

TEST(ExecFault, CorruptResultAlwaysTripsTheValidator) {
  EquivalenceClass eq_class;
  eq_class.prefix = 2;
  eq_class.members = {3, 6, 8, 11};
  const Count minsup = 4;

  ExecFaultPlan plan;
  plan.seed = 99;
  plan.events.push_back(ExecFaultPlan::corrupt_on(0, 1000));
  const exec::ExecFaultInjector injector(plan);

  for (std::uint32_t attempt = 0; attempt < 32; ++attempt) {
    ItemsetStore result;
    result.push_back({{2, 3, 6}, 9});
    result.push_back({{2, 6, 8}, 5});
    result.push_back({{2, 3, 6, 8}, 4});
    injector.corrupt_result(0, attempt, minsup, result);
    EXPECT_THROW(exec::validate_class_result(eq_class, minsup, result),
                 exec::ClassResultCorrupt)
        << "attempt " << attempt << " corruption went undetected";
    // Determinism: the same (class, attempt) corrupts the same byte.
    ItemsetStore replay;
    replay.push_back({{2, 3, 6}, 9});
    replay.push_back({{2, 6, 8}, 5});
    replay.push_back({{2, 3, 6, 8}, 4});
    injector.corrupt_result(0, attempt, minsup, replay);
    ASSERT_EQ(replay.size(), result.size());
    for (std::size_t i = 0; i < result.size(); ++i) {
      EXPECT_EQ(testutil::items_of(replay[i].items),
                testutil::items_of(result[i].items));
      EXPECT_EQ(replay[i].support, result[i].support);
    }
  }
}

// ---------------------------------------------------------------------------
// The contract matrix: kind x times x threads
// ---------------------------------------------------------------------------

// times <= max_retries faults recover; times == max_retries + 1 pushes the
// first matching class over its budget and the run quarantines. Either
// way the outcome is asserted to be byte-identical-or-clean-abort, twice
// (the second run is the replay check).
TEST(ExecFault, ContractMatrixByteIdenticalOrCleanTypedAbort) {
  const HorizontalDatabase db = small_quest_db(260, 24, 7);
  par::ParEclatConfig config;
  config.minsup = 4;
  const std::vector<std::uint8_t> reference = mc_reference(db, config);

  for (ExecFaultKind kind : {ExecFaultKind::kThrow, ExecFaultKind::kCorrupt}) {
    for (std::uint32_t times : {1u, 2u, 3u}) {
      for (std::size_t threads : {1u, 2u, 3u, 4u, 5u}) {
        exec::ThreadBackendOptions options;
        options.threads = threads;
        options.max_retries = 2;
        options.faults.seed = 0xC0FFEE ^ times;
        options.faults.events.push_back(
            ExecFaultPlan::hashed(kind, 3, 1, times));
        const std::string label =
            std::string("kind=") + exec::to_string(kind) +
            " times=" + std::to_string(times) +
            " threads=" + std::to_string(threads);

        bool first_completed = false;
        std::size_t first_quarantined = 0;
        for (int replay = 0; replay < 2; ++replay) {
          try {
            const par::ParallelOutput run =
                exec::thread_eclat(db, config, options);
            EXPECT_EQ(result_to_bytes(run.result), reference)
                << label << " replay=" << replay
                << ": completed run diverged from the mc reference";
            if (replay == 0) {
              first_completed = true;
            } else {
              EXPECT_TRUE(first_completed)
                  << label << ": replay completed but the first run aborted";
            }
            EXPECT_GT(run.exec_task_failures, 0u) << label;
            EXPECT_GT(run.exec_task_retries, 0u) << label;
          } catch (const exec::ExecClassQuarantined& e) {
            EXPECT_EQ(times, 3u)
                << label << ": quarantined although the fault budget ("
                << times << ") fits max_retries";
            EXPECT_EQ(e.attempts(), 3u) << label;
            if (replay == 0) {
              first_quarantined = e.class_id();
            } else {
              EXPECT_FALSE(first_completed)
                  << label << ": replay aborted but the first run completed";
              EXPECT_EQ(e.class_id(), first_quarantined)
                  << label << ": replay quarantined a different class";
            }
          }
        }
        // A recoverable plan must actually have completed.
        if (times <= 2) {
          EXPECT_TRUE(first_completed) << label;
        }
      }
    }
  }
}

TEST(ExecFault, RetryCountersAreExactForAnExplicitTarget) {
  const HorizontalDatabase db = small_quest_db(200, 20, 9);
  par::ParEclatConfig config;
  config.minsup = 4;
  const std::vector<std::uint8_t> reference = mc_reference(db, config);

  exec::ThreadBackendOptions options;
  options.threads = 2;
  options.max_retries = 3;
  options.faults.events.push_back(ExecFaultPlan::throw_on(1, 2));
  const par::ParallelOutput run = exec::thread_eclat(db, config, options);
  EXPECT_EQ(result_to_bytes(run.result), reference);
  EXPECT_EQ(run.exec_task_failures, 2u);
  EXPECT_EQ(run.exec_task_retries, 2u);
}

TEST(ExecFault, QuarantineNamesTheLowestDoomedClass) {
  const HorizontalDatabase db = small_quest_db(200, 20, 11);
  par::ParEclatConfig config;
  config.minsup = 4;

  exec::ThreadBackendOptions options;
  options.threads = 3;
  options.max_retries = 1;
  // Every class throws forever: with classes running to their own
  // conclusion, the abort must name class 0 deterministically.
  options.faults.events.push_back(
      ExecFaultPlan::hashed(ExecFaultKind::kThrow, 1, 0, 1000));
  try {
    exec::thread_eclat(db, config, options);
    FAIL() << "expected ExecClassQuarantined";
  } catch (const exec::ExecClassQuarantined& e) {
    EXPECT_EQ(e.class_id(), 0u);
    EXPECT_EQ(e.attempts(), 2u);  // max_retries + 1 failures
    EXPECT_NE(std::string(e.what()).find("quarantined"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("injected throw"), std::string::npos)
        << "diagnostic should carry the last attempt's error: " << e.what();
  }
}

TEST(ExecFault, QuarantineCarriesTheRunsCounters) {
  // The abort reports the totals a completed run would: class 0 fails
  // once and recovers (1 failure, 1 retry); class 1 fails every attempt
  // and quarantines after max_retries + 1 = 3 failures, 2 of them retried.
  const HorizontalDatabase db = small_quest_db(200, 20, 9);
  par::ParEclatConfig config;
  config.minsup = 4;
  for (std::size_t threads : {1u, 2u, 3u, 4u}) {
    exec::ThreadBackendOptions options;
    options.threads = threads;
    options.max_retries = 2;
    options.faults.events.push_back(ExecFaultPlan::throw_on(0, 1));
    options.faults.events.push_back(ExecFaultPlan::throw_on(1, 1000));
    try {
      exec::thread_eclat(db, config, options);
      ADD_FAILURE() << "threads=" << threads
                    << ": expected ExecClassQuarantined";
    } catch (const exec::ExecClassQuarantined& e) {
      EXPECT_EQ(e.class_id(), 1u) << "threads=" << threads;
      EXPECT_EQ(e.failures(), 4u) << "threads=" << threads;
      EXPECT_EQ(e.retries(), 3u) << "threads=" << threads;
    }
  }
}

TEST(ExecFault, FaultFreeRunReportsZeroFaultCounters) {
  const HorizontalDatabase db = small_quest_db(200, 20, 13);
  par::ParEclatConfig config;
  config.minsup = 4;
  exec::ThreadBackendOptions options;
  options.threads = 3;
  const par::ParallelOutput run = exec::thread_eclat(db, config, options);
  EXPECT_EQ(run.exec_task_failures, 0u);
  EXPECT_EQ(run.exec_task_retries, 0u);
  EXPECT_EQ(run.exec_arena_peak_bytes, 0u);  // budget off: metering off
}

// ---------------------------------------------------------------------------
// Memory budget and graceful degradation
// ---------------------------------------------------------------------------

TEST(ExecFault, HugeBudgetMetersPeakWithoutTripping) {
  const HorizontalDatabase db = small_quest_db(260, 24, 7);
  par::ParEclatConfig config;
  config.minsup = 4;
  config.kernel = IntersectKernel::kAuto;
  const std::vector<std::uint8_t> reference = mc_reference(db, config);

  exec::ThreadBackendOptions options;
  options.threads = 2;
  options.mem_budget = std::size_t{1} << 40;  // 1 TiB: never trips
  const par::ParallelOutput run = exec::thread_eclat(db, config, options);
  EXPECT_EQ(result_to_bytes(run.result), reference);
  EXPECT_GT(run.exec_arena_peak_bytes, 0u);
  EXPECT_EQ(run.exec_task_failures, 0u);
}

/// The budget charges what the class being mined holds, so its boundary
/// is exact at every execution shape: a budget equal to the metered peak
/// completes byte-identical to the mc reference with no failed attempt,
/// and one byte less quarantines on the memory budget.
void expect_exact_budget_boundary(const HorizontalDatabase& db,
                                  const par::ParEclatConfig& config) {
  const std::vector<std::uint8_t> reference = mc_reference(db, config);
  exec::ThreadBackendOptions metering;
  metering.mem_budget = std::size_t{1} << 40;
  const std::size_t peak =
      exec::thread_eclat(db, config, metering).exec_arena_peak_bytes;
  ASSERT_GT(peak, 0u);
  for (const std::size_t threads : {1, 2, 3, 4}) {
    const std::string where = "|D|=" + std::to_string(db.size()) +
                              " W=" + std::to_string(threads) + " peak " +
                              std::to_string(peak);
    exec::ThreadBackendOptions options;
    options.threads = threads;
    options.mem_budget = peak;
    const par::ParallelOutput run = exec::thread_eclat(db, config, options);
    EXPECT_EQ(result_to_bytes(run.result), reference) << where;
    EXPECT_EQ(run.exec_task_failures, 0u) << where;
    EXPECT_EQ(run.exec_arena_peak_bytes, peak) << where;

    options.mem_budget = peak - 1;
    try {
      exec::thread_eclat(db, config, options);
      ADD_FAILURE() << where << ": a budget below the peak completed";
    } catch (const exec::ExecClassQuarantined& e) {
      EXPECT_NE(std::string(e.what()).find("memory budget"),
                std::string::npos)
          << where << ": " << e.what();
    }
  }
}

TEST(ExecFault, TightBudgetDegradesGracefullyOrAbortsCleanly) {
  par::ParEclatConfig config;
  config.minsup = 4;  // the paper's kernel: every tid-set sparse
  expect_exact_budget_boundary(small_quest_db(260, 24, 7), config);
}

// `auto` mixes sparse lists and bitmaps, on a 64-item database and on
// the one above.
TEST(ExecFault, AutoBudgetsNearThePeakCompleteOrQuarantine) {
  par::ParEclatConfig config;
  config.minsup = 4;
  config.kernel = IntersectKernel::kAuto;
  expect_exact_budget_boundary(small_quest_db(2000, 64, 5), config);
  expect_exact_budget_boundary(small_quest_db(260, 24, 7), config);
}

// The meter reads what a class holds, never the capacity a worker's
// arena kept from the classes it mined before, so the peak is the same
// whichever worker mines which class.
TEST(ExecFault, MeteredPeakIsAFunctionOfTheInput) {
  const HorizontalDatabase db = small_quest_db(2000, 64, 5);
  par::ParEclatConfig config;
  config.minsup = 4;
  config.kernel = IntersectKernel::kAuto;
  std::size_t first = 0;
  for (const std::size_t threads : {1, 2, 3, 4}) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      exec::ThreadBackendOptions options;
      options.threads = threads;
      options.mem_budget = std::size_t{1} << 40;
      const std::size_t peak =
          exec::thread_eclat(db, config, options).exec_arena_peak_bytes;
      if (first == 0) first = peak;
      EXPECT_EQ(peak, first) << "W=" << threads << " repeat " << repeat;
    }
  }
  EXPECT_GT(first, 0u);
}

TEST(ExecFault, StarvationBudgetQuarantinesWithAMemoryDiagnostic) {
  const HorizontalDatabase db = small_quest_db(260, 24, 7);
  par::ParEclatConfig config;
  config.minsup = 4;
  exec::ThreadBackendOptions options;
  options.threads = 2;
  options.mem_budget = 64;  // no class fits
  try {
    exec::thread_eclat(db, config, options);
    FAIL() << "expected ExecClassQuarantined";
  } catch (const exec::ExecClassQuarantined& e) {
    EXPECT_NE(std::string(e.what()).find("memory budget"), std::string::npos)
        << e.what();
  }
}

TEST(ExecFault, ApiThreadsFaultKnobsReachTheBackend) {
  const HorizontalDatabase db = small_quest_db(200, 20, 17);
  api::MineOptions options;
  options.algorithm = api::Algorithm::kParEclat;
  options.backend = exec::BackendKind::kThreads;
  options.exec_threads = 2;
  options.min_support = 0.02;
  options.exec_max_retries = 0;
  options.exec_faults.events.push_back(ExecFaultPlan::throw_on(0));
  EXPECT_THROW(api::mine_with_stats(db, options),
               exec::ExecClassQuarantined);

  options.exec_max_retries = 2;
  const par::ParallelOutput run = api::mine_with_stats(db, options);
  EXPECT_EQ(run.exec_task_failures, 1u);
  EXPECT_EQ(run.exec_task_retries, 1u);
}

// ---------------------------------------------------------------------------
// The arena meter the budget charges
// ---------------------------------------------------------------------------

TEST(ExecFault, ArenaLiveBytesChargeCommittedSetsUpToTheDepth) {
  TidList tids;
  for (Tid t = 0; t < 200; ++t) tids.push_back(t * 2);
  TidArena arena;
  TidArena::Level& root = arena.level(0);
  root.scratch().assign_sparse(tids);
  root.commit(3, static_cast<Count>(tids.size()));
  root.scratch().assign_dense(tids, 500);  // scratch, never committed
  // 4 bytes per sparse tid; the uncommitted slot is not charged.
  EXPECT_EQ(root.sets[0].bytes(), 800u);
  EXPECT_EQ(arena.live_bytes(0), 800u);

  TidArena::Level& child = arena.level(1);
  child.scratch().assign_dense(tids, 500);
  child.commit(5, static_cast<Count>(tids.size()));
  // 8 bytes per bitmap word: a universe of 500 takes 8 words.
  EXPECT_EQ(child.sets[0].bytes(), 64u);
  EXPECT_EQ(arena.live_bytes(0), 800u);  // level 1 is deeper than 0
  EXPECT_EQ(arena.live_bytes(1), 864u);
  EXPECT_EQ(arena.live_bytes(9), 864u);  // levels never made hold nothing

  // Rewound and refilled smaller, the levels keep their capacity, which
  // is not charged: only what the new class holds is.
  root.reset();
  child.reset();
  root.scratch().assign_sparse(std::span<const Tid>(tids).first(10));
  root.commit(3, 10);
  EXPECT_EQ(arena.live_bytes(1), 40u);
}

}  // namespace
