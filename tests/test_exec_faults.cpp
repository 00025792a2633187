// Executable spec of the thread backend's fault-tolerance contract
// (DESIGN.md §11): for every seeded exec fault plan, a run either
// completes with output byte-identical to the fault-free mc reference,
// or ends in the clean typed abort ExecClassQuarantined — and which of
// the two happens, the diagnostic, and the retry/reclaim accounting are
// pure functions of the plan, independent of thread interleaving.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/mining.hpp"
#include "data/result_io.hpp"
#include "eclat/tid_arena.hpp"
#include "exec/backend.hpp"
#include "exec/exec_fault.hpp"
#include "exec/mc_backend.hpp"
#include "exec/thread_backend.hpp"
#include "test_util.hpp"
#include "vertical/tidset.hpp"

namespace {

using namespace eclat;
using exec::ExecFaultKind;
using exec::ExecFaultPlan;
using testutil::small_quest_db;

par::ParallelOutput run_threads(const HorizontalDatabase& db,
                                const par::ParEclatConfig& config,
                                const exec::ThreadBackendOptions& options) {
  exec::ThreadBackend backend(options);
  return backend.mine(db, config);
}

std::vector<std::uint8_t> mc_reference(const HorizontalDatabase& db,
                                       const par::ParEclatConfig& config) {
  exec::McBackend backend(mc::Topology{1, 4}, mc::CostModel{});
  return result_to_bytes(backend.mine(db, config).result);
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
  plan.events.push_back(ExecFaultPlan::stall_on(17, 4));
  plan.events.push_back(
      ExecFaultPlan::hashed(ExecFaultKind::kStall, 5, 2, 3));

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
  const char* bad_kind =
      "exec-seed 7\nexec-event kind=explode class=1 mod=0 sel=0 times=1\n";
  try {
    exec::exec_plan_from_text(bad_kind);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(ExecFault, InjectorIsPureAndHonoursTimes) {
  ExecFaultPlan plan;
  plan.events.push_back(ExecFaultPlan::throw_on(5, 2));
  plan.events.push_back(ExecFaultPlan::hashed(ExecFaultKind::kStall, 3, 1));
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
  std::size_t stalled = 0;
  for (std::size_t c = 100; c < 200; ++c) {
    if (injector.fault_for(c, 0) == ExecFaultKind::kStall) ++stalled;
  }
  EXPECT_GT(stalled, 0u);
  EXPECT_LT(stalled, 100u);
}

// ---------------------------------------------------------------------------
// Result-contract validation
// ---------------------------------------------------------------------------

TEST(ExecFault, ValidateClassResultCatchesEveryCorruptionShape) {
  EquivalenceClass eq_class;
  eq_class.prefix = 4;
  eq_class.members = {5, 7, 9};
  const Count minsup = 3;

  std::vector<FrequentItemset> honest;
  honest.push_back({{4, 5, 7}, 6});
  honest.push_back({{4, 5, 7, 9}, 3});
  EXPECT_NO_THROW(exec::validate_class_result(eq_class, minsup, honest));
  EXPECT_NO_THROW(exec::validate_class_result(eq_class, minsup, {}));

  const auto rejects = [&](std::vector<FrequentItemset> result) {
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
    std::vector<FrequentItemset> result;
    result.push_back({{2, 3, 6}, 9});
    result.push_back({{2, 6, 8}, 5});
    result.push_back({{2, 3, 6, 8}, 4});
    injector.corrupt_result(0, attempt, minsup, result);
    EXPECT_THROW(exec::validate_class_result(eq_class, minsup, result),
                 exec::ClassResultCorrupt)
        << "attempt " << attempt << " corruption went undetected";
    // Determinism: the same (class, attempt) corrupts the same byte.
    std::vector<FrequentItemset> replay;
    replay.push_back({{2, 3, 6}, 9});
    replay.push_back({{2, 6, 8}, 5});
    replay.push_back({{2, 3, 6, 8}, 4});
    injector.corrupt_result(0, attempt, minsup, replay);
    ASSERT_EQ(replay.size(), result.size());
    for (std::size_t i = 0; i < result.size(); ++i) {
      EXPECT_EQ(replay[i].items, result[i].items);
      EXPECT_EQ(replay[i].support, result[i].support);
    }
  }
}

// ---------------------------------------------------------------------------
// The contract matrix: kind x times x scheduler x threads
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

  for (ExecFaultKind kind : {ExecFaultKind::kThrow, ExecFaultKind::kCorrupt,
                             ExecFaultKind::kStall}) {
    for (std::uint32_t times : {1u, 2u, 3u}) {
      for (exec::ClassScheduler scheduler :
           {exec::ClassScheduler::kStatic,
            exec::ClassScheduler::kWorkStealing}) {
        for (std::size_t threads : {1u, 2u, 3u, 4u, 5u}) {
          exec::ThreadBackendOptions options;
          options.threads = threads;
          options.scheduler = scheduler;
          options.max_retries = 2;
          options.faults.seed = 0xC0FFEE ^ times;
          options.faults.events.push_back(
              ExecFaultPlan::hashed(kind, 3, 1, times));
          const std::string label =
              std::string("kind=") + exec::to_string(kind) +
              " times=" + std::to_string(times) +
              " scheduler=" + exec::to_string(scheduler) +
              " threads=" + std::to_string(threads);

          bool first_completed = false;
          std::size_t first_quarantined = 0;
          for (int replay = 0; replay < 2; ++replay) {
            try {
              const par::ParallelOutput run = run_threads(db, config, options);
              EXPECT_EQ(result_to_bytes(run.result), reference)
                  << label << " replay=" << replay
                  << ": completed run diverged from the mc reference";
              if (replay == 0) {
                first_completed = true;
              } else {
                EXPECT_TRUE(first_completed)
                    << label << ": replay completed but the first run aborted";
              }
              if (kind != ExecFaultKind::kStall) {
                EXPECT_GT(run.exec_task_failures, 0u) << label;
                EXPECT_GT(run.exec_task_retries, 0u) << label;
              } else {
                EXPECT_GT(run.exec_stall_reclaims, 0u) << label;
              }
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
}

TEST(ExecFault, SingleWorkerStallSelfRescues) {
  const HorizontalDatabase db = small_quest_db(200, 20, 3);
  par::ParEclatConfig config;
  config.minsup = 4;
  const std::vector<std::uint8_t> reference = mc_reference(db, config);

  exec::ThreadBackendOptions options;
  options.threads = 1;  // nobody else can scan: the parked owner must
  options.faults.events.push_back(ExecFaultPlan::stall_on(0));
  const par::ParallelOutput run = run_threads(db, config, options);
  EXPECT_EQ(result_to_bytes(run.result), reference);
  EXPECT_GE(run.exec_stall_reclaims, 1u);
  EXPECT_EQ(run.exec_task_retries, 0u);  // reclaims re-enqueue directly
}

TEST(ExecFault, EveryClassStallingOnceStillCompletes) {
  const HorizontalDatabase db = small_quest_db(200, 20, 5);
  par::ParEclatConfig config;
  config.minsup = 4;
  const std::vector<std::uint8_t> reference = mc_reference(db, config);

  exec::ThreadBackendOptions options;
  options.threads = 3;
  options.faults.events.push_back(
      ExecFaultPlan::hashed(ExecFaultKind::kStall, 1, 0));  // every class
  const par::ParallelOutput run = run_threads(db, config, options);
  EXPECT_EQ(result_to_bytes(run.result), reference);
  EXPECT_GE(run.exec_stall_reclaims, 1u);
  EXPECT_EQ(run.exec_task_failures, run.exec_stall_reclaims);
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
  const par::ParallelOutput run = run_threads(db, config, options);
  EXPECT_EQ(result_to_bytes(run.result), reference);
  EXPECT_EQ(run.exec_task_failures, 2u);
  EXPECT_EQ(run.exec_task_retries, 2u);
  EXPECT_EQ(run.exec_stall_reclaims, 0u);
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
    run_threads(db, config, options);
    FAIL() << "expected ExecClassQuarantined";
  } catch (const exec::ExecClassQuarantined& e) {
    EXPECT_EQ(e.class_id(), 0u);
    EXPECT_EQ(e.attempts(), 2u);  // max_retries + 1 failures
    EXPECT_NE(std::string(e.what()).find("quarantined"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("injected throw"), std::string::npos)
        << "diagnostic should carry the last attempt's error: " << e.what();
  }
}

TEST(ExecFault, FaultFreeRunReportsZeroFaultCounters) {
  const HorizontalDatabase db = small_quest_db(200, 20, 13);
  par::ParEclatConfig config;
  config.minsup = 4;
  exec::ThreadBackendOptions options;
  options.threads = 3;
  const par::ParallelOutput run = run_threads(db, config, options);
  EXPECT_EQ(run.exec_task_failures, 0u);
  EXPECT_EQ(run.exec_task_retries, 0u);
  EXPECT_EQ(run.exec_stall_reclaims, 0u);
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
  const par::ParallelOutput run = run_threads(db, config, options);
  EXPECT_EQ(result_to_bytes(run.result), reference);
  EXPECT_GT(run.exec_arena_peak_bytes, 0u);
  EXPECT_EQ(run.exec_task_failures, 0u);
}

TEST(ExecFault, TightBudgetDegradesGracefullyOrAbortsCleanly) {
  const HorizontalDatabase db = small_quest_db(260, 24, 7);
  par::ParEclatConfig config;
  config.minsup = 4;
  config.kernel = IntersectKernel::kAuto;
  const std::vector<std::uint8_t> reference = mc_reference(db, config);

  // Measure the untripped peak first, then budget half of it.
  exec::ThreadBackendOptions metering;
  metering.threads = 1;
  metering.mem_budget = std::size_t{1} << 40;
  const std::size_t peak =
      run_threads(db, config, metering).exec_arena_peak_bytes;
  ASSERT_GT(peak, 0u);

  exec::ThreadBackendOptions options;
  options.threads = 1;
  options.mem_budget = peak / 2;
  try {
    const par::ParallelOutput run = run_threads(db, config, options);
    EXPECT_EQ(result_to_bytes(run.result), reference)
        << "a degraded-but-completed run must stay byte-identical";
    EXPECT_GT(run.exec_task_failures, 0u)
        << "half the peak cannot fit without failing a class";
  } catch (const exec::ExecClassQuarantined& e) {
    EXPECT_NE(std::string(e.what()).find("memory budget"), std::string::npos)
        << e.what();
  }
}

// `auto` under budgets just below the metered peak: every run must end
// in one of the contract's two outcomes, bytes equal to the mc reference
// or the clean memory-budget quarantine, on a 64-item database and on
// the one above, at one and two workers.
TEST(ExecFault, AutoBudgetsNearThePeakCompleteOrQuarantine) {
  const HorizontalDatabase databases[] = {small_quest_db(2000, 64, 5),
                                          small_quest_db(260, 24, 7)};
  par::ParEclatConfig config;
  config.minsup = 4;
  config.kernel = IntersectKernel::kAuto;
  for (const HorizontalDatabase& db : databases) {
    const std::vector<std::uint8_t> reference = mc_reference(db, config);
    for (const std::size_t threads : {1, 2}) {
      exec::ThreadBackendOptions metering;
      metering.threads = threads;
      metering.mem_budget = std::size_t{1} << 40;
      const std::size_t peak =
          run_threads(db, config, metering).exec_arena_peak_bytes;
      ASSERT_GT(peak, 0u);
      for (const std::size_t permille : {999, 970, 900}) {
        exec::ThreadBackendOptions options;
        options.threads = threads;
        options.mem_budget = peak * permille / 1000;
        const std::string where = "|D|=" + std::to_string(db.size()) +
                                  " W=" + std::to_string(threads) +
                                  " budget=" + std::to_string(permille) +
                                  "/1000 of " + std::to_string(peak);
        try {
          const par::ParallelOutput run = run_threads(db, config, options);
          EXPECT_EQ(result_to_bytes(run.result), reference) << where;
        } catch (const exec::ExecClassQuarantined& e) {
          EXPECT_NE(std::string(e.what()).find("memory budget"),
                    std::string::npos)
              << where << ": " << e.what();
        }
      }
    }
  }
}

TEST(ExecFault, StarvationBudgetQuarantinesWithAMemoryDiagnostic) {
  const HorizontalDatabase db = small_quest_db(260, 24, 7);
  par::ParEclatConfig config;
  config.minsup = 4;
  exec::ThreadBackendOptions options;
  options.threads = 2;
  options.mem_budget = 64;  // no class fits
  try {
    run_threads(db, config, options);
    FAIL() << "expected ExecClassQuarantined";
  } catch (const exec::ExecClassQuarantined& e) {
    EXPECT_NE(std::string(e.what()).find("memory budget"), std::string::npos)
        << e.what();
  }
}

TEST(ExecFault, IsolationOffRejectsFaultPlansAndBudgets) {
  const HorizontalDatabase db = testutil::handmade_db();
  par::ParEclatConfig config;
  config.minsup = 3;

  exec::ThreadBackendOptions with_faults;
  with_faults.isolation = false;
  with_faults.faults.events.push_back(ExecFaultPlan::throw_on(0));
  EXPECT_THROW(run_threads(db, config, with_faults), std::invalid_argument);

  exec::ThreadBackendOptions with_budget;
  with_budget.isolation = false;
  with_budget.mem_budget = 1 << 20;
  EXPECT_THROW(run_threads(db, config, with_budget), std::invalid_argument);
}

TEST(ExecFault, IsolationOffFaultFreeStaysByteIdentical) {
  const HorizontalDatabase db = small_quest_db(260, 24, 7);
  par::ParEclatConfig config;
  config.minsup = 4;
  const std::vector<std::uint8_t> reference = mc_reference(db, config);
  for (exec::ClassScheduler scheduler :
       {exec::ClassScheduler::kStatic, exec::ClassScheduler::kWorkStealing}) {
    exec::ThreadBackendOptions options;
    options.threads = 3;
    options.scheduler = scheduler;
    options.isolation = false;
    const par::ParallelOutput run = run_threads(db, config, options);
    EXPECT_EQ(result_to_bytes(run.result), reference)
        << exec::to_string(scheduler);
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
// Arena memory accounting primitives the budget builds on
// ---------------------------------------------------------------------------

TEST(ExecFault, TidSetReleaseDropsEveryBuffer) {
  TidSet set;
  TidList tids;
  for (Tid t = 0; t < 500; t += 3) tids.push_back(t);
  set.assign_sparse(tids);
  set.assign_dense(tids, 500);  // the sparse buffer keeps its capacity
  EXPECT_GT(set.memory_bytes(), tids.size() * sizeof(Tid));

  set.release();
  EXPECT_EQ(set.memory_bytes(), 0u);
  EXPECT_EQ(set.rep(), TidRep::kSparse);
  EXPECT_TRUE(set.to_tidlist().empty());
}

TEST(ExecFault, ArenaRelieveMemoryReleasesDeadAndKeepsLive) {
  TidArena arena;
  TidList tids;
  for (Tid t = 0; t < 256; ++t) tids.push_back(t * 2);
  TidArena::Level& level = arena.level(0);
  level.scratch().assign_sparse(tids);
  level.commit(3, static_cast<Count>(tids.size()));  // slot 0: live
  level.scratch().assign_sparse(tids);               // slot 1: dead scratch
  const std::size_t before = arena.memory_bytes();
  EXPECT_GT(before, 0u);

  // The live slot survives relief untouched; the dead slot's buffers are
  // released outright.
  const std::size_t live_bytes = level.sets[0].memory_bytes();
  arena.relieve_memory();
  EXPECT_EQ(level.sets[0].rep(), TidRep::kSparse);
  EXPECT_EQ(level.sets[0].to_tidlist(), tids);
  EXPECT_EQ(level.sets[0].memory_bytes(), live_bytes);
  EXPECT_EQ(level.sets[1].memory_bytes(), 0u);
  EXPECT_LT(arena.memory_bytes(), before);
}

}  // namespace
