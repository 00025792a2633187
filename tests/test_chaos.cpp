// Seeded chaos sweeps as a tier-1 regression gate: hundreds of random
// compound fault schedules, each asserting the harness contract — the
// run either completes byte-identical to the fault-free reference or
// aborts cleanly with an expected diagnostic, never hangs, and replays
// bit-identically. The CLI in tools/chaos sweeps far more seeds in the
// CI soak leg; the fixed seeds here keep every local `ctest` honest.
#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos.hpp"
#include "common/parse.hpp"
#include "exec/thread_backend.hpp"
#include "mc/fault.hpp"

namespace eclat::chaos {
namespace {

const HorizontalDatabase& test_db() {
  static const HorizontalDatabase db = chaos_database(1997, 200);
  return db;
}

/// Fault-free baseline for the sweep's byte-identical comparisons.
const ChaosRun& reference_run() {
  static const ChaosRun reference = [] {
    ChaosRun run = run_plan(test_db(), mc::FaultPlan{}, ChaosOptions{});
    EXPECT_TRUE(run.completed) << run.error;
    EXPECT_FALSE(run.result_bytes.empty());
    return run;
  }();
  return reference;
}

ChaosKnobs default_knobs() {
  ChaosKnobs knobs;
  knobs.makespan_hint = reference_run().makespan;
  return knobs;
}

/// The chaos contract for one run: completed-and-byte-identical, or a
/// clean deterministic abort. Anything else is a broken invariant.
void expect_contract(const ChaosRun& run, const std::string& where) {
  if (run.completed) {
    EXPECT_FALSE(run.clean_abort) << where;
    EXPECT_EQ(run.result_bytes, reference_run().result_bytes)
        << where << ": completed run dropped or invented itemsets";
  } else {
    EXPECT_TRUE(run.clean_abort)
        << where << ": unexpected abort diagnostic \"" << run.error << "\"";
  }
}

void expect_identical(const ChaosRun& a, const ChaosRun& b,
                      const std::string& where) {
  EXPECT_EQ(a.completed, b.completed) << where;
  EXPECT_EQ(a.clean_abort, b.clean_abort) << where;
  EXPECT_EQ(a.error, b.error) << where;
  EXPECT_EQ(a.makespan, b.makespan) << where;
  EXPECT_EQ(a.finished, b.finished) << where;
  EXPECT_EQ(a.crashed, b.crashed) << where;
  EXPECT_EQ(a.hung, b.hung) << where;
  EXPECT_EQ(a.partitioned, b.partitioned) << where;
  EXPECT_EQ(a.lineage_rebuilds, b.lineage_rebuilds) << where;
  EXPECT_EQ(a.fenced_rejections, b.fenced_rejections) << where;
  EXPECT_EQ(a.result_bytes, b.result_bytes) << where;
}

TEST(Chaos, FaultFreeRunCompletesOnAllProcessors) {
  const ChaosRun& run = reference_run();
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.finished, 4u);
  EXPECT_EQ(run.crashed, 0u);
  EXPECT_EQ(run.error, "");
}

TEST(Chaos, CompoundSweepHoldsTheContract) {
  const ChaosKnobs knobs = default_knobs();
  std::size_t completed = 0;
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    const mc::FaultPlan plan = generate_plan(seed, knobs);
    const ChaosRun run = run_plan(test_db(), plan, ChaosOptions{});
    expect_contract(run, "seed " + std::to_string(seed));
    if (run.completed) ++completed;
  }
  // The sweep must actually exercise both sides of the contract: plenty
  // of runs survive their schedule, and at least some abort cleanly.
  EXPECT_GT(completed, 40u);
  EXPECT_LT(completed, 120u);
}

TEST(Chaos, CompoundSweepReplaysBitIdentically) {
  const ChaosKnobs knobs = default_knobs();
  for (std::uint64_t seed = 200; seed < 230; ++seed) {
    const mc::FaultPlan plan = generate_plan(seed, knobs);
    const ChaosRun first = run_plan(test_db(), plan, ChaosOptions{});
    const ChaosRun second = run_plan(test_db(), plan, ChaosOptions{});
    expect_identical(first, second, "seed " + std::to_string(seed));
  }
}

TEST(Chaos, PartitionOnlySweepHoldsTheContract) {
  ChaosKnobs knobs = default_knobs();
  knobs.crashes = false;
  knobs.hangs = false;
  knobs.stalls = false;
  knobs.corruptions = false;
  knobs.hub_degrades = false;
  std::size_t partitioned_runs = 0;
  for (std::uint64_t seed = 300; seed < 340; ++seed) {
    const mc::FaultPlan plan = generate_plan(seed, knobs);
    const ChaosRun run = run_plan(test_db(), plan, ChaosOptions{});
    expect_contract(run, "partition seed " + std::to_string(seed));
    if (run.partitioned > 0) ++partitioned_runs;
  }
  EXPECT_GT(partitioned_runs, 0u);
}

TEST(Chaos, BoundedReplicationSweepHoldsTheContract) {
  const ChaosKnobs knobs = default_knobs();
  for (const std::size_t replication : {std::size_t{1}, std::size_t{2}}) {
    ChaosOptions options;
    options.replication = replication;
    for (std::uint64_t seed = 400; seed < 420; ++seed) {
      const mc::FaultPlan plan = generate_plan(seed, knobs);
      const ChaosRun run = run_plan(test_db(), plan, options);
      expect_contract(run, "R=" + std::to_string(replication) + " seed " +
                               std::to_string(seed));
    }
  }
}

TEST(Chaos, NoSpeculationSweepHoldsTheContract) {
  // With leases off, every unfinished class routes through the
  // post-gather recovery rounds — the replica/lineage paths carry the
  // whole repair load.
  const ChaosKnobs knobs = default_knobs();
  ChaosOptions options;
  options.speculate = false;
  options.replication = 1;
  for (std::uint64_t seed = 500; seed < 520; ++seed) {
    const mc::FaultPlan plan = generate_plan(seed, knobs);
    const ChaosRun run = run_plan(test_db(), plan, options);
    expect_contract(run, "no-spec seed " + std::to_string(seed));
  }
}

TEST(Chaos, GeneratedPlansAlwaysValidate) {
  const ChaosKnobs knobs = default_knobs();
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const mc::FaultPlan plan = generate_plan(seed, knobs);
    EXPECT_NO_THROW(mc::validate_plan(plan, knobs.total_processors))
        << "seed " << seed;
    EXPECT_FALSE(plan.empty()) << "seed " << seed;
  }
}

TEST(Chaos, PlanTextRoundTrips) {
  const ChaosKnobs knobs = default_knobs();
  for (std::uint64_t seed = 600; seed < 625; ++seed) {
    const mc::FaultPlan plan = generate_plan(seed, knobs);
    const std::string text = plan_to_text(plan);
    const mc::FaultPlan parsed = plan_from_text(text);
    // Re-serialization is the equality check: the text form is canonical
    // (%.17g doubles round-trip exactly).
    EXPECT_EQ(plan_to_text(parsed), text) << "seed " << seed;
    EXPECT_EQ(parsed.seed, plan.seed);
    EXPECT_EQ(parsed.events.size(), plan.events.size());
  }
}

TEST(Chaos, MalformedPlanTextNamesTheOffendingLine) {
  const auto what_of = [](const std::string& text) {
    try {
      (void)plan_from_text(text);
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string();
  };
  // A bogus directive on line 2.
  std::string what = what_of("seed 7\nbogus kind=crash\n");
  EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  // An unparseable field value on line 2.
  what = what_of("seed 7\nevent kind=crash processor=banana\n");
  EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  // A number is the whole token, in range, and unsigned where its field
  // is: -1 would otherwise wrap to kAnyProcessor.
  for (const std::string bad :
       {"processor=-1", "after_calls=2junk", "at_time=0.5s"}) {
    what = what_of("seed 7\nevent kind=crash " + bad + "\n");
    EXPECT_NE(what.find("line 2"), std::string::npos) << bad << ": " << what;
    const std::string key = bad.substr(0, bad.find('='));
    EXPECT_NE(what.find("'" + key + "'"), std::string::npos)
        << bad << ": " << what;
  }
  // A missing seed line is diagnosed as such.
  what = what_of("event kind=crash processor=0\n");
  EXPECT_FALSE(what.empty());
  // Empty input has no seed either.
  EXPECT_THROW((void)plan_from_text(""), std::invalid_argument);
}

TEST(Chaos, PlanWithTwoSeedLinesIsRejectedNamingTheLine) {
  // A plan has one seed line, and a second is an error naming its line;
  // a file of several plans is split at its seed lines first
  // (split_plan_text).
  const auto what_of = [](const auto& parse) {
    try {
      parse();
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string();
  };
  std::string what = what_of([] {
    (void)plan_from_text(
        "seed 5\nevent kind=crash processor=0\n# next\nseed 6\n");
  });
  EXPECT_NE(what.find("line 4"), std::string::npos) << what;
  EXPECT_NE(what.find("'seed'"), std::string::npos) << what;
  what = what_of([] {
    (void)exec::exec_plan_from_text(
        "exec-seed 5\nexec-seed 6\nexec-event kind=throw class=1\n");
  });
  EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  EXPECT_NE(what.find("'exec-seed'"), std::string::npos) << what;
}

TEST(Chaos, SplitPlanTextCutsAtSeedLinesKeepingLineNumbers) {
  const std::string mc_text = plan_to_text(generate_plan(5, default_knobs()));
  const std::string exec_text =
      exec::exec_plan_to_text(generate_exec_plan(5, ExecChaosKnobs{}));
  const std::string file = "# mc seed 5\n" + mc_text + "\n# threads seed 5\n" +
                           exec_text + "\n# mc again\n" + mc_text;
  const std::vector<PlanPart> parts = split_plan_text(file, {"", "exec-"});
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].prefix, "");
  EXPECT_EQ(parts[1].prefix, "exec-");
  EXPECT_EQ(parts[2].prefix, "");
  // The first part starts at line 1, every later one at its seed line.
  const auto lines = [](const std::string& text) {
    return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  };
  EXPECT_EQ(parts[0].first_line, 1u);
  EXPECT_EQ(parts[1].first_line, 4 + lines(mc_text));
  EXPECT_EQ(parts[2].first_line, 6 + lines(mc_text) + lines(exec_text));
  EXPECT_EQ(plan_to_text(plan_from_text(parts[0].text)), mc_text);
  EXPECT_EQ(exec::exec_plan_to_text(exec::exec_plan_from_text(parts[1].text)),
            exec_text);
  EXPECT_EQ(plan_to_text(plan_from_text(parts[2].text)), mc_text);

  // A diagnostic names the line of the whole file.
  const std::vector<PlanPart> bad =
      split_plan_text("seed 1\n\nexec-seed 2\nevent kind=crash\n",
                      {"", "exec-"});
  ASSERT_EQ(bad.size(), 2u);
  EXPECT_EQ(bad[1].first_line, 3u);
  try {
    (void)exec::exec_plan_from_text(bad[1].text, bad[1].first_line);
    ADD_FAILURE() << "an mc event line passed as an exec one";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("line 4"), std::string::npos)
        << error.what();
  }
  // No seed line: one part, which the reader rejects for it.
  const std::vector<PlanPart> none =
      split_plan_text("# empty\n", {"", "exec-"});
  ASSERT_EQ(none.size(), 1u);
  EXPECT_THROW((void)plan_from_text(none[0].text), std::invalid_argument);
}

// --- Exec-side chaos: the same gate for the native thread backend. ---

/// The exec chaos contract: completed-and-byte-identical to the mc
/// fault-free reference, or the typed clean quarantine abort.
void expect_exec_contract(const ExecChaosRun& run, const std::string& where) {
  if (run.completed) {
    EXPECT_FALSE(run.clean_abort) << where;
    EXPECT_EQ(run.result_bytes, reference_run().result_bytes)
        << where << ": completed threads run dropped or invented itemsets";
  } else {
    EXPECT_TRUE(run.clean_abort)
        << where << ": unexpected abort diagnostic \"" << run.error << "\"";
    EXPECT_NE(run.error.find("quarantined"), std::string::npos) << run.error;
  }
}

TEST(Chaos, GeneratedExecPlansAlwaysValidate) {
  const ExecChaosKnobs knobs;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const exec::ExecFaultPlan plan = generate_exec_plan(seed, knobs);
    EXPECT_NO_THROW(exec::validate_exec_plan(plan)) << "seed " << seed;
    EXPECT_FALSE(plan.empty()) << "seed " << seed;
    EXPECT_EQ(plan.seed, seed);
    // Determinism of the generator itself: same (seed, knobs), same text.
    EXPECT_EQ(exec::exec_plan_to_text(generate_exec_plan(seed, knobs)),
              exec::exec_plan_to_text(plan))
        << "seed " << seed;
  }
  // Kind toggles prune the drawn kinds; all off degenerates to empty.
  ExecChaosKnobs none = knobs;
  none.throws = none.corrupts = false;
  EXPECT_TRUE(generate_exec_plan(1, none).empty());
}

TEST(Chaos, ExecSweepHoldsTheContractAcrossExecutionShapes) {
  const ExecChaosKnobs knobs;
  std::size_t completed = 0, aborted = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const exec::ExecFaultPlan plan = generate_exec_plan(seed, knobs);
    ExecChaosOptions options;
    // Rotate the worker count per seed, mirroring the CLI sweep.
    options.threads = 1 + seed % 5;
    const ExecChaosRun run = run_exec_plan(test_db(), plan, options);
    expect_exec_contract(run, "exec seed " + std::to_string(seed));
    run.completed ? ++completed : ++aborted;
  }
  // The sweep must exercise both sides of the contract.
  EXPECT_GT(completed, 0u);
  EXPECT_GT(aborted, 0u);
}

TEST(Chaos, ExecSweepReplaysIdentically) {
  const ExecChaosKnobs knobs;
  for (std::uint64_t seed = 200; seed < 215; ++seed) {
    const exec::ExecFaultPlan plan = generate_exec_plan(seed, knobs);
    ExecChaosOptions options;
    options.threads = 1 + seed % 5;
    const ExecChaosRun first = run_exec_plan(test_db(), plan, options);
    const ExecChaosRun second = run_exec_plan(test_db(), plan, options);
    const std::string where = "exec seed " + std::to_string(seed);
    EXPECT_EQ(first.completed, second.completed) << where;
    EXPECT_EQ(first.clean_abort, second.clean_abort) << where;
    EXPECT_EQ(first.error, second.error) << where;
    EXPECT_EQ(first.failures, second.failures) << where;
    EXPECT_EQ(first.retries, second.retries) << where;
    EXPECT_EQ(first.result_bytes, second.result_bytes) << where;
  }
}

TEST(Chaos, ExecBudgetedSweepStillHoldsTheContract) {
  // A memory budget below the fault-free run's metered peak, layered on
  // top of injected faults: every run holds the byte-identical-or-clean-
  // abort contract, the budget quarantines somewhere in the sweep, and
  // every plan replays exactly, since a trip depends on the class alone.
  exec::ThreadBackendOptions metering;
  metering.threads = 1;
  metering.mem_budget = std::size_t{1} << 40;
  par::ParEclatConfig config;
  config.minsup = ExecChaosOptions{}.minsup;
  const std::size_t peak =
      exec::thread_eclat(test_db(), config, metering).exec_arena_peak_bytes;
  ASSERT_GT(peak, 0u);
  const ExecChaosKnobs knobs;
  std::size_t memory_quarantines = 0;
  for (std::uint64_t seed = 300; seed < 312; ++seed) {
    const exec::ExecFaultPlan plan = generate_exec_plan(seed, knobs);
    ExecChaosOptions options;
    options.threads = 1 + seed % 3;
    options.mem_budget = peak / 2;
    const ExecChaosRun run = run_exec_plan(test_db(), plan, options);
    const std::string where = "budget seed " + std::to_string(seed);
    expect_exec_contract(run, where);
    if (run.error.find("memory budget") != std::string::npos) {
      ++memory_quarantines;
    }
    // An abort carries the run's counters, and the quarantined class's
    // last failure was not retried.
    if (run.clean_abort) {
      EXPECT_GT(run.failures, run.retries) << where;
    }
    const ExecChaosRun again = run_exec_plan(test_db(), plan, options);
    EXPECT_EQ(again.completed, run.completed) << where;
    EXPECT_EQ(again.error, run.error) << where;
    EXPECT_EQ(again.failures, run.failures) << where;
    EXPECT_EQ(again.retries, run.retries) << where;
    EXPECT_EQ(again.result_bytes, run.result_bytes) << where;
  }
  EXPECT_GT(memory_quarantines, 0u);
}

TEST(Chaos, ReplayedTextPlanProducesTheIdenticalRun) {
  // The CI soak leg's artifact loop: a failing plan is written as text
  // and replayed from the file. The replay must reproduce the original
  // run exactly, or the artifact is useless.
  const ChaosKnobs knobs = default_knobs();
  for (std::uint64_t seed = 700; seed < 710; ++seed) {
    const mc::FaultPlan plan = generate_plan(seed, knobs);
    const mc::FaultPlan replayed = plan_from_text(plan_to_text(plan));
    expect_identical(run_plan(test_db(), plan, ChaosOptions{}),
                     run_plan(test_db(), replayed, ChaosOptions{}),
                     "seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace eclat::chaos
