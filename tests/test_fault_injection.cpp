// Deterministic fault injection end to end: crashes at every pipeline
// stage, stragglers, message corruption and hub degradation — Parallel
// Eclat must terminate (no deadlock), survivors must recover, and the
// mined output must equal the fault-free sequential reference exactly.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eclat/eclat_seq.hpp"
#include "mc/fault.hpp"
#include "mc/trace.hpp"
#include "parallel/par_eclat.hpp"
#include "parallel/wire.hpp"
#include "test_util.hpp"

namespace eclat::par {
namespace {

using testutil::same_itemsets;
using testutil::small_quest_db;

constexpr Count kMinsup = 6;

HorizontalDatabase test_db() { return small_quest_db(400, 30, 17); }

MiningResult reference_result(const HorizontalDatabase& db) {
  EclatConfig sequential;
  sequential.minsup = kMinsup;
  return eclat_sequential(db, sequential);
}

/// Virtual-time-only cost model: measured thread CPU is excluded, so two
/// runs of the same (plan, seed) produce bit-identical makespans.
mc::CostModel modeled_time_only() {
  mc::CostModel cost;
  cost.cpu_scale = 0.0;
  return cost;
}

ParallelOutput run_with_plan(
    const HorizontalDatabase& db, const mc::FaultPlan& plan,
    const mc::Topology& topology = {2, 2}, mc::Trace* trace = nullptr,
    IntersectKernel kernel = IntersectKernel::kMergeShortCircuit,
    bool speculate = true, std::size_t replication = 0) {
  mc::Cluster cluster(topology, modeled_time_only());
  cluster.set_fault_plan(plan);
  if (trace != nullptr) cluster.set_trace(trace);
  ParEclatConfig config;
  config.minsup = kMinsup;
  config.kernel = kernel;
  config.lease.speculate = speculate;
  config.replication = replication;
  return par_eclat(cluster, db, config);
}

std::size_t count_fault_events(const mc::Trace& trace,
                               const std::string& label) {
  std::size_t n = 0;
  for (const mc::TraceEvent& event : trace.sorted()) {
    if (event.kind == mc::TraceKind::kFault &&
        event.label.rfind(label, 0) == 0) {
      ++n;
    }
  }
  return n;
}

// --- Crash-recovery: every processor, several sites across all phases. ---

struct CrashSite {
  const char* name;
  mc::FaultOp op;
  const char* phase;
};

TEST(FaultInjection, CrashAnyProcessorAnySiteOutputUnchanged) {
  const HorizontalDatabase db = test_db();
  const MiningResult reference = reference_result(db);
  const mc::Topology topology{2, 2};

  const CrashSite sites[] = {
      {"init-scan", mc::FaultOp::kDiskRead, "initialization"},
      {"init-reduce", mc::FaultOp::kSumReduce, "initialization"},
      {"transform-plan", mc::FaultOp::kCompute, "transformation"},
      {"transform-exchange", mc::FaultOp::kAllToAll, "transformation"},
      {"transform-commit", mc::FaultOp::kBarrier, "transformation"},
      {"final-gather", mc::FaultOp::kAllGather, "reduction"},
  };

  for (const CrashSite& site : sites) {
    for (std::size_t victim = 0; victim < topology.total(); ++victim) {
      mc::FaultPlan plan;
      plan.events.push_back(
          mc::FaultPlan::crash(victim, site.op, site.phase));
      const ParallelOutput output = run_with_plan(db, plan, topology);
      const std::string where =
          std::string(site.name) + " victim=" + std::to_string(victim);

      ASSERT_EQ(output.run_report.outcomes.size(), topology.total());
      EXPECT_EQ(output.run_report.outcomes[victim],
                mc::ProcessorOutcome::kCrashed)
          << where;
      EXPECT_EQ(output.run_report.crashed(), 1u) << where;
      EXPECT_TRUE(same_itemsets(output.result, reference)) << where;
    }
  }
}

TEST(FaultInjection, CrashAfterClassCheckpointRecoversFromCheckpoints) {
  const HorizontalDatabase db = test_db();
  const MiningResult reference = reference_result(db);
  const mc::Topology topology{2, 2};

  for (const bool speculate : {false, true}) {
    for (std::size_t victim = 0; victim < topology.total(); ++victim) {
      mc::FaultPlan plan;
      plan.events.push_back(
          mc::FaultPlan::crash_at_point(victim, "class-checkpointed"));
      const ParallelOutput output =
          run_with_plan(db, plan, topology, nullptr,
                        IntersectKernel::kMergeShortCircuit, speculate);
      const std::string where = "victim=" + std::to_string(victim) +
                                " speculate=" + std::to_string(speculate);
      // The point only fires if the victim owns at least one class; either
      // way the output must match.
      EXPECT_LE(output.run_report.crashed(), 1u) << where;
      EXPECT_TRUE(same_itemsets(output.result, reference)) << where;
      if (output.run_report.crashed() == 1) {
        if (speculate) {
          // The dead owner's leases expire during the asynchronous phase
          // and survivors re-mine its classes speculatively, so nothing is
          // left for the post-gather recovery round.
          EXPECT_EQ(output.phase_seconds.count("recovery"), 0u) << where;
        } else {
          EXPECT_GT(output.phase_seconds.count("recovery"), 0u) << where;
        }
      }
    }
  }
}

TEST(FaultInjection, CrashRecoveryIdenticalAcrossIntersectKernels) {
  // The recovery re-mine path must yield the same output no matter which
  // intersection kernel (including the dense bitset and the adaptive auto
  // dispatch) par_eclat is configured with.
  const HorizontalDatabase db = test_db();
  const MiningResult reference = reference_result(db);
  const mc::Topology topology{2, 2};
  const IntersectKernel kernels[] = {IntersectKernel::kMerge,
                                     IntersectKernel::kMergeShortCircuit,
                                     IntersectKernel::kAuto};

  for (IntersectKernel kernel : kernels) {
    for (std::size_t victim = 0; victim < topology.total(); ++victim) {
      mc::FaultPlan plan;
      plan.events.push_back(
          mc::FaultPlan::crash(victim, mc::FaultOp::kAllGather, "reduction"));
      const ParallelOutput output =
          run_with_plan(db, plan, topology, nullptr, kernel);
      const std::string where = std::string(kernel_name(kernel)) +
                                " victim=" + std::to_string(victim);
      EXPECT_EQ(output.run_report.crashed(), 1u) << where;
      EXPECT_TRUE(same_itemsets(output.result, reference)) << where;
    }
  }
}

TEST(FaultInjection, CrashOfProcessorZeroMovesTheRoot) {
  // Processor 0 assembles the result in fault-free runs; its death at the
  // final gather must hand assembly to the lowest-id survivor.
  const HorizontalDatabase db = test_db();
  mc::FaultPlan plan;
  plan.events.push_back(
      mc::FaultPlan::crash(0, mc::FaultOp::kAllGather, "reduction"));
  const ParallelOutput output = run_with_plan(db, plan);
  EXPECT_EQ(output.run_report.outcomes[0], mc::ProcessorOutcome::kCrashed);
  EXPECT_TRUE(same_itemsets(output.result, reference_result(db)));
}

TEST(FaultInjection, CrashAtVirtualTimeFires) {
  const HorizontalDatabase db = test_db();
  mc::FaultPlan plan;
  plan.events.push_back(mc::FaultPlan::crash_at_time(3, 1e-9));
  const ParallelOutput output = run_with_plan(db, plan);
  EXPECT_EQ(output.run_report.outcomes[3], mc::ProcessorOutcome::kCrashed);
  EXPECT_TRUE(same_itemsets(output.result, reference_result(db)));
}

TEST(FaultInjection, TwoCrashesInDifferentPhasesStillRecover) {
  const HorizontalDatabase db = test_db();
  mc::FaultPlan plan;
  plan.events.push_back(
      mc::FaultPlan::crash(0, mc::FaultOp::kSumReduce, "initialization"));
  plan.events.push_back(
      mc::FaultPlan::crash(2, mc::FaultOp::kAllGather, "reduction"));
  const ParallelOutput output = run_with_plan(db, plan);
  EXPECT_EQ(output.run_report.crashed(), 2u);
  EXPECT_TRUE(same_itemsets(output.result, reference_result(db)));
}

// --- Determinism: one seed, one schedule, one makespan. ---

TEST(FaultInjection, SamePlanSameSeedSameMakespanAndSchedule) {
  const HorizontalDatabase db = test_db();
  mc::FaultPlan plan;
  plan.seed = 0xFEED;
  plan.events.push_back(
      mc::FaultPlan::crash(1, mc::FaultOp::kAllToAll, "transformation"));
  plan.events.push_back(mc::FaultPlan::corrupt_message(
      2, mc::kAnyProcessor));

  mc::Trace trace_a, trace_b;
  const ParallelOutput a = run_with_plan(db, plan, {2, 2}, &trace_a);
  const ParallelOutput b = run_with_plan(db, plan, {2, 2}, &trace_b);

  EXPECT_EQ(a.total_seconds, b.total_seconds);  // bit-identical, cpu_scale=0
  EXPECT_TRUE(same_itemsets(a.result, b.result));
  EXPECT_EQ(a.run_report.outcomes, b.run_report.outcomes);
  // The injected-fault timeline replays exactly.
  EXPECT_EQ(count_fault_events(trace_a, "crash"),
            count_fault_events(trace_b, "crash"));
  EXPECT_EQ(count_fault_events(trace_a, "corrupt-message"),
            count_fault_events(trace_b, "corrupt-message"));
  EXPECT_EQ(count_fault_events(trace_a, "retransmit"),
            count_fault_events(trace_b, "retransmit"));
}

// --- Stragglers and hub degradation: makespan moves, output never. ---

TEST(FaultInjection, DiskStragglerGrowsMakespanNotOutput) {
  const HorizontalDatabase db = test_db();
  const ParallelOutput clean = run_with_plan(db, {});

  mc::FaultPlan plan;
  plan.events.push_back(mc::FaultPlan::disk_stall(2, 25.0));
  const ParallelOutput stalled = run_with_plan(db, plan);

  EXPECT_TRUE(stalled.run_report.all_finished());
  EXPECT_GT(stalled.total_seconds, clean.total_seconds);
  EXPECT_TRUE(same_itemsets(stalled.result, clean.result));
}

TEST(FaultInjection, HubDegradationStretchesTheExchange) {
  const HorizontalDatabase db = test_db();
  const ParallelOutput clean = run_with_plan(db, {});

  mc::FaultPlan plan;
  plan.events.push_back(mc::FaultPlan::hub_degrade(1000.0, 0.0));
  const ParallelOutput degraded = run_with_plan(db, plan);

  EXPECT_TRUE(degraded.run_report.all_finished());
  EXPECT_GT(degraded.total_seconds, clean.total_seconds);
  EXPECT_TRUE(same_itemsets(degraded.result, clean.result));
}

// --- Message corruption: detected by the CRC frame, repaired by
// retransmission, never decoded into wrong counts. ---

TEST(FaultInjection, CorruptedExchangePayloadIsRetransmitted) {
  const HorizontalDatabase db = test_db();
  mc::Trace trace;
  mc::FaultPlan plan;
  plan.events.push_back(
      mc::FaultPlan::corrupt_message(1, mc::kAnyProcessor));
  const ParallelOutput output = run_with_plan(db, plan, {2, 2}, &trace);

  EXPECT_TRUE(output.run_report.all_finished());
  EXPECT_EQ(count_fault_events(trace, "corrupt-message"), 1u);
  EXPECT_EQ(count_fault_events(trace, "retransmit"), 1u);
  EXPECT_TRUE(same_itemsets(output.result, reference_result(db)));
}

TEST(FaultInjection, CorruptionPlusCrashTogether) {
  const HorizontalDatabase db = test_db();
  mc::FaultPlan plan;
  plan.events.push_back(
      mc::FaultPlan::corrupt_message(0, mc::kAnyProcessor));
  plan.events.push_back(
      mc::FaultPlan::crash_at_point(3, "class-checkpointed"));
  const ParallelOutput output = run_with_plan(db, plan);
  EXPECT_TRUE(same_itemsets(output.result, reference_result(db)));
}

// --- Substrate-level behaviour. ---

TEST(FaultInjection, AbortedBodyReleasesPeersAndRethrows) {
  // A non-fault exception in one processor must not deadlock the others at
  // their barriers, and must surface from Cluster::run after the join.
  mc::Cluster cluster(mc::Topology{2, 2}, modeled_time_only());
  EXPECT_THROW(cluster.run([](mc::Processor& self) {
    if (self.id() == 2) throw std::runtime_error("boom");
    self.barrier();
    self.barrier();
  }),
               std::runtime_error);
  const mc::RunReport& report = cluster.last_run_report();
  EXPECT_EQ(report.outcomes[2], mc::ProcessorOutcome::kAborted);
  for (const std::size_t p : {0u, 1u, 3u}) {
    EXPECT_EQ(report.outcomes[p], mc::ProcessorOutcome::kFinished) << p;
  }
}

TEST(FaultInjection, CrashEventWithoutTargetProcessorIsRejected) {
  mc::FaultPlan plan;
  mc::FaultEvent event;
  event.kind = mc::FaultKind::kCrash;  // no processor: ambiguous trigger
  plan.events.push_back(event);
  EXPECT_THROW(mc::FaultInjector(plan, 4), std::invalid_argument);
}

TEST(FaultInjection, FaultFreePlanReportsAllFinished) {
  const HorizontalDatabase db = test_db();
  const ParallelOutput output = run_with_plan(db, {});
  EXPECT_TRUE(output.run_report.all_finished());
  EXPECT_EQ(output.run_report.crashed(), 0u);
  EXPECT_EQ(output.phase_seconds.count("recovery"), 0u);
}

// --- Network partitions: quorum completes, minority aborts cleanly. ---

TEST(FaultInjection, PartitionMinorityAbortsMajorityCompletes) {
  const HorizontalDatabase db = test_db();
  const MiningResult reference = reference_result(db);
  const mc::Topology topology{2, 2};

  for (std::size_t victim = 0; victim < topology.total(); ++victim) {
    mc::FaultPlan plan;
    // One processor cut off for the whole run: it aborts at its first
    // collective, the three-processor quorum finishes and recovers its
    // classes exactly like a crash.
    plan.events.push_back(mc::FaultPlan::partition({victim}, 0.0, 1e9));
    const ParallelOutput output = run_with_plan(db, plan, topology);
    const std::string where = "victim=" + std::to_string(victim);
    EXPECT_EQ(output.run_report.outcomes[victim],
              mc::ProcessorOutcome::kPartitioned)
        << where;
    for (std::size_t p = 0; p < topology.total(); ++p) {
      if (p == victim) continue;
      EXPECT_EQ(output.run_report.outcomes[p],
                mc::ProcessorOutcome::kFinished)
          << where << " survivor=" << p;
    }
    EXPECT_TRUE(same_itemsets(output.result, reference)) << where;
  }
}

TEST(FaultInjection, PartitionEvenSplitAbortsAllCleanly) {
  // A 2-2 split leaves no strict majority: every processor is in a
  // minority, so the whole run aborts deterministically — no output, no
  // hang, no exception out of par_eclat.
  const HorizontalDatabase db = test_db();
  mc::FaultPlan plan;
  plan.events.push_back(mc::FaultPlan::partition({0, 1}, 0.0, 1e9));
  const ParallelOutput output = run_with_plan(db, plan);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(output.run_report.outcomes[p],
              mc::ProcessorOutcome::kPartitioned)
        << p;
  }
  EXPECT_TRUE(output.result.itemsets.empty());
}

TEST(FaultInjection, PartitionHealedBeforeFirstCollectiveIsInvisible) {
  // A window that closes before any processor reaches a collective never
  // cuts anyone: same outcomes, same output, same makespan as fault-free.
  const HorizontalDatabase db = test_db();
  const ParallelOutput clean = run_with_plan(db, {});

  mc::FaultPlan plan;
  plan.events.push_back(mc::FaultPlan::partition({0, 3}, 0.0, 1e-12));
  const ParallelOutput healed = run_with_plan(db, plan);
  EXPECT_TRUE(healed.run_report.all_finished());
  EXPECT_EQ(healed.total_seconds, clean.total_seconds);
  EXPECT_TRUE(same_itemsets(healed.result, clean.result));
}

TEST(FaultInjection, PartitionBothSidesSymmetric) {
  // Naming {victim} or its complement describes the same cut: identical
  // outcomes and identical output either way.
  const HorizontalDatabase db = test_db();
  mc::FaultPlan named_minority, named_majority;
  named_minority.events.push_back(mc::FaultPlan::partition({2}, 0.0, 1e9));
  named_majority.events.push_back(
      mc::FaultPlan::partition({0, 1, 3}, 0.0, 1e9));
  const ParallelOutput a = run_with_plan(db, named_minority);
  const ParallelOutput b = run_with_plan(db, named_majority);
  EXPECT_EQ(a.run_report.outcomes, b.run_report.outcomes);
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_TRUE(same_itemsets(a.result, b.result));
}

TEST(FaultInjection, PartitionPlanValidationRejectsBadWindowsAndSides) {
  const auto rejects = [](mc::FaultEvent event) {
    mc::FaultPlan plan;
    plan.events.push_back(std::move(event));
    EXPECT_THROW(mc::validate_plan(plan, 4), std::invalid_argument);
  };
  // Empty window (duration must be > 0: partitions heal).
  rejects(mc::FaultPlan::partition({1}, 0.5, 0.0));
  // Negative start.
  rejects(mc::FaultPlan::partition({1}, -0.5, 1.0));
  // Both sides need at least one member.
  rejects(mc::FaultPlan::partition({}, 0.0, 1.0));
  rejects(mc::FaultPlan::partition({0, 1, 2, 3}, 0.0, 1.0));
  // Out-of-range and duplicate members.
  rejects(mc::FaultPlan::partition({7}, 0.0, 1.0));
  rejects(mc::FaultPlan::partition({1, 1}, 0.0, 1.0));
  // A valid cut passes.
  mc::FaultPlan ok;
  ok.events.push_back(mc::FaultPlan::partition({1, 2}, 0.0, 1.0));
  EXPECT_NO_THROW(mc::validate_plan(ok, 4));
}

TEST(FaultInjection, SharedSingleOwnerTriggerCounterIsRejected) {
  // Two count-triggered events on the identical (kind, site, after_calls)
  // tuple would fire on the same probe — ambiguous, rejected up front.
  mc::FaultPlan plan;
  plan.events.push_back(
      mc::FaultPlan::crash(1, mc::FaultOp::kAllToAll, "transformation"));
  plan.events.push_back(
      mc::FaultPlan::crash(1, mc::FaultOp::kAllToAll, "transformation"));
  EXPECT_THROW(mc::validate_plan(plan, 4), std::invalid_argument);
  // Distinguishing after_calls resolves the collision.
  plan.events.back().after_calls = 1;
  EXPECT_NO_THROW(mc::validate_plan(plan, 4));
}

// --- Bounded replication: replica loss at every level, every kernel. ---

TEST(FaultInjection, ReplicaLossEveryReplicationLevelEveryKernel) {
  // Crash a replica holder at its first asynchronous-phase disk read —
  // after its tid-list images committed, before any of its result
  // checkpoints — at every replication level {1, 2, all}: the mined
  // output must equal the fault-free reference regardless of whether the
  // victim's classes are re-mined from a surviving replica or rebuilt
  // from lineage (the on-disk partition files). Crashing before the
  // first checkpoint matters: it leaves the victim's first-owned class
  // unfinished too, and with this database that class is exactly the one
  // whose sole R=1 rendezvous holder is the victim itself.
  const HorizontalDatabase db = test_db();
  const MiningResult reference = reference_result(db);
  const mc::Topology topology{2, 2};
  const IntersectKernel kernels[] = {IntersectKernel::kMerge,
                                     IntersectKernel::kMergeShortCircuit,
                                     IntersectKernel::kAuto};

  // speculate=false routes the victim's unfinished classes through the
  // post-gather recovery rounds, where replica availability is actually
  // consulted (speculative backups re-mine during the asynchronous phase,
  // before the failure is even detected at a collective fold).
  for (const std::size_t replication : {std::size_t{1}, std::size_t{2},
                                        std::size_t{0}}) {
    std::uint64_t lineage_total = 0;
    for (IntersectKernel kernel : kernels) {
      for (std::size_t victim = 0; victim < topology.total(); ++victim) {
        mc::FaultPlan plan;
        plan.events.push_back(
            mc::FaultPlan::crash(victim, mc::FaultOp::kDiskRead,
                                 "asynchronous"));
        const ParallelOutput output =
            run_with_plan(db, plan, topology, nullptr, kernel,
                          /*speculate=*/false, replication);
        const std::string where = std::string(kernel_name(kernel)) +
                                  " victim=" + std::to_string(victim) +
                                  " R=" + std::to_string(replication);
        EXPECT_TRUE(same_itemsets(output.result, reference)) << where;
        lineage_total += output.lineage_rebuilds;
        if (replication == 0) {
          // Full replication: every image survives a single crash, so the
          // lineage fallback must never be needed.
          EXPECT_EQ(output.lineage_rebuilds, 0u) << where;
        }
      }
    }
    if (replication == 1) {
      // With a single replica, some victim holds the only copy of some
      // unfinished class's image: at least one run must have exercised
      // the lineage rebuild path (rendezvous placement is deterministic,
      // so this is a fixed property of the database and topology).
      EXPECT_GT(lineage_total, 0u);
    }
  }
}

TEST(FaultInjection, ReplicaLossOfTwoHoldersAtReplicationTwo) {
  // R=2: both holders of a class must die for its image to be lost. Two
  // crashes at the victims' first asynchronous disk reads still leave
  // two survivors and a byte-identical result, replica or lineage. With
  // this database, class 0's two rendezvous holders are exactly {0, 2},
  // so that victim pair must fall through to a lineage rebuild while the
  // disjoint pairs recover from the surviving copy.
  const HorizontalDatabase db = test_db();
  const MiningResult reference = reference_result(db);
  const std::size_t pairs[][2] = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  for (const auto& pair : pairs) {
    mc::FaultPlan plan;
    plan.events.push_back(mc::FaultPlan::crash(
        pair[0], mc::FaultOp::kDiskRead, "asynchronous"));
    plan.events.push_back(mc::FaultPlan::crash(
        pair[1], mc::FaultOp::kDiskRead, "asynchronous"));
    const ParallelOutput output =
        run_with_plan(db, plan, {2, 2}, nullptr,
                      IntersectKernel::kMergeShortCircuit,
                      /*speculate=*/false, /*replication=*/2);
    const std::string where = "victims=" + std::to_string(pair[0]) + "," +
                              std::to_string(pair[1]);
    EXPECT_TRUE(same_itemsets(output.result, reference)) << where;
    if (pair[0] == 0 && pair[1] == 2) {
      EXPECT_GT(output.lineage_rebuilds, 0u) << where;
    }
  }
}

// --- Crash during recovery: reassignment is re-entrant. ---

TEST(FaultInjection, CrashDuringRecoveryTriggersAnotherRound) {
  // Victim A dies at the final gather, forcing a recovery round; victim B
  // dies at that round's gather, forcing another. The run must not wedge
  // and the output must still match.
  const HorizontalDatabase db = test_db();
  const MiningResult reference = reference_result(db);

  // speculate=false: the first victim's unfinished classes reach the
  // recovery rounds (with speculation, backups re-mine them during the
  // asynchronous phase and no recovery round ever runs).
  for (std::size_t first = 0; first < 4; ++first) {
    const std::size_t second = (first + 1) % 4;
    mc::FaultPlan plan;
    plan.events.push_back(
        mc::FaultPlan::crash_at_point(first, "class-checkpointed"));
    plan.events.push_back(
        mc::FaultPlan::crash(second, mc::FaultOp::kAllGather, "recovery"));
    const ParallelOutput output =
        run_with_plan(db, plan, {2, 2}, nullptr,
                      IntersectKernel::kMergeShortCircuit,
                      /*speculate=*/false);
    const std::string where = "first=" + std::to_string(first) +
                              " second=" + std::to_string(second);
    EXPECT_EQ(output.run_report.crashed(), 2u) << where;
    EXPECT_GT(output.phase_seconds.count("recovery"), 0u) << where;
    EXPECT_TRUE(same_itemsets(output.result, reference)) << where;
  }
}

TEST(FaultInjection, CrashDuringRecoveryAtEveryReplicationLevel) {
  const HorizontalDatabase db = test_db();
  const MiningResult reference = reference_result(db);
  for (const std::size_t replication : {std::size_t{1}, std::size_t{2},
                                        std::size_t{0}}) {
    mc::FaultPlan plan;
    plan.events.push_back(
        mc::FaultPlan::crash_at_point(2, "class-checkpointed"));
    plan.events.push_back(
        mc::FaultPlan::crash(3, mc::FaultOp::kAllGather, "recovery"));
    const ParallelOutput output =
        run_with_plan(db, plan, {2, 2}, nullptr,
                      IntersectKernel::kMergeShortCircuit,
                      /*speculate=*/false, replication);
    const std::string where = "R=" + std::to_string(replication);
    EXPECT_EQ(output.run_report.crashed(), 2u) << where;
    EXPECT_TRUE(same_itemsets(output.result, reference)) << where;
  }
}

// --- Partition + crash compound: epoch fencing keeps commits safe. ---

TEST(FaultInjection, PartitionPlusCrashCompound) {
  const HorizontalDatabase db = test_db();
  const MiningResult reference = reference_result(db);
  mc::FaultPlan plan;
  plan.events.push_back(mc::FaultPlan::partition({1}, 0.0, 1e9));
  plan.events.push_back(
      mc::FaultPlan::crash(3, mc::FaultOp::kAllGather, "reduction"));
  const ParallelOutput output = run_with_plan(db, plan);
  EXPECT_EQ(output.run_report.outcomes[1],
            mc::ProcessorOutcome::kPartitioned);
  EXPECT_EQ(output.run_report.outcomes[3], mc::ProcessorOutcome::kCrashed);
  EXPECT_TRUE(same_itemsets(output.result, reference));
}

}  // namespace
}  // namespace eclat::par
