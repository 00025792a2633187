// Lease-based straggler detection end to end: the LeaseBoard's
// virtual-time visibility semantics (unit level), and Parallel Eclat under
// silent hangs, hang-then-resume stragglers and persistent disk stalls —
// every schedule must terminate, produce output identical to the
// fault-free sequential reference, and replay bit-identically for one
// (plan, seed).
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "eclat/eclat_seq.hpp"
#include "mc/fault.hpp"
#include "mc/lease.hpp"
#include "mc/trace.hpp"
#include "parallel/par_eclat.hpp"
#include "test_util.hpp"

namespace eclat::par {
namespace {

using testutil::same_itemsets;
using testutil::small_quest_db;

constexpr Count kMinsup = 6;
constexpr double kInf = std::numeric_limits<double>::infinity();

// --- LeaseBoard unit semantics (single observer; the peer is marked done
// so view_at never waits). ---

mc::LeasePolicy unit_policy(double duration = 1.0) {
  mc::LeasePolicy policy;
  policy.lease_duration = duration;
  policy.speculation_threshold = 1.0;
  return policy;
}

TEST(LeaseBoard, LeaseExpiresAtAcquisitionPlusHorizon) {
  mc::LeaseBoard board(2);
  board.mark_done(1, 0.0);
  board.acquire(0, 7, 0.0);

  mc::LeaseView early = board.view_at(0, 0.5, unit_policy());
  EXPECT_TRUE(early.expired.empty());
  EXPECT_DOUBLE_EQ(early.next_expiry, 1.0);

  mc::LeaseView late = board.view_at(0, 1.0, unit_policy());
  ASSERT_EQ(late.expired.size(), 1u);
  EXPECT_EQ(late.expired[0].task, 7u);
  EXPECT_EQ(late.expired[0].holder, 0u);
  EXPECT_DOUBLE_EQ(late.expired[0].expiry, 1.0);
  EXPECT_EQ(late.next_expiry, kInf);
}

TEST(LeaseBoard, RenewalPushesExpiryOut) {
  mc::LeaseBoard board(2);
  board.mark_done(1, 0.0);
  board.acquire(0, 3, 0.0);
  board.renew_all(0, 0.6);

  mc::LeaseView mid = board.view_at(0, 1.2, unit_policy());
  EXPECT_TRUE(mid.expired.empty());
  EXPECT_DOUBLE_EQ(mid.next_expiry, 1.6);

  mc::LeaseView late = board.view_at(0, 1.6, unit_policy());
  ASSERT_EQ(late.expired.size(), 1u);
  EXPECT_DOUBLE_EQ(late.expired[0].renewed, 0.6);
}

TEST(LeaseBoard, ReleasedLeaseNeverExpires) {
  mc::LeaseBoard board(2);
  board.mark_done(1, 0.0);
  board.acquire(0, 3, 0.0);
  board.release(0, 3, 0.5);
  const mc::LeaseView view = board.view_at(0, 5.0, unit_policy());
  EXPECT_TRUE(view.expired.empty());
  EXPECT_EQ(view.next_expiry, kInf);
}

TEST(LeaseBoard, CommitIsPermanentAndVisible) {
  mc::LeaseBoard board(2);
  board.mark_done(1, 0.4);
  board.acquire(0, 3, 0.0);
  board.commit(1, 3, 0.4);  // the backup committed; owner lease outstanding
  const mc::LeaseView view = board.view_at(0, 2.0, unit_policy());
  EXPECT_TRUE(view.is_committed(3));
  EXPECT_FALSE(view.is_committed(4));
  // The owner's lease still expired — committed tasks are simply skipped
  // by speculators, which is what lets the owner detect the migration.
  ASSERT_EQ(view.expired.size(), 1u);
}

TEST(LeaseBoard, ClaimShadowsOnlyWhileClaimantLives) {
  mc::LeaseBoard board(2);
  board.claim(1, 9, 0.5);
  board.mark_terminal(1, 0.8);  // crashed mid-work, never declared done
  EXPECT_TRUE(board.view_at(0, 0.7, unit_policy()).is_claimed(9));
  // A claim dated at the view time by a higher id does not precede
  // (time, observer) = (0.5, 0), so it does not shadow.
  EXPECT_FALSE(board.view_at(0, 0.5, unit_policy()).is_claimed(9));
  // Once the claimant is terminal the claim stops shadowing: someone else
  // must be able to take the task over.
  EXPECT_FALSE(board.view_at(0, 1.0, unit_policy()).is_claimed(9));
}

TEST(LeaseBoard, DoneClaimantKeepsShadowingAfterTerminal) {
  mc::LeaseBoard board(2);
  board.mark_done(1, 0.5);
  board.claim(1, 9, 0.5);
  EXPECT_TRUE(board.view_at(0, 1.0, unit_policy()).is_claimed(9));
  // Death after done (a partition cut or hang at the next collective)
  // publishes its terminal fact outside the window the release condition
  // can order against — done_ may have released this observer before the
  // terminal landed. The claim keeps shadowing so the view stays a pure
  // function of virtual time; the class is re-mined by the post-gather
  // recovery rounds, never by a racing backup.
  board.mark_terminal(1, 0.8);
  EXPECT_TRUE(board.view_at(0, 1.0, unit_policy()).is_claimed(9));
}

TEST(LeaseBoard, SuspectsAreTimestampedFacts) {
  mc::LeaseBoard board(2);
  board.mark_done(1, 0.0);
  board.mark_suspect(1, 0, 0.5);
  EXPECT_TRUE(board.view_at(0, 0.4, unit_policy()).suspects.empty());
  EXPECT_EQ(board.view_at(0, 0.5, unit_policy()).suspects,
            std::vector<std::size_t>{1});
}

TEST(LeaseBoard, ViewWaitsForLaggardPublication) {
  // view_at(0, T) must not answer before processor 1 has provably passed
  // T — the wait is real time, the answer is virtual time.
  mc::LeaseBoard board(2);
  board.acquire(1, 4, 0.0);
  std::thread laggard([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    board.touch(1, 6.0);
    board.mark_done(1, 6.0);
  });
  const mc::LeaseView view = board.view_at(0, 5.0, unit_policy());
  laggard.join();
  // By the time the view is answered the laggard published 6.0 > 5.0, so
  // its lease (never renewed since 0.0) is visibly expired at T=5.
  ASSERT_EQ(view.expired.size(), 1u);
  EXPECT_EQ(view.expired[0].holder, 1u);
}

TEST(LeaseBoard, SimultaneousObserversDoNotDeadlock) {
  // Two observers at the same instant: the id tie-break releases the
  // lower id first; the higher unblocks when the lower moves on.
  mc::LeaseBoard board(2);
  std::thread high([&] {
    (void)board.view_at(1, 1.0, unit_policy());
    board.mark_done(1, 1.0);
  });
  (void)board.view_at(0, 1.0, unit_policy());
  board.touch(0, 2.0);
  high.join();
}

// --- End-to-end: Parallel Eclat under hangs and stalls. ---

HorizontalDatabase test_db() { return small_quest_db(400, 30, 17); }

MiningResult reference_result(const HorizontalDatabase& db) {
  EclatConfig sequential;
  sequential.minsup = kMinsup;
  return eclat_sequential(db, sequential);
}

mc::CostModel modeled_time_only() {
  mc::CostModel cost;
  cost.cpu_scale = 0.0;
  return cost;
}

ParallelOutput run_with_plan(const HorizontalDatabase& db,
                             const mc::FaultPlan& plan, bool speculate,
                             mc::Trace* trace = nullptr,
                             const mc::Topology& topology = {2, 2},
                             double lease_duration = 0.25) {
  mc::Cluster cluster(topology, modeled_time_only());
  cluster.set_fault_plan(plan);
  if (trace != nullptr) cluster.set_trace(trace);
  ParEclatConfig config;
  config.minsup = kMinsup;
  config.lease.speculate = speculate;
  config.lease.lease_duration = lease_duration;
  return par_eclat(cluster, db, config);
}

std::size_t count_events(const mc::Trace& trace, mc::TraceKind kind,
                         const std::string& label) {
  std::size_t n = 0;
  for (const mc::TraceEvent& event : trace.sorted()) {
    if (event.kind == kind && event.label.rfind(label, 0) == 0) ++n;
  }
  return n;
}

struct HangSite {
  const char* name;
  mc::FaultEvent (*make)(std::size_t victim);
};

// A silent stop at every fault-probe site the pipeline has. Before the
// lease layer these were unrepresentable: a processor that stops without
// crashing leaves its peers blocked at the next barrier forever.
const HangSite kHangSites[] = {
    {"init-scan",
     [](std::size_t v) {
       return mc::FaultPlan::hang(v, mc::FaultOp::kDiskRead,
                                  "initialization");
     }},
    {"init-reduce",
     [](std::size_t v) {
       return mc::FaultPlan::hang(v, mc::FaultOp::kSumReduce,
                                  "initialization");
     }},
    {"transform-plan",
     [](std::size_t v) {
       return mc::FaultPlan::hang(v, mc::FaultOp::kCompute,
                                  "transformation");
     }},
    {"transform-exchange",
     [](std::size_t v) {
       return mc::FaultPlan::hang(v, mc::FaultOp::kAllToAll,
                                  "transformation");
     }},
    {"transform-commit",
     [](std::size_t v) {
       return mc::FaultPlan::hang(v, mc::FaultOp::kBarrier,
                                  "transformation");
     }},
    {"class-checkpointed",
     [](std::size_t v) {
       return mc::FaultPlan::hang_at_point(v, "class-checkpointed");
     }},
    {"final-gather",
     [](std::size_t v) {
       return mc::FaultPlan::hang(v, mc::FaultOp::kAllGather, "reduction");
     }},
};

TEST(Lease, HangAnyProcessorAnySiteOutputUnchanged) {
  const HorizontalDatabase db = test_db();
  const MiningResult reference = reference_result(db);
  const mc::Topology topology{2, 2};

  for (const bool speculate : {true, false}) {
    for (const HangSite& site : kHangSites) {
      for (std::size_t victim = 0; victim < topology.total(); ++victim) {
        mc::FaultPlan plan;
        plan.events.push_back(site.make(victim));
        const ParallelOutput output =
            run_with_plan(db, plan, speculate, nullptr, topology);
        const std::string where = std::string(site.name) +
                                  " victim=" + std::to_string(victim) +
                                  " speculate=" + std::to_string(speculate);
        ASSERT_EQ(output.run_report.outcomes.size(), topology.total());
        EXPECT_EQ(output.run_report.outcomes[victim],
                  mc::ProcessorOutcome::kHung)
            << where;
        EXPECT_TRUE(same_itemsets(output.result, reference)) << where;
      }
    }
  }
}

TEST(Lease, HangDuringMiningIsCoveredBySpeculationNotRecovery) {
  const HorizontalDatabase db = test_db();
  const MiningResult reference = reference_result(db);

  mc::Trace trace;
  mc::FaultPlan plan;
  plan.events.push_back(mc::FaultPlan::hang_at_point(1, "class-checkpointed"));
  const ParallelOutput output = run_with_plan(db, plan, true, &trace);

  EXPECT_EQ(output.run_report.outcomes[1], mc::ProcessorOutcome::kHung);
  EXPECT_TRUE(same_itemsets(output.result, reference));
  // Survivors re-mined the hung owner's classes during the asynchronous
  // phase; the post-gather recovery round had nothing left to do.
  EXPECT_EQ(output.phase_seconds.count("recovery"), 0u);
  EXPECT_GE(count_events(trace, mc::TraceKind::kMark, "class-speculated"),
            1u);
}

TEST(Lease, HangThenResumeRacesItsBackupsHarmlessly) {
  // A bounded hang (20x the lease duration) at the first checkpoint: the
  // owner goes silent, backups take over its classes, then the owner
  // wakes and finds its remaining work migrated away. First-writer-wins
  // commits make any overlap invisible in the output.
  const HorizontalDatabase db = test_db();
  const MiningResult reference = reference_result(db);

  std::size_t victims_with_remaining_classes = 0;
  for (std::size_t victim = 0; victim < 4; ++victim) {
    mc::Trace trace;
    mc::FaultPlan plan;
    plan.events.push_back(
        mc::FaultPlan::hang_at_point(victim, "class-checkpointed",
                                     /*after_calls=*/0, /*duration=*/5.0));
    const ParallelOutput output = run_with_plan(db, plan, true, &trace);
    const std::string where = "victim=" + std::to_string(victim);

    // The victim resumes and finishes: nobody crashed, nobody hung.
    EXPECT_TRUE(output.run_report.all_finished()) << where;
    EXPECT_TRUE(same_itemsets(output.result, reference)) << where;
    if (count_events(trace, mc::TraceKind::kMark, "class-speculated") > 0) {
      ++victims_with_remaining_classes;
      // Work the backups committed is skipped (migrated) by the resumed
      // owner, not mined twice by it.
      EXPECT_GE(count_events(trace, mc::TraceKind::kMark, "class-migrated"),
                1u)
          << where;
    }
  }
  // The workload has enough classes that at least one victim had work
  // outstanding when it hung.
  EXPECT_GE(victims_with_remaining_classes, 1u);
}

TEST(Lease, SpeculationShortensDiskStallStragglerMakespan) {
  // The acceptance scenario: one processor's disk runs 10x slow through
  // the asynchronous phase. Without speculation the makespan is bounded
  // by the straggler; with it, idle survivors take over the straggler's
  // classes (each class carries its own stalled read, so migrating the
  // class removes the cost, not just hides it).
  const HorizontalDatabase db = test_db();
  const MiningResult reference = reference_result(db);

  mc::FaultPlan plan;
  plan.events.push_back(
      mc::FaultPlan::disk_stall(2, 10.0, "asynchronous", true));

  // The lease duration must sit between a healthy inter-checkpoint gap
  // and a stalled one for the detector to see the straggler — policy is
  // workload-relative, like any failure-detector timeout.
  constexpr double kLease = 0.01;
  const ParallelOutput off = run_with_plan(db, plan, false, nullptr, {2, 2},
                                           kLease);
  const ParallelOutput on = run_with_plan(db, plan, true, nullptr, {2, 2},
                                          kLease);

  EXPECT_TRUE(off.run_report.all_finished());
  EXPECT_TRUE(on.run_report.all_finished());
  EXPECT_TRUE(same_itemsets(off.result, reference));
  EXPECT_TRUE(same_itemsets(on.result, reference));
  EXPECT_LT(on.total_seconds, off.total_seconds);
}

TEST(Lease, OutputIdenticalAcrossSpeculationOnOffAndFaultFree) {
  const HorizontalDatabase db = test_db();

  mc::FaultPlan stall;
  stall.events.push_back(
      mc::FaultPlan::disk_stall(0, 25.0, "asynchronous", true));
  mc::FaultPlan hang;
  hang.events.push_back(mc::FaultPlan::hang_at_point(3, "class-checkpointed"));

  const ParallelOutput baseline = run_with_plan(db, {}, false);
  const ParallelOutput runs[] = {
      run_with_plan(db, {}, true),     run_with_plan(db, stall, false),
      run_with_plan(db, stall, true),  run_with_plan(db, hang, false),
      run_with_plan(db, hang, true),
  };
  for (std::size_t i = 0; i < std::size(runs); ++i) {
    EXPECT_TRUE(same_itemsets(runs[i].result, baseline.result)) << i;
  }
}

TEST(Lease, SamePlanSameSeedReplaysBitIdentically) {
  const HorizontalDatabase db = test_db();
  mc::FaultPlan plan;
  plan.seed = 0xFEED;
  plan.events.push_back(
      mc::FaultPlan::hang_at_point(1, "class-checkpointed"));
  plan.events.push_back(
      mc::FaultPlan::disk_stall(3, 10.0, "asynchronous", true));

  mc::Trace trace_a, trace_b;
  const ParallelOutput a = run_with_plan(db, plan, true, &trace_a);
  const ParallelOutput b = run_with_plan(db, plan, true, &trace_b);

  EXPECT_EQ(a.total_seconds, b.total_seconds);  // bit-identical, cpu_scale=0
  EXPECT_TRUE(same_itemsets(a.result, b.result));
  EXPECT_EQ(a.run_report.outcomes, b.run_report.outcomes);
  // The speculation schedule itself — who backed up what, what migrated —
  // replays exactly, not just the final output.
  for (const char* label : {"class-speculated", "class-migrated"}) {
    EXPECT_EQ(count_events(trace_a, mc::TraceKind::kMark, label),
              count_events(trace_b, mc::TraceKind::kMark, label))
        << label;
  }
  EXPECT_EQ(count_events(trace_a, mc::TraceKind::kFault, "hang"),
            count_events(trace_b, mc::TraceKind::kFault, "hang"));
}

TEST(Lease, RetransmissionExhaustionEscalatesToSuspicion) {
  // Every copy of one link's exchange payload arrives corrupted: original
  // delivery plus all four retransmissions. The receiver must give up,
  // suspect the sender, and surface the abandoned transfer as its typed
  // error — not retry forever.
  const HorizontalDatabase db = test_db();
  mc::Trace trace;
  mc::FaultPlan plan;
  for (std::size_t attempt = 0; attempt <= 4; ++attempt) {
    plan.events.push_back(mc::FaultPlan::corrupt_message(1, 0, attempt));
  }
  mc::Cluster cluster(mc::Topology{2, 2}, modeled_time_only());
  cluster.set_fault_plan(plan);
  cluster.set_trace(&trace);
  ParEclatConfig config;
  config.minsup = kMinsup;
  EXPECT_THROW((void)par_eclat(cluster, db, config), TransferAbandoned);
  EXPECT_EQ(cluster.last_run_report().outcomes[1],
            mc::ProcessorOutcome::kAborted);
  EXPECT_GE(count_events(trace, mc::TraceKind::kFault, "suspect"), 1u);
  EXPECT_EQ(count_events(trace, mc::TraceKind::kFault, "retransmit"), 4u);
}

TEST(Lease, BoundedRetransmissionRepairsTransientCorruption) {
  // Two corrupted copies, then a clean third: the backoff loop absorbs it
  // with no suspicion and the output is untouched.
  const HorizontalDatabase db = test_db();
  const MiningResult reference = reference_result(db);
  mc::Trace trace;
  mc::FaultPlan plan;
  plan.events.push_back(mc::FaultPlan::corrupt_message(1, 0, 0));
  plan.events.push_back(mc::FaultPlan::corrupt_message(1, 0, 1));
  const ParallelOutput output = run_with_plan(db, plan, true, &trace);
  EXPECT_TRUE(output.run_report.all_finished());
  EXPECT_TRUE(same_itemsets(output.result, reference));
  EXPECT_EQ(count_events(trace, mc::TraceKind::kFault, "retransmit"), 2u);
  EXPECT_EQ(count_events(trace, mc::TraceKind::kFault, "suspect"), 0u);
}

}  // namespace
}  // namespace eclat::par
