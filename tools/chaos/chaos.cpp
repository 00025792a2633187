#include "chaos.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/parse.hpp"
#include "common/rng.hpp"
#include "data/result_io.hpp"
#include "exec/thread_backend.hpp"
#include "gen/quest.hpp"
#include "mc/cluster.hpp"

namespace eclat::chaos {

namespace {

using mc::FaultEvent;
using mc::FaultKind;
using mc::FaultOp;
using mc::FaultPlan;

// Sites the generator aims faults at. Op/phase combinations that never
// occur in the pipeline simply never fire — a harmless no-op event.
constexpr FaultOp kSiteOps[] = {
    FaultOp::kCompute,  FaultOp::kDiskRead, FaultOp::kDiskWrite,
    FaultOp::kBarrier,  FaultOp::kSumReduce, FaultOp::kAllToAll,
    FaultOp::kAllGather, FaultOp::kPoint,
};

constexpr const char* kPhases[] = {
    "", "initialization", "transformation", "asynchronous", "reduction",
};

}  // namespace

mc::FaultPlan generate_plan(std::uint64_t seed, const ChaosKnobs& knobs) {
  Rng rng(seed ^ 0xC4A05C4A05C4A05CULL);
  const std::size_t total = knobs.total_processors;
  FaultPlan plan;
  plan.seed = seed;

  std::vector<FaultKind> kinds;
  if (knobs.crashes) kinds.push_back(FaultKind::kCrash);
  if (knobs.hangs) kinds.push_back(FaultKind::kHang);
  if (knobs.stalls) kinds.push_back(FaultKind::kDiskStall);
  if (knobs.corruptions) kinds.push_back(FaultKind::kCorruptMessage);
  if (knobs.hub_degrades) kinds.push_back(FaultKind::kHubDegrade);
  if (knobs.partitions) kinds.push_back(FaultKind::kPartition);
  if (kinds.empty() || total < 2) return plan;

  const double hint = knobs.makespan_hint > 0 ? knobs.makespan_hint : 1.0;
  const std::size_t span = knobs.max_events >= knobs.min_events
                               ? knobs.max_events - knobs.min_events + 1
                               : 1;
  const std::size_t count = knobs.min_events + rng.below(span);

  std::set<std::string> used_triggers;
  for (std::size_t i = 0; i < count; ++i) {
    const FaultKind kind = kinds[rng.below(kinds.size())];
    FaultEvent event;
    switch (kind) {
      case FaultKind::kCrash:
      case FaultKind::kHang: {
        const std::size_t proc = rng.below(total);
        const bool timed = rng.below(4) == 0;
        if (timed) {
          event = kind == FaultKind::kCrash
                      ? FaultPlan::crash_at_time(proc, rng.uniform(0.0, hint))
                      : FaultPlan::hang_at_time(proc, rng.uniform(0.0, hint));
        } else {
          const FaultOp op = kSiteOps[rng.below(std::size(kSiteOps))];
          const std::string phase =
              op == FaultOp::kPoint ? "" : kPhases[rng.below(std::size(kPhases))];
          const std::string label =
              op == FaultOp::kPoint ? "class-checkpointed" : "";
          const std::size_t after = rng.below(3);
          event = kind == FaultKind::kCrash
                      ? FaultPlan::crash(proc, op, phase, after)
                      : FaultPlan::hang(proc, op, phase, after);
          event.label = label;
        }
        if (kind == FaultKind::kHang && rng.below(2) == 0) {
          event.duration = rng.uniform(0.0, 0.5 * hint);  // hang-then-resume
        }
        break;
      }
      case FaultKind::kDiskStall: {
        event = FaultPlan::disk_stall(rng.below(total),
                                      rng.uniform(2.0, 12.0),
                                      kPhases[rng.below(std::size(kPhases))],
                                      rng.below(2) == 0);
        break;
      }
      case FaultKind::kCorruptMessage: {
        // Explicit dst *and* src so retransmission re-probes stay
        // deterministic (see FaultInjector's thread-safety contract).
        const std::size_t dst = rng.below(total);
        const std::size_t src = (dst + 1 + rng.below(total - 1)) % total;
        event = FaultPlan::corrupt_message(
            dst, src, rng.below(2),
            static_cast<double>(1 + rng.below(16)));
        break;
      }
      case FaultKind::kHubDegrade: {
        event = FaultPlan::hub_degrade(rng.uniform(2.0, 8.0),
                                       rng.uniform(0.0, hint),
                                       rng.uniform(0.05 * hint, 0.3 * hint));
        break;
      }
      case FaultKind::kPartition: {
        const std::size_t side = 1 + rng.below(total - 1);
        std::vector<std::size_t> order(total);
        for (std::size_t p = 0; p < total; ++p) order[p] = p;
        for (std::size_t p = total; p > 1; --p) {
          std::swap(order[p - 1], order[rng.below(p)]);
        }
        std::vector<std::size_t> members(order.begin(), order.begin() + side);
        std::sort(members.begin(), members.end());
        event = FaultPlan::partition(std::move(members),
                                     rng.uniform(0.0, hint),
                                     rng.uniform(0.05 * hint, 0.5 * hint));
        break;
      }
    }

    // Keep count-triggered events off each other's single-owner trigger
    // counters (validate_plan would reject the ambiguity): bump
    // after_calls until the signature is free, dropping the event if a
    // few bumps cannot free it.
    if (event.at_time < 0 && event.kind != FaultKind::kHubDegrade) {
      bool placed = false;
      for (std::size_t bump = 0; bump < 8; ++bump) {
        if (used_triggers.insert(mc::trigger_signature(event)).second) {
          placed = true;
          break;
        }
        ++event.after_calls;
      }
      if (!placed) continue;
    }
    plan.events.push_back(std::move(event));
  }

  // The generator's construction rules mirror validate_plan; make the
  // mirror impossible to break silently.
  mc::validate_plan(plan, total);
  return plan;
}

std::string plan_to_text(const mc::FaultPlan& plan) {
  std::ostringstream out;
  out << "seed " << plan.seed << "\n";
  for (const FaultEvent& e : plan.events) {
    out << "event kind=" << mc::to_string(e.kind)
        << " processor=" << e.processor << " peer=" << e.peer
        << " op=" << mc::to_string(e.op) << " phase=" << e.phase
        << " label=" << e.label << " after_calls=" << e.after_calls;
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), " at_time=%.17g", e.at_time);
    out << buffer;
    std::snprintf(buffer, sizeof(buffer), " severity=%.17g", e.severity);
    out << buffer;
    out << " persistent=" << (e.persistent ? 1 : 0);
    std::snprintf(buffer, sizeof(buffer), " duration=%.17g", e.duration);
    out << buffer;
    out << " members=";
    for (std::size_t i = 0; i < e.members.size(); ++i) {
      if (i > 0) out << ',';
      out << e.members[i];
    }
    out << "\n";
  }
  return out.str();
}

mc::FaultPlan plan_from_text(const std::string& text) {
  FaultPlan plan;
  plan.seed = read_plan_text(
      text, "chaos plan", "", [&] { plan.events.emplace_back(); },
      [&](const PlanField& field) {
        FaultEvent& event = plan.events.back();
        if (field.key == "kind") {
          field.name(event.kind,
                     {FaultKind::kCrash, FaultKind::kDiskStall,
                      FaultKind::kHang, FaultKind::kCorruptMessage,
                      FaultKind::kHubDegrade, FaultKind::kPartition});
        } else if (field.key == "processor") {
          field.number(event.processor);
        } else if (field.key == "peer") {
          field.number(event.peer);
        } else if (field.key == "op") {
          field.name(event.op,
                     {FaultOp::kAny, FaultOp::kCompute, FaultOp::kDiskRead,
                      FaultOp::kDiskWrite, FaultOp::kBarrier,
                      FaultOp::kSumReduce, FaultOp::kBroadcast,
                      FaultOp::kAllToAll, FaultOp::kAllGather,
                      FaultOp::kPoint});
        } else if (field.key == "phase") {
          event.phase = field.value;
        } else if (field.key == "label") {
          event.label = field.value;
        } else if (field.key == "after_calls") {
          field.number(event.after_calls);
        } else if (field.key == "at_time") {
          field.number(event.at_time);
        } else if (field.key == "severity") {
          field.number(event.severity);
        } else if (field.key == "persistent") {
          if (field.value != "0" && field.value != "1") field.reject();
          event.persistent = field.value == "1";
        } else if (field.key == "duration") {
          field.number(event.duration);
        } else if (field.key == "members") {
          event.members.clear();
          std::istringstream list{std::string(field.value)};
          std::string member;
          while (std::getline(list, member, ',')) {
            if (!member.empty()) {
              field.number(member, event.members.emplace_back());
            }
          }
        } else {
          return false;
        }
        return true;
      });
  return plan;
}

namespace {

/// Diagnostics a compound schedule may legitimately end a run with. Any
/// other exception out of the pipeline is an invariant violation the
/// sweep must surface.
bool is_expected_abort(const std::string& error) {
  return error.find("sender suspected") != std::string::npos ||
         error == "no survivors";
}

}  // namespace

ChaosRun run_plan(const HorizontalDatabase& db, const mc::FaultPlan& plan,
                  const ChaosOptions& options, mc::Trace* trace) {
  ChaosRun out;
  // Modeled time only: with cpu_scale != 0 the cluster folds measured
  // host-CPU time into virtual clocks and replays stop being exact.
  mc::CostModel cost;
  cost.cpu_scale = 0.0;
  mc::Cluster cluster(options.topology, cost);
  cluster.set_fault_plan(plan);
  if (trace != nullptr) cluster.set_trace(trace);
  par::ParEclatConfig config;
  config.minsup = options.minsup;
  config.replication = options.replication;
  config.lease.speculate = options.speculate;

  auto fold_report = [&](const mc::RunReport& report) {
    for (const mc::ProcessorOutcome outcome : report.outcomes) {
      switch (outcome) {
        case mc::ProcessorOutcome::kFinished: ++out.finished; break;
        case mc::ProcessorOutcome::kCrashed: ++out.crashed; break;
        case mc::ProcessorOutcome::kHung: ++out.hung; break;
        case mc::ProcessorOutcome::kPartitioned: ++out.partitioned; break;
        case mc::ProcessorOutcome::kAborted: break;
      }
    }
  };

  try {
    const par::ParallelOutput output = par::par_eclat(cluster, db, config);
    fold_report(output.run_report);
    out.makespan = output.total_seconds;
    out.lineage_rebuilds = output.lineage_rebuilds;
    out.fenced_rejections = output.fenced_rejections;
    out.image_bytes = output.image_bytes;
    out.replica_copies = output.replica_copies;
    if (out.finished > 0) {
      out.completed = true;
      out.result_bytes = result_to_bytes(output.result);
    } else {
      out.clean_abort = true;
      out.error = "no survivors";
    }
  } catch (const std::exception& e) {
    out.error = e.what();
    out.makespan = cluster.makespan();
    fold_report(cluster.last_run_report());
    out.clean_abort = is_expected_abort(out.error);
  }
  return out;
}

exec::ExecFaultPlan generate_exec_plan(std::uint64_t seed,
                                       const ExecChaosKnobs& knobs) {
  // Distinct stream constant from generate_plan: the same sweep seed
  // drives independent mc and exec schedules.
  Rng rng(seed ^ 0xE7ECFA017E7ECFAULL);
  exec::ExecFaultPlan plan;
  plan.seed = seed;

  std::vector<exec::ExecFaultKind> kinds;
  if (knobs.throws) kinds.push_back(exec::ExecFaultKind::kThrow);
  if (knobs.corrupts) kinds.push_back(exec::ExecFaultKind::kCorrupt);
  if (kinds.empty()) return plan;

  const std::size_t span = knobs.max_events >= knobs.min_events
                               ? knobs.max_events - knobs.min_events + 1
                               : 1;
  const std::size_t count = knobs.min_events + rng.below(span);
  const std::uint32_t max_times = knobs.max_times > 0 ? knobs.max_times : 1;
  for (std::size_t i = 0; i < count; ++i) {
    const exec::ExecFaultKind kind = kinds[rng.below(kinds.size())];
    const std::uint32_t times =
        1 + static_cast<std::uint32_t>(rng.below(max_times));
    if (rng.below(4) == 0) {
      // Explicit low class id: a harmless no-op when the database has
      // fewer classes, like an mc fault site the pipeline never visits.
      exec::ExecFaultEvent event;
      event.kind = kind;
      event.class_id = rng.below(6);
      event.times = times;
      plan.events.push_back(event);
    } else {
      // Hash selector: generalizes over any class count, hits ~1/mod of
      // the classes — the workhorse of generated schedules.
      const std::uint64_t mod = 2 + rng.below(9);
      plan.events.push_back(
          exec::ExecFaultPlan::hashed(kind, mod, rng.below(mod), times));
    }
  }

  // The generator's construction rules mirror validate_exec_plan; make
  // the mirror impossible to break silently.
  exec::validate_exec_plan(plan);
  return plan;
}

ExecChaosRun run_exec_plan(const HorizontalDatabase& db,
                           const exec::ExecFaultPlan& plan,
                           const ExecChaosOptions& options) {
  ExecChaosRun out;
  exec::ThreadBackendOptions backend_options;
  backend_options.threads = options.threads;
  backend_options.scheduler = options.scheduler;
  backend_options.max_retries = options.max_retries;
  backend_options.mem_budget = options.mem_budget;
  backend_options.faults = plan;
  exec::ThreadBackend backend(backend_options);
  par::ParEclatConfig config;
  config.minsup = options.minsup;
  try {
    const par::ParallelOutput output = backend.mine(db, config);
    out.completed = true;
    out.failures = output.exec_task_failures;
    out.retries = output.exec_task_retries;
    out.result_bytes = result_to_bytes(output.result);
  } catch (const exec::ExecClassQuarantined& e) {
    // The one *expected* abort of a threads run: a class exceeded its
    // retry budget. Anything else escaping is an invariant violation.
    out.clean_abort = true;
    out.error = e.what();
    out.failures = e.failures();
    out.retries = e.retries();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

HorizontalDatabase chaos_database(std::uint64_t seed,
                                  std::size_t transactions) {
  gen::QuestConfig config;
  config.num_transactions = transactions;
  config.num_items = 40;     // small alphabet => several multi-pair classes
  config.num_patterns = 12;
  config.avg_transaction_length = 8.0;
  config.avg_pattern_length = 4.0;
  config.seed = seed;
  return gen::QuestGenerator(config).generate();
}

}  // namespace eclat::chaos
