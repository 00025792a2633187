// chaos: seeded compound-fault sweeps over the Par-Eclat pipeline.
//
//   chaos --sweep=200 --seed0=1            # 200 random compound schedules
//   chaos --seed=42 --print-plan           # one schedule, dump its text form
//   chaos --plan-file=fail.plan            # replay every plan in a file
//   chaos --sweep=500 --fail-file=bad.plan # save violating plans to a file
//   chaos --backend=threads --sweep=200    # exec fault plans on real threads
//   chaos --backend=both --sweep=200       # both legs, one seed list
//
// --backend selects the leg: "mc" (default) sweeps compound cluster
// schedules on the virtual-time simulator; "threads" sweeps seeded
// ExecFaultPlans (injected throws and corrupt results) on the native
// thread backend, rotating the worker count per seed unless pinned with
// --exec-threads; "both" runs the two legs off one seed list. The legs
// draw their plans from distinct RNG streams, so a seed's two outcomes
// share no cause and are not compared with each other. --plan-file
// replays each plan of its file on the leg its seed line names ("seed"
// mc, "exec-seed" threads), whatever --backend says.
//
// Every run is checked against the harness contract: byte-identical output
// to the fault-free reference, or a deterministic expected clean abort —
// and a second execution of the same plan must reproduce the first, with
// or without --exec-mem-budget.
// Exit status 0 = every run honored the contract; 1 = at least one
// violation (the offending plan is printed in replayable text form), or
// a malformed flag value (named on stderr).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "chaos.hpp"
#include "common/flags.hpp"
#include "common/parse.hpp"
#include "data/result_io.hpp"

namespace {

using namespace eclat;

struct Violation {
  std::uint64_t seed;
  std::string backend;
  std::string what;
};

/// The whole command. Flag values are parsed as they are first needed, so
/// a malformed one throws std::invalid_argument from here; main turns that
/// into a diagnostic.
int run_chaos(int argc, char** argv) {
  const Flags flags(argc, argv);
  // A count flag given bare ("--sweep", "--trace-diff") takes its
  // default count.
  const auto count_flag = [&](const std::string& name,
                              std::uint64_t fallback) {
    return flags.get(name, "") == "true" ? fallback
                                         : flags.get_uint(name, fallback);
  };

  const std::string backend = flags.get("backend", "mc");
  if (backend != "mc" && backend != "threads" && backend != "both") {
    std::fprintf(stderr,
                 "chaos: unknown --backend '%s' (expected 'mc', 'threads' "
                 "or 'both')\n",
                 backend.c_str());
    return 1;
  }
  bool run_mc_leg = backend != "threads";
  bool run_exec_leg = backend != "mc";

  chaos::ChaosOptions options;
  options.topology = {flags.get_uint("procs", 2), flags.get_uint("hosts", 2)};
  // A support counts transactions, whose ids are 32-bit.
  options.minsup = flags.get_uint<std::uint32_t>("minsup", 2);
  options.replication = flags.get_uint("replication", 0);
  options.speculate = flags.get_bool("speculate", true);

  const HorizontalDatabase db = chaos::chaos_database(
      flags.get_uint("db-seed", 1997), flags.get_uint("transactions", 200));

  // Fault-free reference: the bytes every completed chaos run must match
  // — on either backend, which *is* the cross-backend determinism
  // contract — and the makespan that scales the generated mc windows.
  const chaos::ChaosRun reference = chaos::run_plan(db, {}, options);
  if (!reference.completed) {
    std::fprintf(stderr, "chaos: fault-free reference run failed: %s\n",
                 reference.error.c_str());
    return 1;
  }

  chaos::ChaosKnobs knobs;
  knobs.total_processors = options.topology.total();
  knobs.min_events = flags.get_uint("min-events", 1);
  knobs.max_events = flags.get_uint("max-events", 5);
  knobs.makespan_hint = reference.makespan;
  knobs.crashes = flags.get_bool("crashes", true);
  knobs.hangs = flags.get_bool("hangs", true);
  knobs.stalls = flags.get_bool("stalls", true);
  knobs.corruptions = flags.get_bool("corruptions", true);
  knobs.hub_degrades = flags.get_bool("hub-degrades", true);
  knobs.partitions = flags.get_bool("partitions", true);

  chaos::ExecChaosKnobs exec_knobs;
  exec_knobs.min_events = flags.get_uint("min-events", 1);
  exec_knobs.max_events = flags.get_uint("max-events", 4);
  exec_knobs.throws = flags.get_bool("exec-throws", true);
  exec_knobs.corrupts = flags.get_bool("exec-corrupts", true);
  exec_knobs.max_times = flags.get_uint<std::uint32_t>("exec-max-times", 4);

  chaos::ExecChaosOptions exec_base;
  exec_base.minsup = options.minsup;
  exec_base.max_retries =
      flags.get_uint<std::uint32_t>("exec-max-retries", 2);
  exec_base.mem_budget = flags.get_uint("exec-mem-budget", 0);
  const std::uint64_t pinned_threads = flags.get_uint("exec-threads", 0);
  // Unpinned sweeps rotate the worker count per seed so one sweep covers
  // threads 1..5.
  const auto exec_options_for = [&](std::uint64_t seed) {
    chaos::ExecChaosOptions o = exec_base;
    o.threads = pinned_threads != 0 ? pinned_threads : 1 + seed % 5;
    return o;
  };

  std::vector<std::pair<std::uint64_t, mc::FaultPlan>> plans;
  std::vector<std::pair<std::uint64_t, exec::ExecFaultPlan>> exec_plans;
  if (flags.has("plan-file")) {
    const std::string path = flags.get("plan-file", "");
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "chaos: cannot read plan file '%s'\n",
                   path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    // A file may hold several plans of either dialect (--fail-file appends
    // them); each is replayed on its own leg: "seed" opens an mc compound
    // plan, "exec-seed" an exec fault plan.
    try {
      for (const PlanPart& part : split_plan_text(text.str(), {"", "exec-"})) {
        if (part.prefix == "exec-") {
          exec::ExecFaultPlan plan =
              exec::exec_plan_from_text(part.text, part.first_line);
          exec_plans.emplace_back(plan.seed, std::move(plan));
        } else {
          mc::FaultPlan plan =
              chaos::plan_from_text(part.text, part.first_line);
          plans.emplace_back(plan.seed, std::move(plan));
        }
      }
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "chaos: %s: %s\n", path.c_str(), e.what());
      return 1;
    }
    run_mc_leg = !plans.empty();
    run_exec_leg = !exec_plans.empty();
  } else if (flags.has("sweep")) {
    const std::uint64_t sweep = count_flag("sweep", 200);
    const std::uint64_t seed0 = flags.get_uint("seed0", 1);
    for (std::uint64_t s = 0; s < sweep; ++s) {
      if (run_mc_leg) {
        plans.emplace_back(seed0 + s, chaos::generate_plan(seed0 + s, knobs));
      }
      if (run_exec_leg) {
        exec_plans.emplace_back(
            seed0 + s, chaos::generate_exec_plan(seed0 + s, exec_knobs));
      }
    }
  } else {
    const std::uint64_t seed = flags.get_uint("seed", 42);
    if (run_mc_leg) plans.emplace_back(seed, chaos::generate_plan(seed, knobs));
    if (run_exec_leg) {
      exec_plans.emplace_back(seed,
                              chaos::generate_exec_plan(seed, exec_knobs));
    }
  }

  // Debug mode: run the (single) mc plan N times with traces attached and
  // report the first event where any run's virtual-time timeline diverges
  // from the first run's. Localizes a determinism break to its source.
  if (flags.has("trace-diff")) {
    if (plans.empty()) {
      std::fprintf(stderr,
                   "chaos: --trace-diff needs an mc plan (virtual-time "
                   "traces exist only on the simulator backend)\n");
      return 1;
    }
    const std::uint64_t rounds = count_flag("trace-diff", 8);
    mc::Trace base_trace;
    const chaos::ChaosRun base =
        chaos::run_plan(db, plans.front().second, options, &base_trace);
    const auto base_events = base_trace.sorted();
    for (std::uint64_t r = 1; r < rounds; ++r) {
      mc::Trace trace;
      const chaos::ChaosRun run =
          chaos::run_plan(db, plans.front().second, options, &trace);
      const auto events = trace.sorted();
      const std::size_t n = std::min(base_events.size(), events.size());
      std::size_t i = 0;
      while (i < n && base_events[i].processor == events[i].processor &&
             base_events[i].time == events[i].time &&
             base_events[i].kind == events[i].kind &&
             base_events[i].label == events[i].label &&
             // kCompute detail is measured host nanoseconds (diagnostic
             // only; with cpu_scale=0 it never enters virtual time).
             (base_events[i].kind == mc::TraceKind::kCompute ||
              base_events[i].detail == events[i].detail)) {
        ++i;
      }
      if (i == base_events.size() && i == events.size() &&
          run.makespan == base.makespan) {
        continue;
      }
      std::printf("round %llu diverges at event %zu (of %zu vs %zu), "
                  "makespan %.17g vs %.17g\n",
                  static_cast<unsigned long long>(r), i, base_events.size(),
                  events.size(), base.makespan, run.makespan);
      for (std::size_t j = (i > 6 ? i - 6 : 0);
           j < std::min(i + 6, n); ++j) {
        std::printf(
            "  [%zu] base p%zu t=%.9f %s %s %llu | run p%zu t=%.9f %s %s "
            "%llu\n",
            j, base_events[j].processor, base_events[j].time,
            mc::to_string(base_events[j].kind), base_events[j].label.c_str(),
            static_cast<unsigned long long>(base_events[j].detail),
            events[j].processor, events[j].time,
            mc::to_string(events[j].kind), events[j].label.c_str(),
            static_cast<unsigned long long>(events[j].detail));
      }
      return 1;
    }
    std::printf("trace-diff: %llu rounds identical\n",
                static_cast<unsigned long long>(rounds));
    return 0;
  }

  std::vector<Violation> violations;
  const auto report = [&](std::uint64_t seed, const std::string& leg,
                          const std::string& what,
                          const std::string& plan_text) {
    violations.push_back({seed, leg, what});
    std::fprintf(stderr, "chaos: %s seed %llu VIOLATION: %s\n", leg.c_str(),
                 static_cast<unsigned long long>(seed), what.c_str());
    std::fputs(plan_text.c_str(), stderr);
    // Violating plans also land in --fail-file (replayable with
    // --plan-file) so a CI soak leg can attach them as artifacts.
    if (flags.has("fail-file")) {
      std::ofstream fail(flags.get("fail-file", ""), std::ios::app);
      fail << "# " << leg << " seed " << seed << ": " << what << "\n"
           << plan_text << "\n";
    }
  };

  // --- mc leg ---
  std::size_t completed = 0, aborted = 0;
  for (const auto& [seed, plan] : plans) {
    if (flags.get_bool("print-plan", false)) {
      std::fputs(chaos::plan_to_text(plan).c_str(), stdout);
    }
    const chaos::ChaosRun run = chaos::run_plan(db, plan, options);
    std::string what;
    if (run.completed) {
      ++completed;
      if (run.result_bytes != reference.result_bytes) {
        what = "completed run diverged from the fault-free reference bytes";
      }
    } else if (run.clean_abort) {
      ++aborted;
    } else {
      what = "unexpected abort: " + run.error;
    }
    if (what.empty() && flags.get_bool("replay-check", true)) {
      const chaos::ChaosRun again = chaos::run_plan(db, plan, options);
      if (again.completed != run.completed) {
        what = "replay diverged: completed flag";
      } else if (again.clean_abort != run.clean_abort) {
        what = "replay diverged: clean_abort flag";
      } else if (again.error != run.error) {
        what = "replay diverged: error '" + run.error + "' vs '" +
               again.error + "'";
      } else if (again.makespan != run.makespan) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "replay diverged: makespan %.17g vs %.17g "
                      "(lineage %llu vs %llu, fenced %llu vs %llu, "
                      "finished %zu vs %zu, partitioned %zu vs %zu)",
                      run.makespan, again.makespan,
                      static_cast<unsigned long long>(run.lineage_rebuilds),
                      static_cast<unsigned long long>(again.lineage_rebuilds),
                      static_cast<unsigned long long>(run.fenced_rejections),
                      static_cast<unsigned long long>(again.fenced_rejections),
                      run.finished, again.finished, run.partitioned,
                      again.partitioned);
        what = buf;
      } else if (again.result_bytes != run.result_bytes) {
        what = "replay diverged: result bytes";
      }
    }
    if (!what.empty()) report(seed, "mc", what, chaos::plan_to_text(plan));
    if (flags.get_bool("verbose", false)) {
      std::printf(
          "mc seed %llu: %s makespan=%.6f finished=%zu crashed=%zu hung=%zu "
          "partitioned=%zu lineage=%llu fenced=%llu%s%s\n",
          static_cast<unsigned long long>(seed),
          run.completed ? "completed" : "aborted ", run.makespan,
          run.finished, run.crashed, run.hung, run.partitioned,
          static_cast<unsigned long long>(run.lineage_rebuilds),
          static_cast<unsigned long long>(run.fenced_rejections),
          run.error.empty() ? "" : " error=", run.error.c_str());
    }
  }

  // --- threads leg ---
  std::size_t exec_completed = 0, exec_aborted = 0;
  for (const auto& [seed, plan] : exec_plans) {
    const chaos::ExecChaosOptions run_options = exec_options_for(seed);
    if (flags.get_bool("print-plan", false)) {
      std::fputs(exec::exec_plan_to_text(plan).c_str(), stdout);
    }
    const chaos::ExecChaosRun run = chaos::run_exec_plan(db, plan,
                                                         run_options);
    std::string what;
    if (run.completed) {
      ++exec_completed;
      if (run.result_bytes != reference.result_bytes) {
        what = "completed threads run diverged from the fault-free "
               "reference bytes";
      }
    } else if (run.clean_abort) {
      ++exec_aborted;
    } else {
      what = "unexpected abort: " + run.error;
    }
    if (what.empty() && flags.get_bool("replay-check", true)) {
      const chaos::ExecChaosRun again = chaos::run_exec_plan(db, plan,
                                                             run_options);
      if (again.completed != run.completed) {
        what = "replay diverged: completed flag";
      } else if (again.clean_abort != run.clean_abort) {
        what = "replay diverged: clean_abort flag";
      } else if (again.error != run.error) {
        what = "replay diverged: error '" + run.error + "' vs '" +
               again.error + "'";
      } else if (again.failures != run.failures ||
                 again.retries != run.retries) {
        char buf[160];
        std::snprintf(
            buf, sizeof(buf),
            "replay diverged: failures %llu vs %llu, retries %llu vs %llu",
            static_cast<unsigned long long>(run.failures),
            static_cast<unsigned long long>(again.failures),
            static_cast<unsigned long long>(run.retries),
            static_cast<unsigned long long>(again.retries));
        what = buf;
      } else if (again.result_bytes != run.result_bytes) {
        what = "replay diverged: result bytes";
      }
    }
    if (!what.empty()) {
      report(seed, "threads", what, exec::exec_plan_to_text(plan));
    }
    if (flags.get_bool("verbose", false)) {
      std::printf(
          "threads seed %llu: %s threads=%zu failures=%llu retries=%llu%s%s\n",
          static_cast<unsigned long long>(seed),
          run.completed ? "completed" : "aborted ", run_options.threads,
          static_cast<unsigned long long>(run.failures),
          static_cast<unsigned long long>(run.retries),
          run.error.empty() ? "" : " error=", run.error.c_str());
    }
  }

  if (run_mc_leg) {
    std::printf(
        "chaos[mc]: %zu plans, %zu completed (byte-checked), %zu clean "
        "aborts, %zu violations\n",
        plans.size(), completed, aborted,
        static_cast<std::size_t>(std::count_if(
            violations.begin(), violations.end(),
            [](const Violation& v) { return v.backend == "mc"; })));
  }
  if (run_exec_leg) {
    std::printf(
        "chaos[threads]: %zu plans, %zu completed (byte-checked), %zu clean "
        "aborts, %zu violations\n",
        exec_plans.size(), exec_completed, exec_aborted,
        static_cast<std::size_t>(std::count_if(
            violations.begin(), violations.end(),
            [](const Violation& v) { return v.backend == "threads"; })));
  }
  return violations.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_chaos(argc, argv);
  } catch (const std::invalid_argument& e) {
    // A malformed flag value, e.g. --sweep=abc or --minsup=-1.
    std::fprintf(stderr, "chaos: %s\n", e.what());
    return 1;
  }
}
