// Straggler mitigation — makespan of Par-Eclat with lease-based
// speculative re-execution off vs. on, under (a) a persistent disk-stall
// straggler of varying severity and (b) a silent hang (FaultKind::kHang),
// across the paper's processor configurations.
//
// Expected shape: with speculation off the asynchronous phase is bounded
// by the straggler (a 10x disk stall shows up almost 10x in the phase);
// with speculation on, idle survivors take over the straggler's classes
// once their leases expire — each class carries its own stalled disk read
// with it, so migration removes the stalled work rather than hiding it —
// and the makespan returns to within a lease horizon of the healthy run.
// The fault-free speculation overhead (clean on vs. off) is the cost of
// the idle speculators' bounded polling and should stay small.
//
// Owners renew their leases at every class checkpoint, so the detector's
// timescale is the *inter-checkpoint gap*, not the phase: the lease is
// sized per configuration as a multiple (--lease-gaps, default 3) of the
// fault-free mean gap, estimated from the clean run as
// asynchronous_seconds * T / #classes. Below that multiple a straggler is
// tolerated (a 2x stall often renews in time on small T — that is the
// threshold doing its job), above it the lease expires mid-read and the
// class migrates. See EXPERIMENTS.md "straggler ablation" for the sweep.
//
// All runs use a fully modeled clock (cpu_scale = 0) so the emitted
// numbers are deterministic and machine-independent: the JSON written to
// BENCH_stragglers.json is comparable across commits.
//
//   ./bench_stragglers [--scale=0.02] [--support=0.001] [--lease-gaps=3]
//                      [--max-retransmits=4] [--hang=1] [--json=1]
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/clock.hpp"
#include "mc/fault.hpp"
#include "parallel/par_eclat.hpp"

namespace {

/// Deterministic virtual-time-only accounting (see file comment).
eclat::mc::CostModel modeled_only() {
  eclat::mc::CostModel cost;
  cost.cpu_scale = 0.0;
  return cost;
}

constexpr double kSeverities[] = {2.0, 10.0};

/// Equivalence classes the asynchronous phase actually mines (>= 2
/// members, i.e. >= 2 frequent 2-itemsets sharing a prefix), recovered
/// from a clean run's output — the bench-side estimate of how many
/// checkpoints (lease renewals) each processor produces.
std::size_t mined_class_count(const eclat::MiningResult& result) {
  std::map<eclat::Item, std::size_t> members;
  for (const eclat::ItemsetView f : result.itemsets) {
    if (f.items.size() == 2) ++members[f.items[0]];
  }
  std::size_t classes = 0;
  for (const auto& [prefix, count] : members) {
    if (count >= 2) ++classes;
  }
  return classes;
}

struct StallCell {
  double severity = 0.0;
  double off_s = 0.0;
  double on_s = 0.0;
  double speedup() const { return off_s / on_s; }
};

struct Row {
  std::string config;
  double lease_duration = 0.0;
  double clean_off = 0.0;
  double clean_on = 0.0;
  std::vector<StallCell> stalls;
  double hang_off = 0.0;  ///< unbounded hang, covered by crash recovery
  double hang_on = 0.0;   ///< unbounded hang, covered by speculation
  bool output_identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  const eclat::WallStopwatch bench_watch;
  using namespace eclat;
  using namespace eclat::bench;
  const Flags flags(argc, argv);
  const double scale = flags.get_double("scale", 0.02);
  const double support = flags.get_double("support", kPaperSupport);
  const double lease_gaps = flags.get_double("lease-gaps", 3.0);
  const std::uint64_t max_retransmits = flags.get_uint("max-retransmits", 4);
  const bool with_hang = flags.get_bool("hang", true);
  const bool write_json = flags.get_bool("json", true);

  const PaperDatabase& spec = kPaperDatabases[0];  // T10.I6.D800K scaled
  const HorizontalDatabase db = make_database(spec, scale);
  const Count minsup = absolute_support(support, db.size());

  std::printf(
      "Stragglers: %s, support %.2f%%, stall/hang on the highest-id "
      "processor, lease = %.1fx the clean inter-checkpoint gap\n",
      scaled_name(spec, scale).c_str(), support * 100.0, lease_gaps);
  print_rule('=', 108);
  std::printf("%-8s | %9s %9s | %25s | %25s | %19s | %s\n", "Config",
              "clean off", "clean on", "stall x2   off/on  (gain)",
              "stall x10  off/on  (gain)", "hang   off/on", "output");
  print_rule('-', 108);

  std::vector<Row> rows;
  for (const mc::Topology& topology : paper_topologies()) {
    if (topology.total() < 2) continue;  // need an idle survivor
    const std::size_t victim = topology.total() - 1;

    auto run = [&](const mc::FaultPlan& plan, bool speculate,
                   double lease_duration) {
      mc::Cluster cluster(topology, modeled_only());
      cluster.set_fault_plan(plan);
      par::ParEclatConfig config;
      config.minsup = minsup;
      config.max_retransmits = static_cast<std::size_t>(max_retransmits);
      config.lease.speculate = speculate;
      if (lease_duration > 0.0) config.lease.lease_duration = lease_duration;
      return par::par_eclat(cluster, db, config);
    };

    Row row;
    row.config = topology.label();
    const par::ParallelOutput clean_off = run({}, false, 0.0);
    row.clean_off = clean_off.total_seconds;
    const std::size_t classes = mined_class_count(clean_off.result);
    row.lease_duration = lease_gaps *
                         clean_off.phase_seconds.at("asynchronous") *
                         static_cast<double>(topology.total()) /
                         static_cast<double>(classes == 0 ? 1 : classes);
    const par::ParallelOutput clean_on = run({}, true, row.lease_duration);
    row.clean_on = clean_on.total_seconds;
    row.output_identical =
        clean_on.result.itemsets == clean_off.result.itemsets;

    for (const double severity : kSeverities) {
      mc::FaultPlan plan;
      plan.events.push_back(mc::FaultPlan::disk_stall(
          victim, severity, "asynchronous", /*persistent=*/true));
      StallCell cell;
      cell.severity = severity;
      const par::ParallelOutput off = run(plan, false, 0.0);
      const par::ParallelOutput on = run(plan, true, row.lease_duration);
      cell.off_s = off.total_seconds;
      cell.on_s = on.total_seconds;
      row.output_identical =
          row.output_identical &&
          off.result.itemsets == clean_off.result.itemsets &&
          on.result.itemsets == clean_off.result.itemsets;
      row.stalls.push_back(cell);
    }

    if (with_hang) {
      mc::FaultPlan plan;
      plan.events.push_back(
          mc::FaultPlan::hang_at_point(victim, "class-checkpointed"));
      const par::ParallelOutput off = run(plan, false, 0.0);
      const par::ParallelOutput on = run(plan, true, row.lease_duration);
      row.hang_off = off.total_seconds;
      row.hang_on = on.total_seconds;
      row.output_identical =
          row.output_identical &&
          off.result.itemsets == clean_off.result.itemsets &&
          on.result.itemsets == clean_off.result.itemsets;
    }

    std::printf(
        "%-8s | %9.3f %9.3f | %8.3f /%8.3f (%4.2fx) | %8.3f /%8.3f (%4.2fx) "
        "| %8.3f /%8.3f | %s\n",
        row.config.c_str(), row.clean_off, row.clean_on, row.stalls[0].off_s,
        row.stalls[0].on_s, row.stalls[0].speedup(), row.stalls[1].off_s,
        row.stalls[1].on_s, row.stalls[1].speedup(), row.hang_off,
        row.hang_on, row.output_identical ? "identical" : "DIVERGED");
    rows.push_back(row);
  }
  print_rule('-', 108);
  std::printf(
      "Expected shape: x10 stall gain well above 1 everywhere; clean "
      "on/off gap within one lease horizon; output always identical.\n");

  if (write_json) {
    const char* path = "BENCH_stragglers.json";
    std::FILE* out = std::fopen(path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", path);
      return 1;
    }
    std::fprintf(out, "{\n  \"benchmark\": \"stragglers\",\n");
    eclat::bench::write_backend_fields(out, "mc", "virtual",
                                       bench_watch.elapsed_seconds());
    std::fprintf(out,
                 "  \"database\": \"%s\",\n  \"scale\": %g,\n"
                 "  \"support\": %g,\n  \"lease_gaps\": %g,\n"
                 "  \"straggler\": "
                 "\"highest-id processor, asynchronous phase\",\n"
                 "  \"rows\": [\n",
                 scaled_name(spec, scale).c_str(), scale, support,
                 lease_gaps);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(out,
                   "    {\"config\": \"%s\", \"lease_s\": %.6f, "
                   "\"clean_off_s\": %.6f, \"clean_on_s\": %.6f,\n"
                   "     \"stalls\": [",
                   row.config.c_str(), row.lease_duration, row.clean_off,
                   row.clean_on);
      for (std::size_t s = 0; s < row.stalls.size(); ++s) {
        const StallCell& cell = row.stalls[s];
        std::fprintf(out,
                     "{\"severity\": %g, \"off_s\": %.6f, \"on_s\": %.6f, "
                     "\"speedup\": %.4f}%s",
                     cell.severity, cell.off_s, cell.on_s, cell.speedup(),
                     s + 1 < row.stalls.size() ? ", " : "");
      }
      std::fprintf(out,
                   "],\n     \"hang_off_s\": %.6f, \"hang_on_s\": %.6f, "
                   "\"output_identical\": %s}%s\n",
                   row.hang_off, row.hang_on,
                   row.output_identical ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path);
  }
  return 0;
}
