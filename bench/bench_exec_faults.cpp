// Cost of the thread backend's fault-tolerance layer: one injected fault
// on class 0 (throw, corrupt) against a fault-free run, on the kernel
// bench's databases (the sparse T10.I4 and the dense T10.I4.N64). The
// retry runs at once on the worker that holds the class. Each row
// reports the wall-clock recovery overhead (min of R repeats), the
// failure/retry counters, and the byte-identical check against the mc
// reference: what one retry costs end to end.
//
// Writes BENCH_exec_faults.json. Wall-clock numbers; the JSON carries
// `host_cores` since a 1-core container serializes the workers.
//
//   ./bench_exec_faults [--scale=0.1] [--support=0.0025] [--repeats=5]
//                       [--exec-threads=3] [--json=true]
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/clock.hpp"
#include "data/result_io.hpp"
#include "exec/thread_backend.hpp"
#include "gen/quest.hpp"
#include "mc/cluster.hpp"
#include "parallel/par_eclat.hpp"

namespace {

using namespace eclat;

struct RecoveryRow {
  std::string database;
  std::string fault;
  double clean_seconds = 0.0;
  double faulted_seconds = 0.0;
  std::uint64_t failures = 0;
  std::uint64_t retries = 0;
  bool identical = false;
  double overhead() const {
    return clean_seconds > 0 ? faulted_seconds / clean_seconds - 1.0 : 0.0;
  }
};

/// Minimum wall seconds over `repeats` identical runs — the standard
/// noise filter for wall-clock micro-comparisons.
template <typename Run>
double min_wall_seconds(std::size_t repeats, Run&& run) {
  double best = 0.0;
  for (std::size_t r = 0; r < repeats; ++r) {
    const double wall = run();
    if (r == 0 || wall < best) best = wall;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using eclat::bench::print_rule;
  const WallStopwatch bench_watch;
  const Flags flags(argc, argv);
  const double scale = flags.get_double("scale", 0.1);
  const double support = flags.get_double("support", 0.0025);
  const std::size_t repeats = flags.get_uint("repeats", 5);
  const std::size_t threads =
      exec::resolve_threads(flags.get_uint("exec-threads", 3));
  const bool write_json = flags.get_bool("json", true);
  const unsigned host_cores = std::thread::hardware_concurrency();

  struct Database {
    std::string name;
    HorizontalDatabase db;
    double support;
  };
  std::vector<Database> databases;
  {
    gen::QuestConfig sparse;  // T10.I4, paper-style N = 1000
    sparse.avg_pattern_length = 4.0;
    sparse.num_transactions = static_cast<std::size_t>(100'000 * scale);
    sparse.seed = 2004;
    databases.push_back(
        {"T10.I4." + std::to_string(sparse.num_transactions / 1000) + "K",
         gen::QuestGenerator(sparse).generate(), support});

    gen::QuestConfig dense = sparse;  // 64-item catalog: dense tid-lists
    dense.num_items = 64;
    dense.num_patterns = 200;
    dense.seed = 2005;
    databases.push_back(
        {"T10.I4.N64." + std::to_string(dense.num_transactions / 1000) + "K",
         gen::QuestGenerator(dense).generate(), 0.05});
  }

  std::printf("exec fault tolerance: threads=%zu host_cores=%u repeats=%zu\n",
              threads, host_cores, repeats);

  std::vector<RecoveryRow> recovery_rows;
  bool diverged = false;
  for (const Database& spec : databases) {
    par::ParEclatConfig config;
    config.minsup = absolute_support(spec.support, spec.db.size());

    mc::Cluster reference(mc::Topology{1, 1}, mc::CostModel{});
    const std::vector<std::uint8_t> reference_bytes =
        result_to_bytes(par::par_eclat(reference, spec.db, config).result);

    exec::ThreadBackendOptions clean;
    clean.threads = threads;
    const double clean_seconds = min_wall_seconds(repeats, [&] {
      const par::ParallelOutput run =
          exec::thread_eclat(spec.db, config, clean);
      if (result_to_bytes(run.result) != reference_bytes) diverged = true;
      return run.wall_seconds;
    });
    const struct {
      const char* name;
      exec::ExecFaultEvent event;
    } faults[] = {
        {"throw", exec::ExecFaultPlan::throw_on(0)},
        {"corrupt", exec::ExecFaultPlan::corrupt_on(0)},
    };
    for (const auto& fault : faults) {
      exec::ThreadBackendOptions faulted = clean;
      faulted.faults.events.assign(1, fault.event);
      RecoveryRow recovery;
      recovery.database = spec.name;
      recovery.fault = fault.name;
      recovery.clean_seconds = clean_seconds;
      recovery.identical = true;
      recovery.faulted_seconds = min_wall_seconds(repeats, [&] {
        const par::ParallelOutput run =
            exec::thread_eclat(spec.db, config, faulted);
        recovery.failures = run.exec_task_failures;
        recovery.retries = run.exec_task_retries;
        if (result_to_bytes(run.result) != reference_bytes) {
          recovery.identical = false;
          diverged = true;
        }
        return run.wall_seconds;
      });
      recovery_rows.push_back(recovery);
    }
  }
  std::printf("\nRecovery cost of one injected fault on class 0 "
              "(min of %zu)\n",
              repeats);
  print_rule('=', 73);
  std::printf("%-16s %-8s | %9s %9s %7s | %4s %4s | %s\n", "Database",
              "fault", "clean(s)", "fault(s)", "ovhd", "fail", "rtry",
              "bytes");
  print_rule('-', 73);
  for (const RecoveryRow& row : recovery_rows) {
    std::printf("%-16s %-8s | %9.4f %9.4f %+6.1f%% | %4llu %4llu | %s\n",
                row.database.c_str(), row.fault.c_str(), row.clean_seconds,
                row.faulted_seconds, 100.0 * row.overhead(),
                static_cast<unsigned long long>(row.failures),
                static_cast<unsigned long long>(row.retries),
                row.identical ? "identical" : "DIVERGED");
  }
  print_rule('-', 73);

  if (write_json) {
    const char* path = "BENCH_exec_faults.json";
    std::FILE* out = std::fopen(path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", path);
      return 1;
    }
    std::fprintf(out, "{\n  \"benchmark\": \"exec_faults\",\n");
    eclat::bench::write_backend_fields(out, "threads", "wall",
                                       bench_watch.elapsed_seconds());
    std::fprintf(out,
                 "  \"host_cores\": %u,\n  \"threads\": %zu,\n"
                 "  \"repeats\": %zu,\n  \"scale\": %g,\n"
                 "  \"fault_recovery\": [\n",
                 host_cores, threads, repeats, scale);
    for (std::size_t i = 0; i < recovery_rows.size(); ++i) {
      const RecoveryRow& row = recovery_rows[i];
      std::fprintf(out,
                   "    {\"database\": \"%s\", \"fault\": \"%s\", "
                   "\"clean_seconds\": %.6f, \"faulted_seconds\": %.6f, "
                   "\"overhead\": %.4f, \"failures\": %llu, "
                   "\"retries\": %llu, \"identical\": %s}%s\n",
                   row.database.c_str(), row.fault.c_str(), row.clean_seconds,
                   row.faulted_seconds, row.overhead(),
                   static_cast<unsigned long long>(row.failures),
                   static_cast<unsigned long long>(row.retries),
                   row.identical ? "true" : "false",
                   i + 1 < recovery_rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path);
  }
  return diverged ? 1 : 0;
}
