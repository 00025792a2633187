// Shared-memory scaling of the Par-Eclat pipeline through the execution
// backend seam: the same sweep runs on the native thread pool (wall
// seconds, the point of this bench) or on the mc simulator (virtual
// seconds, the paper's Fig 7 shape) — selected with --backend.
//
// For each database (the sparse T10.I4 and the dense T10.I4.N64 of the
// kernel bench) and each worker count 1..N (powers of two up to the
// resolved --exec-threads), the bench times the static greedy C(s,2)
// schedule (a queue per worker) against steal (one shared queue, taken
// heaviest class first) and byte-compares every output against the mc
// reference run — the determinism contract of DESIGN.md §9 as a
// benchmark invariant.
//
// Each row is one warm-up call and then kRepeats timed calls, every one
// byte-checked. A row reports the median, the fastest run and the
// interquartile range, and its speedup is the ratio of medians: on a host
// whose parallelism comes and goes, one call can read several times the
// speedup its median does.
//
// Writes BENCH_scaling.json. The file carries a `host_cores` field: on a
// 1-core container every wall-clock "speedup" is honestly ~1x, and the
// trajectory is only meaningful on runners with real parallelism.
//
//   ./bench_scaling [--scale=0.25] [--support=0.0025] [--backend=threads]
//                   [--exec-threads=0] [--exec-sched=both] [--json=true]
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/clock.hpp"
#include "data/result_io.hpp"
#include "exec/backend.hpp"
#include "gen/quest.hpp"

namespace {

using namespace eclat;

constexpr std::size_t kRepeats = 5;

struct Row {
  std::string database;
  std::size_t threads = 0;
  std::string scheduler;
  /// Backend clock over the repeats (wall for threads, virtual for mc).
  eclat::bench::RepeatStats seconds;
  double wall_seconds = 0.0;  ///< median host wall clock of the repeats
  double speedup = 0.0;  ///< median vs the 1-worker median, same scheduler
  bool identical = false;  ///< every call byte-identical to the mc reference
};

}  // namespace

int main(int argc, char** argv) {
  using eclat::bench::print_rule;
  const WallStopwatch bench_watch;
  const Flags flags(argc, argv);

  constexpr std::string_view kBackendChoices[] = {"mc", "threads"};
  constexpr std::string_view kSchedChoices[] = {"both", "static", "steal"};
  const exec::BackendKind backend_kind =
      exec::parse_backend(flags.get_choice("backend", kBackendChoices,
                                           "threads"));
  const std::string sched_choice =
      flags.get_choice("exec-sched", kSchedChoices, "both");
  const std::uint64_t requested = flags.get_uint("exec-threads", 0);
  const std::size_t max_threads =
      exec::resolve_threads(static_cast<std::size_t>(requested));
  const double scale = flags.get_double("scale", 0.25);
  const double support = flags.get_double("support", 0.0025);
  const bool write_json = flags.get_bool("json", true);
  const unsigned host_cores = std::thread::hardware_concurrency();

  if (requested == 0) {
    std::printf("--exec-threads=0 resolved to %zu (hardware concurrency)\n",
                max_threads);
  }
  std::printf("backend=%s host_cores=%u max_threads=%zu\n\n",
              exec::to_string(backend_kind), host_cores, max_threads);

  // Worker counts: powers of two up to the resolved maximum, plus the
  // maximum itself when it is not a power of two.
  std::vector<std::size_t> sweep;
  for (std::size_t t = 1; t <= max_threads; t *= 2) sweep.push_back(t);
  if (sweep.back() != max_threads) sweep.push_back(max_threads);

  // The mc simulator has no shared class queue; its sweep is the static
  // schedule only.
  std::vector<exec::ClassScheduler> schedulers;
  if (backend_kind == exec::BackendKind::kThreads && sched_choice != "steal") {
    schedulers.push_back(exec::ClassScheduler::kStatic);
  }
  if (backend_kind == exec::BackendKind::kThreads && sched_choice != "static") {
    schedulers.push_back(exec::ClassScheduler::kWorkStealing);
  }
  if (backend_kind == exec::BackendKind::kMc) {
    schedulers.assign(1, exec::ClassScheduler::kStatic);
  }

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

  std::vector<Row> rows;
  for (const Database& spec : databases) {
    par::ParEclatConfig config;
    config.minsup = absolute_support(spec.support, spec.db.size());

    // The mc backend at T = 1 is the reference every run must match
    // byte-for-byte — cross-backend, cross-thread-count, cross-scheduler.
    const std::unique_ptr<exec::Backend> reference = exec::make_backend(
        exec::BackendKind::kMc, mc::Topology{1, 1}, mc::CostModel{}, {});
    const std::vector<std::uint8_t> reference_bytes =
        result_to_bytes(reference->mine(spec.db, config).result);

    std::printf("%-16s |D|=%zu minsup=%llu (%zu itemsets)\n",
                spec.name.c_str(), spec.db.size(),
                static_cast<unsigned long long>(config.minsup),
                result_from_bytes(reference_bytes).itemsets.size());
    print_rule('-', 64);

    for (exec::ClassScheduler scheduler : schedulers) {
      double base_seconds = 0.0;
      for (std::size_t threads : sweep) {
        exec::ThreadBackendOptions thread_options;
        thread_options.threads = threads;
        thread_options.scheduler = scheduler;
        const std::unique_ptr<exec::Backend> backend = exec::make_backend(
            backend_kind, mc::Topology{1, threads}, mc::CostModel{},
            thread_options);

        Row row;
        row.database = spec.name;
        row.scheduler = exec::to_string(scheduler);
        row.identical = true;
        std::vector<double> seconds;
        std::vector<double> wall_seconds;
        for (std::size_t call = 0; call <= kRepeats; ++call) {
          const par::ParallelOutput run = backend->mine(spec.db, config);
          row.threads = run.exec_threads;
          row.identical = row.identical &&
                          result_to_bytes(run.result) == reference_bytes;
          if (call == 0) continue;  // the warm-up
          seconds.push_back(run.total_seconds);
          wall_seconds.push_back(run.wall_seconds);
        }
        row.seconds = eclat::bench::repeat_stats(seconds);
        row.wall_seconds = eclat::bench::repeat_stats(wall_seconds).median;
        if (threads == sweep.front()) base_seconds = row.seconds.median;
        row.speedup = row.seconds.median > 0
                          ? base_seconds / row.seconds.median
                          : 0.0;
        std::printf(
            "  %-7s T=%-3zu median %8.4f s  min %8.4f  IQR %7.4f   "
            "speedup %5.2fx   %s\n",
            row.scheduler.c_str(), row.threads, row.seconds.median,
            row.seconds.min, row.seconds.iqr, row.speedup,
            row.identical ? "identical" : "OUTPUT DIVERGED");
        rows.push_back(row);
        if (!row.identical) {
          std::fprintf(stderr, "output diverged from the mc reference\n");
          return 1;
        }
      }
    }
    std::printf("\n");
  }

  if (write_json) {
    const char* path = "BENCH_scaling.json";
    std::FILE* out = std::fopen(path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", path);
      return 1;
    }
    std::fprintf(out, "{\n  \"benchmark\": \"scaling\",\n");
    eclat::bench::write_backend_fields(
        out, exec::to_string(backend_kind),
        backend_kind == exec::BackendKind::kMc ? "virtual" : "wall",
        bench_watch.elapsed_seconds());
    std::fprintf(out,
                 "  \"host_cores\": %u,\n  \"max_threads\": %zu,\n"
                 "  \"scale\": %g,\n  \"repeats\": %zu,\n"
                 "  \"rows\": [\n",
                 host_cores, max_threads, scale, kRepeats);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(out,
                   "    {\"database\": \"%s\", \"threads\": %zu, "
                   "\"scheduler\": \"%s\", \"seconds\": %.6f, "
                   "\"seconds_min\": %.6f, \"seconds_iqr\": %.6f, "
                   "\"wall_seconds\": %.6f, \"speedup\": %.4f, "
                   "\"identical\": %s}%s\n",
                   row.database.c_str(), row.threads, row.scheduler.c_str(),
                   row.seconds.median, row.seconds.min, row.seconds.iqr,
                   row.wall_seconds, row.speedup,
                   row.identical ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path);
  }
  return 0;
}
