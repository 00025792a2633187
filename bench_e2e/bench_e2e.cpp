// bench_e2e: the repository's end-to-end benchmark.
//
// One caller mines one workload in a closed loop through the public facade
// (api::mine_with_stats), one call at a time, and every call's output is
// checked byte for byte against a sequential Eclat oracle. Parallel calls
// use W = 2 worker threads of the native thread backend, alternating with
// single-thread calls. After every call a fixed host-speed probe runs at
// the call's thread count, and each call's time is scaled by the probes
// around it, so a host that runs slower for a while does not read as a
// slower library. A traced run additionally replays the
// Par-Eclat pipeline at W = 1 from this file, timing each call into the
// library's layers (data, vertical, eclat, parallel), to give the
// per-layer metrics; the end-to-end calls themselves are never traced.
//
//   bench_e2e --workload paper-t10i6 --seed 1 --seconds 20 --trace 0
//             [--workdir DIR] [--results DIR]
//   bench_e2e --smoke [--workdir DIR]
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
// A fuller result, with honesty fields and raw samples, is written to
// <results>/<workload>.seed<seed>.<e2e|layers>.json, and a traced run
// writes its spans to <workdir>/<workload>.seed<seed>.trace.json. README.md
// defines every metric and explains the choice of workloads.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <initializer_list>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/mining.hpp"
#include "apriori/apriori.hpp"
#include "bench_util.hpp"
#include "common/clock.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "data/io.hpp"
#include "data/result_io.hpp"
#include "eclat/compute_frequent.hpp"
#include "eclat/diffsets.hpp"
#include "eclat/tid_arena.hpp"
#include "gen/quest.hpp"
#include "parallel/pipeline.hpp"
#include "trace.hpp"
#include "vertical/vertical_db.hpp"

namespace eclat::bench {
namespace {

constexpr std::size_t kWorkers = 2;           // W of the parallel calls
constexpr std::size_t kSetupLoads = 15;       // file loads behind setup_s
constexpr std::size_t kRssCalls = 3;          // calls behind peak_rss_mb
constexpr std::size_t kMinReplicaPasses = 3;  // replica passes per traced run
constexpr std::size_t kSmokeDivisor = 20;     // --smoke scale
constexpr std::size_t kSmokeRepeats = 3;      // --smoke rounds
// The host probe's median on the reference host (README.md, Baseline) at
// one and at kWorkers threads: the end-to-end times are in seconds of that
// host. kProbeWindow rounds on either side of a call scale its time.
constexpr double kProbeSeconds1 = 0.034;
constexpr double kProbeSecondsW = 0.038;
constexpr std::size_t kProbeWindow = 5;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(ECLAT_BENCH_SANITIZED)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// One benchmark workload. Its baskets come from the Quest generator at
/// the library's default generator seed (1997); --seed only shuffles their
/// order, so every tid-list differs between seeds while the multiset of
/// baskets, and with it the work per call, stays fixed. (Independent
/// samples of T10.I6 at this scale differ by up to 20% in itemset count,
/// which would swamp the benchmark's bounds.)
struct Workload {
  const char* name;
  gen::QuestConfig data;
  double min_support;
  IntersectKernel kernel;
  api::Algorithm algorithm;
};

gen::QuestConfig quest(double avg_transaction, double avg_pattern, Item items,
                       std::size_t patterns, std::size_t transactions) {
  gen::QuestConfig config;
  config.avg_transaction_length = avg_transaction;
  config.avg_pattern_length = avg_pattern;
  config.num_items = items;
  config.num_patterns = patterns;
  config.num_transactions = transactions;
  return config;
}

// Why each workload exists (README.md has the measured layer shares):
//  paper-t10i6  the paper's own database family; inversion and class mining
//               take the time in equal parts, plus a serial reduction, so
//               transformation and reduction changes show here.
//  dense-n64    few items, many long itemsets over 62 large classes: mining
//               on bitset/SIMD words dominates, so kernel, recursion and
//               scheduling changes show here.
//  scan-t10i4   the control: a dozen intersections in all, so pair
//               inversion, counting and the load take the time. Kernel,
//               recursion and scheduler changes predict no change here.
//  diffsets-n64 the dense-n64 database through sequential dEclat: the same
//               kernels via AND-NOT, another recursion, no exec layer.
const Workload kWorkloads[] = {
    {"paper-t10i6", quest(10, 6, 1000, 2000, 50'000), 0.001,
     IntersectKernel::kMergeShortCircuit, api::Algorithm::kParEclat},
    {"dense-n64", quest(10, 4, 64, 200, 40'000), 0.0025,
     IntersectKernel::kAuto, api::Algorithm::kParEclat},
    {"scan-t10i4", quest(10, 4, 1000, 2000, 160'000), 0.01,
     IntersectKernel::kMergeShortCircuit, api::Algorithm::kParEclat},
    {"diffsets-n64", quest(10, 4, 64, 200, 40'000), 0.0025,
     IntersectKernel::kAuto, api::Algorithm::kEclatDiffsets},
};

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string workdir;
  std::string results;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(wall_ns() - start_ns) * 1e-9;
}

/// Linear-interpolation quantile of a non-empty sample.
double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Ranks with ties averaged (1-based).
std::vector<double> ranks(const std::vector<double>& values) {
  std::vector<std::size_t> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return values[a] < values[b];
  });
  std::vector<double> rank(values.size());
  for (std::size_t i = 0; i < order.size();) {
    std::size_t j = i;
    while (j + 1 < order.size() && values[order[j + 1]] == values[order[i]]) {
      ++j;
    }
    for (std::size_t k = i; k <= j; ++k) {
      rank[order[k]] = static_cast<double>(i + j) / 2.0 + 1.0;
    }
    i = j + 1;
  }
  return rank;
}

/// Spearman rank correlation; empty when either side has no spread.
std::optional<double> spearman(const std::vector<double>& x,
                               const std::vector<double>& y) {
  if (x.size() < 3) return std::nullopt;
  const std::vector<double> rx = ranks(x);
  const std::vector<double> ry = ranks(y);
  const double n = static_cast<double>(rx.size());
  const double mx = std::accumulate(rx.begin(), rx.end(), 0.0) / n;
  const double my = std::accumulate(ry.begin(), ry.end(), 0.0) / n;
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < rx.size(); ++i) {
    sxy += (rx[i] - mx) * (ry[i] - my);
    sxx += (rx[i] - mx) * (rx[i] - mx);
    syy += (ry[i] - my) * (ry[i] - my);
  }
  if (sxx == 0.0 || syy == 0.0) return std::nullopt;
  return sxy / std::sqrt(sxx * syy);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The host-speed probe: a fixed piece of work made of what the mining
/// spends its time on — sorting, merging two sorted tid-lists, and
/// scattered counter updates over a table far larger than a core's caches.
/// It uses only this file and the standard library, so no change to the
/// library can change its cost, and its inputs come from a fixed seed.
class HostProbe {
 public:
  HostProbe()
      : keys_(std::size_t{1} << 17),
        left_(std::size_t{1} << 19),
        right_(std::size_t{1} << 19),
        common_(std::size_t{1} << 19),
        counters_(std::size_t{1} << 22) {
    std::uint64_t state = kSeed;
    for (std::uint32_t& tid : left_) tid = next(state) >> 41;
    for (std::uint32_t& tid : right_) tid = next(state) >> 41;
    std::sort(left_.begin(), left_.end());
    std::sort(right_.begin(), right_.end());
    checksum_ = run();  // also faults every page in before any timing
  }

  /// One pass; false when its checksum differs from the first pass's.
  bool run_checked() { return run() == checksum_; }

 private:
  static constexpr std::uint64_t kSeed = 0x9E3779B97F4A7C15ull;

  static std::uint64_t next(std::uint64_t& state) {  // xorshift64
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }

  std::uint64_t run() {
    std::uint64_t state = kSeed;
    for (std::uint32_t& key : keys_) {
      key = static_cast<std::uint32_t>(next(state));
    }
    std::sort(keys_.begin(), keys_.end());
    const auto end = std::set_intersection(left_.begin(), left_.end(),
                                           right_.begin(), right_.end(),
                                           common_.begin());
    const auto common = static_cast<std::uint64_t>(end - common_.begin());
    std::fill(counters_.begin(), counters_.end(), 0);
    const std::size_t mask = counters_.size() - 1;
    for (std::size_t i = 0; i < (std::size_t{1} << 20); ++i) {
      ++counters_[next(state) & mask];
    }
    return keys_[keys_.size() / 3] + common + counters_[state & mask];
  }

  std::vector<std::uint32_t> keys_, left_, right_, common_, counters_;
  std::uint64_t checksum_ = 0;
};

/// One probe per thread of the widest call; time(w) runs w of them at
/// once, one per thread, as a W-thread call runs.
class HostProbes {
 public:
  explicit HostProbes(std::size_t width) : probes_(width) {}

  /// Wall seconds of one pass on each of `width` threads; nothing when a
  /// checksum differed.
  std::optional<double> time(std::size_t width) {
    std::vector<char> ok(width, 0);
    const std::int64_t start = wall_ns();
    {
      std::vector<std::jthread> helpers;
      for (std::size_t t = 1; t < width; ++t) {
        helpers.emplace_back(
            [this, t, &ok] { ok[t] = probes_[t].run_checked(); });
      }
      ok[0] = probes_[0].run_checked();
    }  // joins the helpers
    const double seconds = seconds_since(start);
    if (std::find(ok.begin(), ok.end(), 0) != ok.end()) return std::nullopt;
    return seconds;
  }

 private:
  std::vector<HostProbe> probes_;
};

/// Call times in seconds of the reference host: each one times the
/// reference probe time over the median of the probes of the rounds around
/// it (kProbeWindow on either side), so a host that slows down for part of
/// a run slows down the probes of that part as well.
std::vector<double> on_reference_host(const std::vector<double>& calls,
                                      const std::vector<double>& probes,
                                      double reference_probe_s) {
  std::vector<double> scaled(calls.size());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const std::size_t first = i < kProbeWindow ? 0 : i - kProbeWindow;
    const std::size_t last = std::min(probes.size(), i + kProbeWindow + 1);
    scaled[i] = calls[i] * reference_probe_s /
                median(std::vector<double>(probes.begin() + first,
                                           probes.begin() + last));
  }
  return scaled;
}

/// The run's database: the workload's baskets in an order drawn by
/// `seed`, renumbered 0..D-1 (--smoke: the first 1/divisor of them).
HorizontalDatabase make_database(const Workload& workload,
                                 std::uint64_t seed, std::size_t divisor) {
  gen::QuestConfig config = workload.data;
  config.num_transactions /= divisor;
  const HorizontalDatabase generated = gen::QuestGenerator(config).generate();
  std::vector<Transaction> shuffled = generated.transactions();
  Rng rng(seed);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
  }
  for (std::size_t i = 0; i < shuffled.size(); ++i) {
    shuffled[i].tid = static_cast<Tid>(i);
  }
  return HorizontalDatabase(std::move(shuffled), generated.num_items());
}

/// Runs `body` in a forked child process and returns the number it
/// computed, or nothing when the child failed. Work done there never counts
/// toward this process's peak RSS, and each child starts from a fresh
/// address space, as a user's program does.
template <typename Body>
std::optional<double> run_in_child(const Body& body) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return std::nullopt;
  std::fflush(nullptr);
  const pid_t child = fork();
  if (child == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive a killed benchmark
    close(pipe_fds[0]);
    int code = 1;
    try {
      const double value = body();
      if (write(pipe_fds[1], &value, sizeof value) == sizeof value) code = 0;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "bench_e2e: %s\n", error.what());
    }
    // A forked child must not run the parent's atexit handlers.
    // eclat-lint: allow(contract-abort) forked child exits with its status
    std::_Exit(code);
  }
  close(pipe_fds[1]);
  double value = 0.0;
  const bool got = child > 0 && read(pipe_fds[0], &value, sizeof value) ==
                                    static_cast<ssize_t>(sizeof value);
  close(pipe_fds[0]);
  int status = 0;
  if (child < 0 || waitpid(child, &status, 0) != child || !got ||
      !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  return value;
}

api::MineOptions options_for(const Workload& workload,
                             api::Algorithm algorithm, std::size_t threads) {
  api::MineOptions options;
  options.algorithm = algorithm;
  options.min_support = workload.min_support;
  options.kernel = workload.kernel;
  if (algorithm == api::Algorithm::kParEclat) {
    options.backend = exec::BackendKind::kThreads;
    options.exec_threads = threads;
  }
  return options;
}

/// One timed facade call. `ok` is false when the call threw or its output
/// bytes differ from the oracle's.
struct CallRecord {
  bool ok = false;
  double wall_s = 0.0;
  double backend_wall_s = 0.0;
  std::map<std::string, double> phases;
  std::uint64_t task_failures = 0;
};

CallRecord timed_call(const HorizontalDatabase& db,
                      const api::MineOptions& options,
                      const std::vector<std::uint8_t>& oracle) {
  CallRecord record;
  try {
    const std::int64_t start = wall_ns();
    par::ParallelOutput output = api::mine_with_stats(db, options);
    record.wall_s = seconds_since(start);
    record.ok = result_to_bytes(output.result) == oracle;
    if (!record.ok) {
      std::fprintf(stderr, "bench_e2e: call output differs from the oracle\n");
    }
    record.backend_wall_s = output.wall_seconds;
    record.phases = std::move(output.phase_seconds);
    record.task_failures = output.exec_task_failures;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_e2e: mine call threw: %s\n", error.what());
    record.ok = false;
  }
  return record;
}

/// What one traced replica pass produced, besides its spans.
struct ReplicaPass {
  std::size_t root = 0;  ///< index of the pass's root span
  std::vector<std::uint8_t> bytes;
  IntersectStats stats;
  std::uint64_t tidlist_bytes = 0;
  std::uint64_t file_bytes = 0;
  std::size_t classes = 0;
  std::size_t mined_itemsets = 0;
  std::vector<double> class_weights;     ///< C(s,2) per mined class
  std::vector<std::size_t> class_spans;  ///< its eclat.class span
};

/// Replays the Par-Eclat pipeline at W = 1, stage by stage in the thread
/// backend's order, with one span around each call into a library layer.
ReplicaPass replica_pass(const Workload& workload, const std::string& path,
                         Tracer& tracer) {
  ReplicaPass pass;
  pass.root = tracer.spans().size();
  const bool diffsets = workload.algorithm == api::Algorithm::kEclatDiffsets;
  HorizontalDatabase db;
  MiningResult result;
  {
    ScopedSpan root(tracer, "replica");
    {
      ScopedSpan span(tracer, "data.read");
      db = read_binary_file(path);
    }
    const Count minsup = absolute_support(workload.min_support, db.size());
    const std::span<const Transaction> all(db.transactions());
    TriangleCounter counter(db.num_items());
    {
      ScopedSpan span(tracer, "vertical.count");
      counter.count(all);
    }
    std::vector<Count> item_counts;
    {
      ScopedSpan span(tracer, "vertical.count_items");
      item_counts = count_items(all, db.num_items());
    }
    par::MiningPlan plan;
    {
      ScopedSpan span(tracer, "parallel.plan");
      plan = par::derive_plan(counter, minsup, 1,
                              par::ScheduleHeuristic::kGreedyWeight);
    }
    std::unordered_map<PairKey, TidList> lists;
    {
      ScopedSpan span(tracer, "vertical.invert");
      lists = invert_pairs(all, plan.exchanged_pairs);
    }
    for (const auto& [key, tids] : lists) {
      pass.tidlist_bytes += tids.size() * sizeof(Tid);
    }
    pass.classes = plan.classes.size();
    std::vector<FrequentItemset> found;
    std::vector<std::size_t> histogram;
    TidArena arena;
    {
      ScopedSpan span(tracer, "eclat.mine");
      for (const EquivalenceClass& eq_class : plan.classes) {
        if (eq_class.size() < 2) continue;  // no candidates (§4.1)
        std::vector<Atom> atoms;
        {
          ScopedSpan take(tracer, "parallel.take_atoms");
          atoms = par::take_class_atoms(eq_class, lists);
        }
        tracer.open("eclat.class");
        if (diffsets) {
          compute_frequent_diffsets(atoms, minsup, workload.kernel, arena,
                                    found, histogram, &pass.stats);
        } else {
          compute_frequent(atoms, minsup, workload.kernel, arena, found,
                           histogram, &pass.stats);
        }
        pass.class_spans.push_back(tracer.close());
        pass.class_weights.push_back(static_cast<double>(eq_class.weight()));
      }
    }
    pass.mined_itemsets = found.size();
    {
      ScopedSpan span(tracer, "parallel.assemble");
      result.database_scans = 3;
      par::append_singletons(result, item_counts, minsup);
      par::append_frequent_pairs(result, plan.frequent_pairs, counter);
      for (FrequentItemset& itemset : found) {
        result.itemsets.push_back(std::move(itemset));
      }
    }
    {
      ScopedSpan span(tracer, "parallel.reduce");
      par::finalize_result(result);
    }
  }
  pass.bytes = result_to_bytes(result);
  pass.file_bytes = std::filesystem::file_size(path);
  return pass;
}

bool same_stats(const IntersectStats& a, const IntersectStats& b) {
  return a.intersections == b.intersections &&
         a.short_circuited == b.short_circuited &&
         a.tids_scanned == b.tids_scanned &&
         a.words_scanned == b.words_scanned &&
         a.merge_calls == b.merge_calls && a.gallop_calls == b.gallop_calls &&
         a.bitset_calls == b.bitset_calls && a.probe_calls == b.probe_calls &&
         a.chunked_calls == b.chunked_calls &&
         a.densified == b.densified && a.sparsified == b.sparsified;
}

/// Everything one workload run measured.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;  ///< correctness failures, if any
  std::vector<double> mine_s;         ///< W = 2 call walls
  std::vector<double> mine_1t_s;      ///< W = 1 call walls
  std::vector<double> setup_s;        ///< file loads
  std::vector<double> probe_s;        ///< probes paired with mine_s
  std::vector<double> probe_1t_s;     ///< probes paired with mine_1t_s
  std::size_t replica_passes = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> details;  ///< in the result file only
  double wall_s = 0.0;

  bool correct() const { return failed == 0 && problems.empty(); }
};

/// The per-layer metrics of the replica, medians over its passes.
void add_layer_metrics(const Tracer& tracer,
                       const std::vector<ReplicaPass>& passes,
                       double mine_1t_p50, std::uint64_t pairs_counted,
                       std::optional<double> exec_async_s, Outcome& outcome) {
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  // Self seconds per span name, per pass.
  std::vector<std::map<std::string, double>> by_name(passes.size());
  std::vector<double> layers_sum(passes.size(), 0.0);
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const std::size_t end =
        p + 1 < passes.size() ? passes[p + 1].root : spans.size();
    for (std::size_t i = passes[p].root; i < end; ++i) {
      const double s = static_cast<double>(self[i]) * 1e-9;
      by_name[p][spans[i].name] += s;
      if (i != passes[p].root && spans[i].name != "data.read") {
        layers_sum[p] += s;
      }
    }
  }
  const auto layer_s = [&](std::initializer_list<const char*> names) {
    std::vector<double> per_pass;
    for (const std::map<std::string, double>& pass : by_name) {
      double sum = 0.0;
      for (const char* name : names) {
        const auto it = pass.find(name);
        if (it != pass.end()) sum += it->second;
      }
      per_pass.push_back(sum);
    }
    return median(per_pass);
  };

  const ReplicaPass& first = passes.front();
  const IntersectStats& stats = first.stats;
  const double read_s = layer_s({"data.read"});
  const double count_s = layer_s({"vertical.count"});
  const double layers = median(layers_sum);
  std::vector<Metric>& out = outcome.per_layer;
  out.push_back({"data.read_s", read_s, "s"});
  out.push_back({"data.read_mb_per_s",
                 static_cast<double>(first.file_bytes) / 1e6 / read_s,
                 "MB/s"});
  out.push_back({"vertical.count_s", count_s, "s"});
  out.push_back({"vertical.count_mpairs_per_s",
                 static_cast<double>(pairs_counted) / 1e6 / count_s,
                 "Mpairs/s"});
  out.push_back({"vertical.invert_s", layer_s({"vertical.invert"}), "s"});
  out.push_back({"vertical.intersections",
                 static_cast<double>(stats.intersections), "count"});
  out.push_back({"vertical.tids_scanned",
                 static_cast<double>(stats.tids_scanned), "count"});
  out.push_back({"vertical.words_scanned",
                 static_cast<double>(stats.words_scanned), "count"});
  out.push_back({"eclat.mine_s", layer_s({"eclat.mine", "eclat.class"}), "s"});
  out.push_back({"parallel.plan_s", layer_s({"parallel.plan"}), "s"});
  out.push_back({"parallel.assemble_s", layer_s({"parallel.assemble"}), "s"});
  out.push_back({"parallel.reduce_s", layer_s({"parallel.reduce"}), "s"});
  out.push_back({"trace.layers_sum_s", layers, "s"});
  out.push_back({"trace.unaccounted_frac", 1.0 - layers / mine_1t_p50,
                 "ratio"});

  // Per-class seconds (median over passes) for the schedule metrics. Pass
  // class counts only differ when the run is already marked incorrect.
  std::size_t mined = first.class_spans.size();
  for (const ReplicaPass& pass : passes) {
    mined = std::min(mined, pass.class_spans.size());
  }
  std::vector<double> class_s(mined);
  for (std::size_t c = 0; c < mined; ++c) {
    std::vector<double> per_pass;
    for (const ReplicaPass& pass : passes) {
      per_pass.push_back(
          static_cast<double>(spans[pass.class_spans[c]].duration_ns()) *
          1e-9);
    }
    class_s[c] = median(per_pass);
  }
  const double class_total = std::accumulate(class_s.begin(), class_s.end(),
                                             0.0);
  const double class_max =
      mined == 0 ? 0.0 : *std::max_element(class_s.begin(), class_s.end());

  std::vector<Metric>& more = outcome.details;
  more.push_back({"vertical.count_items_s", layer_s({"vertical.count_items"}),
                  "s"});
  more.push_back({"vertical.tidlist_mb",
                  static_cast<double>(first.tidlist_bytes) / 1e6, "MB"});
  more.push_back({"vertical.conversions",
                  static_cast<double>(stats.densified + stats.sparsified),
                  "count"});
  more.push_back({"vertical.calls.merge",
                  static_cast<double>(stats.merge_calls), "count"});
  more.push_back({"vertical.calls.gallop",
                  static_cast<double>(stats.gallop_calls), "count"});
  more.push_back({"vertical.calls.bitset",
                  static_cast<double>(stats.bitset_calls), "count"});
  more.push_back({"vertical.calls.probe",
                  static_cast<double>(stats.probe_calls), "count"});
  more.push_back({"vertical.calls.chunked",
                  static_cast<double>(stats.chunked_calls), "count"});
  more.push_back({"eclat.classes", static_cast<double>(first.classes),
                  "count"});
  more.push_back({"eclat.mined_classes", static_cast<double>(mined), "count"});
  more.push_back({"parallel.take_atoms_s", layer_s({"parallel.take_atoms"}),
                  "s"});
  if (stats.intersections > 0) {
    const double n = static_cast<double>(stats.intersections);
    more.push_back({"vertical.short_circuit_frac",
                    static_cast<double>(stats.short_circuited) / n, "ratio"});
    more.push_back({"vertical.simd_frac",
                    static_cast<double>(stats.simd_word_calls +
                                        stats.simd_sparse_calls) / n,
                    "ratio"});
    more.push_back({"eclat.useful_frac",
                    static_cast<double>(first.mined_itemsets) / n, "ratio"});
  }
  if (class_total > 0.0) {
    const double lpt = std::max(class_total / kWorkers, class_max);
    more.push_back({"eclat.max_class_frac", class_max / class_total, "ratio"});
    more.push_back({"parallel.lpt_bound_s", lpt, "s"});
    if (const std::optional<double> rho =
            spearman(first.class_weights, class_s)) {
      more.push_back({"parallel.weight_rank_corr", *rho, "ratio"});
    }
    if (exec_async_s) {
      more.push_back({"exec.async_efficiency", lpt / *exec_async_s, "ratio"});
    }
  }
}

Outcome run_workload(const Workload& workload, const RunConfig& config) {
  Outcome outcome;
  const std::int64_t started = wall_ns();
  const std::size_t divisor = config.smoke ? kSmokeDivisor : 1;
  const std::string stem = config.workdir + "/" + workload.name + ".seed" +
                           std::to_string(config.seed);
  const std::string db_path = stem + ".db";

  // Inputs: generate from the seed and write as ECLATHDB, in a child since
  // generating holds two copies of the data at once. setup_s times
  // kSetupLoads loads of the file, each in a fresh process: one process's
  // load time varies by up to 2x with where its memory lands, while loads
  // within a process agree.
  const bool written = run_in_child([&] {
    write_binary_file(make_database(workload, config.seed, divisor), db_path);
    return 0.0;
  }).has_value();
  if (!written) {
    outcome.problems.push_back("cannot generate " + db_path);
    return outcome;
  }
  for (std::size_t i = 0; i < kSetupLoads; ++i) {
    const std::optional<double> load_s = run_in_child([&] {
      const std::int64_t start = wall_ns();
      const HorizontalDatabase loaded = read_binary_file(db_path);
      return seconds_since(start);
    });
    if (!load_s) {
      outcome.problems.push_back("cannot load " + db_path);
      return outcome;
    }
    outcome.setup_s.push_back(*load_s);
  }

  const bool parallel = workload.algorithm == api::Algorithm::kParEclat;
  const std::size_t width = parallel ? kWorkers : 1;
  const api::MineOptions wide =
      options_for(workload, workload.algorithm, width);
  const api::MineOptions single = options_for(workload, workload.algorithm, 1);

  // peak_rss_mb: a fresh process loads the file and makes kRssCalls W = 1
  // calls, so the figure depends neither on the run's length nor on the
  // probes' buffers. W = 1 because the peak of W = 2 calls depends on which
  // classes the two workers happen to hold at once: it read 53 or 65 MB on
  // dense-n64 from one run to the next.
  const std::optional<double> rss_mb = run_in_child([&] {
    const HorizontalDatabase loaded = read_binary_file(db_path);
    for (std::size_t i = 0; i < kRssCalls; ++i) {
      api::mine_with_stats(loaded, single);
    }
    return peak_rss_mb();
  });
  if (!rss_mb) {
    outcome.problems.push_back("cannot mine " + db_path + " in a child");
    return outcome;
  }

  const HorizontalDatabase db = read_binary_file(db_path);
  std::uint64_t pairs_counted = 0;
  for (const Transaction& transaction : db.transactions()) {
    const std::uint64_t n = transaction.items.size();
    if (n >= 2) pairs_counted += n * (n - 1) / 2;
  }

  std::vector<std::uint8_t> oracle;
  std::size_t itemsets = 0;
  {
    const MiningResult expected =
        api::mine(db, options_for(workload, api::Algorithm::kEclat, 1));
    oracle = result_to_bytes(expected);
    itemsets = expected.itemsets.size();
  }

  std::vector<CallRecord> wide_calls;
  std::uint64_t task_failures = 0;
  const auto call = [&](const api::MineOptions& options) {
    CallRecord record = timed_call(db, options, oracle);
    ++outcome.attempted;
    if (!record.ok) ++outcome.failed;
    task_failures += record.task_failures;
    return record;
  };
  // A call's sample is kept with the probe that follows it, or not at all,
  // so samples and probes pair up by round.
  HostProbes probes(width);
  bool probe_ok = true;
  const auto sample = [&](const CallRecord& record, std::size_t threads,
                          std::vector<double>& calls,
                          std::vector<double>& probed) {
    const std::optional<double> seconds = probes.time(threads);
    probe_ok = probe_ok && seconds.has_value();
    if (!record.ok || !seconds) return false;
    calls.push_back(record.wall_s);
    probed.push_back(*seconds);
    return true;
  };

  const bool traced = config.trace || config.smoke;
  Tracer tracer;
  std::vector<ReplicaPass> passes;
  const auto replica = [&] {
    passes.push_back(replica_pass(workload, db_path, tracer));
    if (passes.back().bytes != oracle) {
      outcome.problems.push_back("replica output differs from the oracle");
    }
    const ReplicaPass& last = passes.back();
    if (!same_stats(last.stats, passes.front().stats) ||
        last.class_spans.size() != passes.front().class_spans.size()) {
      outcome.problems.push_back("replica work counts differ across passes");
    }
  };

  // Warmup: one call at each width (the probes ran once when built). Then
  // the closed loop, in rounds until --seconds have passed (--smoke:
  // kSmokeRepeats rounds). A round is a W = 2 call and a W = 1 call (a
  // sequential workload: one call), each followed by a probe at its width;
  // a traced run adds a replica pass, so the per-layer times are taken
  // under the same host conditions as the W = 1 calls they are checked
  // against.
  call(wide);
  if (parallel) call(single);
  const std::int64_t deadline =
      wall_ns() + static_cast<std::int64_t>(config.seconds * 1e9);
  for (std::size_t rounds = 0;
       config.smoke ? rounds < kSmokeRepeats
                    : rounds == 0 || wall_ns() < deadline;
       ++rounds) {
    CallRecord record = call(wide);
    if (sample(record, width, outcome.mine_s, outcome.probe_s)) {
      wide_calls.push_back(std::move(record));
    }
    if (parallel) {
      sample(call(single), 1, outcome.mine_1t_s, outcome.probe_1t_s);
    }
    if (traced) replica();
  }
  while (traced && passes.size() < kMinReplicaPasses) replica();
  // Sequential workloads have one thread count: mine_1t_s is mine_s.
  if (!parallel) {
    outcome.mine_1t_s = outcome.mine_s;
    outcome.probe_1t_s = outcome.probe_s;
  }
  if (!probe_ok) outcome.problems.push_back("host probe checksum differs");

  if (outcome.mine_s.empty() || outcome.mine_1t_s.empty() ||
      outcome.probe_s.empty() || outcome.probe_1t_s.empty()) {
    outcome.problems.push_back("no call succeeded");
    std::filesystem::remove(db_path);
    return outcome;
  }
  const double mine_p50 = median(outcome.mine_s);
  const double mine_p75 = quantile(outcome.mine_s, 0.75);
  const double mine_1t_p50 = median(outcome.mine_1t_s);
  const double setup_p50 = median(outcome.setup_s);
  const std::vector<double> mine_ref = on_reference_host(
      outcome.mine_s, outcome.probe_s,
      parallel ? kProbeSecondsW : kProbeSeconds1);
  const std::vector<double> mine_1t_ref =
      on_reference_host(outcome.mine_1t_s, outcome.probe_1t_s, kProbeSeconds1);
  outcome.end_to_end = {
      {"mine_s.p50", median(mine_ref), "s"},
      {"mine_s.p75", quantile(mine_ref, 0.75), "s"},
      {"mine_1t_s.p50", median(mine_1t_ref), "s"},
      {"setup_s", setup_p50 * kProbeSeconds1 / median(outcome.probe_1t_s),
       "s"},
      {"peak_rss_mb", *rss_mb, "MB"},
  };
  outcome.details.push_back({"host.probe_s", median(outcome.probe_s), "s"});
  outcome.details.push_back(
      {"host.probe_1t_s", median(outcome.probe_1t_s), "s"});
  outcome.details.push_back({"mine_raw_s.p50", mine_p50, "s"});
  outcome.details.push_back({"mine_raw_s.p75", mine_p75, "s"});
  outcome.details.push_back({"mine_1t_raw_s.p50", mine_1t_p50, "s"});
  outcome.details.push_back({"setup_raw_s", setup_p50, "s"});
  outcome.details.push_back(
      {"eclat.itemsets", static_cast<double>(itemsets), "count"});

  // The exec layer, read off the W = 2 calls' ParallelOutput.
  std::optional<double> exec_async_s;
  if (parallel) {
    const auto phase = [&](const char* name) {
      std::vector<double> values;
      for (const CallRecord& record : wide_calls) {
        const auto it = record.phases.find(name);
        values.push_back(it == record.phases.end() ? 0.0 : it->second);
      }
      return median(values);
    };
    std::vector<double> overhead;
    for (const CallRecord& record : wide_calls) {
      overhead.push_back(record.wall_s - record.backend_wall_s);
    }
    outcome.details.push_back({"exec.init_s", phase("initialization"), "s"});
    outcome.details.push_back({"exec.transform_s", phase("transformation"),
                               "s"});
    exec_async_s = phase("asynchronous");
    outcome.details.push_back({"exec.async_s", *exec_async_s, "s"});
    outcome.details.push_back({"exec.reduce_s", phase("reduction"), "s"});
    outcome.details.push_back({"exec.speedup", mine_1t_p50 / mine_p50,
                               "ratio"});
    outcome.details.push_back({"exec.task_failures",
                               static_cast<double>(task_failures), "count"});
    outcome.details.push_back({"api.overhead_s", median(overhead), "s"});
  }

  if (traced) {
    outcome.replica_passes = passes.size();
    if (const std::string problem = check_span_tree(tracer.spans());
        !problem.empty()) {
      outcome.problems.push_back("trace: " + problem);
    }
    // The file keeps the first kMinReplicaPasses passes; the metrics use all.
    const std::vector<Span>& spans = tracer.spans();
    const std::size_t kept = passes.size() > kMinReplicaPasses
                                 ? passes[kMinReplicaPasses].root
                                 : spans.size();
    const std::string trace_path = stem + ".trace.json";
    if (!write_chrome_trace(trace_path, std::span(spans).first(kept))) {
      outcome.problems.push_back("cannot write " + trace_path);
    }
    add_layer_metrics(tracer, passes, mine_1t_p50, pairs_counted, exec_async_s,
                      outcome);
  }
  std::filesystem::remove(db_path);
  outcome.wall_s = seconds_since(started);
  return outcome;
}

/// Writes `"name": {"value": v, "unit": u}` members separated by commas,
/// each preceded by `indent`.
void print_metrics(std::FILE* out, const std::vector<Metric>& metrics,
                   const char* indent) {
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(out, "%s%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ",", indent, metrics[i].name.c_str(),
                 metrics[i].value, metrics[i].unit.c_str());
  }
}

void print_samples(std::FILE* out, const char* name,
                   const std::vector<double>& values, bool last) {
  std::fprintf(out, "    \"%s\": [", name);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::fprintf(out, "%s%.6g", i == 0 ? "" : ", ", values[i]);
  }
  std::fprintf(out, "]%s\n", last ? "" : ",");
}

/// The full result: honesty fields, sample counts, every metric, raw
/// samples. Returns false when the file cannot be written.
bool write_result(const std::string& path, const Workload& workload,
                  const RunConfig& config, const char* mode,
                  const Outcome& outcome) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const bool parallel = workload.algorithm == api::Algorithm::kParEclat;
  std::fprintf(out, "{\n  \"benchmark\": \"bench_e2e\",\n");
  write_backend_fields(out, parallel ? "threads" : "host", "wall",
                       outcome.wall_s);
  std::fprintf(out,
               "  \"workload\": \"%s\",\n  \"mode\": \"%s\",\n"
               "  \"seed\": %llu,\n  \"seconds\": %g,\n"
               "  \"host_cores\": %u,\n  \"threads\": %zu,\n"
               "  \"kernel\": \"%s\",\n  \"build_type\": \"%s\",\n"
               "  \"authoritative\": %s,\n  \"claim\": null,\n",
               workload.name, mode,
               static_cast<unsigned long long>(config.seed), config.seconds,
               std::thread::hardware_concurrency(), parallel ? kWorkers : 1,
               kernel_name(workload.kernel), ECLAT_BENCH_BUILD_TYPE,
               kOptimized && !kSanitized ? "true" : "false");
  std::fprintf(out,
               "  \"samples\": {\"mine_s\": %zu, \"mine_1t_s\": %zu, "
               "\"setup_s\": %zu, \"probe_s\": %zu, \"probe_1t_s\": %zu, "
               "\"replica_passes\": %zu},\n",
               outcome.mine_s.size(), outcome.mine_1t_s.size(),
               outcome.setup_s.size(), outcome.probe_s.size(),
               outcome.probe_1t_s.size(), outcome.replica_passes);
  std::fprintf(out,
               "  \"correct\": %s,\n  \"attempted\": %zu,\n"
               "  \"failed\": %zu,\n  \"failed_frac\": %.6g,\n",
               outcome.correct() ? "true" : "false", outcome.attempted,
               outcome.failed,
               outcome.attempted == 0
                   ? 0.0
                   : static_cast<double>(outcome.failed) /
                         static_cast<double>(outcome.attempted));
  std::fprintf(out, "  \"problems\": [");
  for (std::size_t i = 0; i < outcome.problems.size(); ++i) {
    std::fprintf(out, "%s\"%s\"", i == 0 ? "" : ", ",
                 outcome.problems[i].c_str());
  }
  std::fprintf(out, "],\n  \"end_to_end\": {");
  print_metrics(out, outcome.end_to_end, "\n    ");
  std::fprintf(out, "},\n  \"per_layer\": {");
  print_metrics(out, outcome.per_layer, "\n    ");
  std::fprintf(out, "},\n  \"details\": {");
  print_metrics(out, outcome.details, "\n    ");
  std::fprintf(out, "},\n  \"raw\": {\n");
  print_samples(out, "mine_s", outcome.mine_s, false);
  print_samples(out, "mine_1t_s", outcome.mine_1t_s, false);
  print_samples(out, "setup_s", outcome.setup_s, false);
  print_samples(out, "probe_s", outcome.probe_s, false);
  print_samples(out, "probe_1t_s", outcome.probe_1t_s, true);
  std::fprintf(out, "  }\n}\n");
  return std::fclose(out) == 0;
}

void print_table(const Workload& workload, const Outcome& outcome) {
  std::printf("bench_e2e %s: %zu calls, %zu failed, %zu/%zu samples at "
              "W=%zu/W=1\n",
              workload.name, outcome.attempted, outcome.failed,
              outcome.mine_s.size(), outcome.mine_1t_s.size(), kWorkers);
  for (const std::vector<Metric>* group :
       {&outcome.end_to_end, &outcome.per_layer, &outcome.details}) {
    for (const Metric& metric : *group) {
      std::printf("  %-30s %14.6g %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  for (const std::string& problem : outcome.problems) {
    std::printf("  PROBLEM: %s\n", problem.c_str());
  }
}

/// The self-time arithmetic on known span trees.
std::vector<std::string> trace_self_tests() {
  std::vector<std::string> failures;
  std::vector<Span> spans = {{"root", 0, 100, kNoParent},
                             {"a", 10, 40, 0},
                             {"a.x", 20, 30, 1},
                             {"b", 50, 90, 0}};
  if (self_times(spans) != std::vector<std::int64_t>{30, 20, 10, 40}) {
    failures.push_back("self times of a nested tree are wrong");
  }
  if (!check_span_tree(spans).empty()) {
    failures.push_back("a well-formed tree was rejected");
  }
  std::vector<Span> outliving = spans;
  outliving[3].end_ns = 110;
  if (check_span_tree(outliving).find("outlives") == std::string::npos) {
    failures.push_back("a child outliving its parent was not caught");
  }
  std::vector<Span> overlapping = spans;
  overlapping[3].start_ns = 30;
  if (check_span_tree(overlapping).find("sum to") == std::string::npos) {
    failures.push_back("overlapping siblings were not caught");
  }
  return failures;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

int smoke(RunConfig config) {
  config.smoke = true;
  int status = 0;
  for (const std::string& failure : trace_self_tests()) {
    std::printf("bench_e2e smoke: trace self-test: %s\n", failure.c_str());
    status = 1;
  }
  for (const Workload& workload : kWorkloads) {
    const Outcome outcome = run_workload(workload, config);
    print_table(workload, outcome);
    const std::string path = config.results + "/" + workload.name + ".seed" +
                             std::to_string(config.seed) + ".smoke.json";
    if (!write_result(path, workload, config, "smoke", outcome)) {
      std::printf("bench_e2e smoke: cannot write %s\n", path.c_str());
      status = 1;
    }
    if (!outcome.correct()) status = 1;
  }
  std::printf("bench_e2e smoke: %s\n", status == 0 ? "ok" : "FAILED");
  return status;
}

int run(const Flags& flags) {
  RunConfig config;
  config.seed = flags.get_uint("seed", 1);
  config.seconds = flags.get_double("seconds", 10.0);
  config.trace = flags.get_int("trace", 0) != 0;
  config.workdir = flags.get("workdir", ".bench_build/bench_e2e-work");
  config.results = flags.get("results", config.workdir);
  std::filesystem::create_directories(config.workdir);
  std::filesystem::create_directories(config.results);
  if (flags.has("smoke")) return smoke(config);

  const std::string name = flags.get("workload", "");
  const Workload* workload = find_workload(name);
  if (workload == nullptr) {
    std::fprintf(stderr, "bench_e2e: unknown --workload '%s'; one of:",
                 name.c_str());
    for (const Workload& known : kWorkloads) {
      std::fprintf(stderr, " %s", known.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (!(config.seconds > 0.0)) {
    std::fprintf(stderr, "bench_e2e: --seconds must be positive\n");
    return 2;
  }

  const Outcome outcome = run_workload(*workload, config);
  print_table(*workload, outcome);
  const char* mode = config.trace ? "layers" : "e2e";
  const std::string path = config.results + "/" + workload->name + ".seed" +
                           std::to_string(config.seed) + "." + mode + ".json";
  if (!write_result(path, *workload, config, mode, outcome)) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
    return 2;
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              outcome.correct() ? "true" : "false", outcome.attempted,
              outcome.failed);
  print_metrics(stdout, config.trace ? outcome.per_layer : outcome.end_to_end,
                " ");
  std::printf("}}\n");
  return outcome.correct() ? 0 : 1;
}

}  // namespace
}  // namespace eclat::bench

int main(int argc, char** argv) {
  try {
    return eclat::bench::run(eclat::Flags(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_e2e: %s\n", error.what());
    return 2;
  }
}
