#include "api/mining.hpp"

#include <stdexcept>

namespace eclat::api {

namespace {

// Only par_eclat runs on the native thread backend so far; give the
// other parallel algorithms a pointed error instead of silently ignoring
// --backend=threads.
void require_mc_backend(const MineOptions& options, const char* algorithm) {
  if (options.backend == exec::BackendKind::kMc) return;
  throw std::invalid_argument(
      std::string("algorithm '") + algorithm +
      "' only runs on the mc backend; use --backend=mc (the default) or "
      "switch to --algorithm=pareclat for --backend=threads");
}

}  // namespace

par::ParallelOutput mine_with_stats(const HorizontalDatabase& db,
                                    const MineOptions& options) {
  const Count minsup = absolute_support(options.min_support, db.size());
  switch (options.algorithm) {
    case Algorithm::kEclat: {
      par::ParallelOutput output;
      EclatConfig config;
      config.minsup = minsup;
      config.kernel = options.kernel;
      output.result = eclat_sequential(db, config);
      return output;
    }
    case Algorithm::kEclatDiffsets: {
      par::ParallelOutput output;
      EclatConfig config;
      config.minsup = minsup;
      config.kernel = options.kernel;
      config.use_diffsets = true;
      output.result = eclat_sequential(db, config);
      return output;
    }
    case Algorithm::kApriori: {
      par::ParallelOutput output;
      AprioriConfig config;
      config.minsup = minsup;
      output.result = apriori(db, config);
      return output;
    }
    case Algorithm::kDhp: {
      par::ParallelOutput output;
      DhpConfig config;
      config.minsup = minsup;
      output.result = dhp(db, config);
      return output;
    }
    case Algorithm::kPartition: {
      par::ParallelOutput output;
      PartitionConfig config;
      config.minsup = minsup;
      output.result = partition_mine(db, config);
      return output;
    }
    case Algorithm::kParEclat: {
      par::ParEclatConfig config;
      config.minsup = minsup;
      config.kernel = options.kernel;
      config.replication = options.replication;
      if (options.backend == exec::BackendKind::kMc) {
        mc::Cluster cluster(options.topology, options.cost);
        return par::par_eclat(cluster, db, config);
      }
      exec::ThreadBackendOptions thread_options;
      thread_options.threads = options.exec_threads;
      thread_options.max_retries = options.exec_max_retries;
      thread_options.mem_budget = options.exec_mem_budget;
      thread_options.faults = options.exec_faults;
      return exec::thread_eclat(db, config, thread_options);
    }
    case Algorithm::kHybridEclat: {
      require_mc_backend(options, "hybrid");
      mc::Cluster cluster(options.topology, options.cost);
      par::ParEclatConfig config;
      config.minsup = minsup;
      config.kernel = options.kernel;
      return par::hybrid_eclat(cluster, db, config);
    }
    case Algorithm::kCountDistribution: {
      require_mc_backend(options, "cd");
      mc::Cluster cluster(options.topology, options.cost);
      par::CountDistributionConfig config;
      config.minsup = minsup;
      return par::count_distribution(cluster, db, config);
    }
  }
  throw std::invalid_argument("unknown algorithm");
}

MiningResult mine(const HorizontalDatabase& db, const MineOptions& options) {
  return mine_with_stats(db, options).result;
}

std::vector<AssociationRule> mine_rules(const HorizontalDatabase& db,
                                        const MineOptions& options,
                                        double min_confidence) {
  const MiningResult result = mine(db, options);
  return generate_rules(result, db.size(), RuleConfig{min_confidence});
}

Algorithm parse_algorithm(const std::string& name) {
  if (name == "eclat") return Algorithm::kEclat;
  if (name == "declat" || name == "diffsets") return Algorithm::kEclatDiffsets;
  if (name == "apriori") return Algorithm::kApriori;
  if (name == "dhp") return Algorithm::kDhp;
  if (name == "partition") return Algorithm::kPartition;
  if (name == "pareclat" || name == "par-eclat") return Algorithm::kParEclat;
  if (name == "hybrid" || name == "hybrid-eclat") {
    return Algorithm::kHybridEclat;
  }
  if (name == "cd" || name == "count-distribution") {
    return Algorithm::kCountDistribution;
  }
  throw std::invalid_argument("unknown algorithm name: " + name);
}

}  // namespace eclat::api
