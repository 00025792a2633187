// Parallel-algorithm shoot-out (paper §3 + §8): Count Distribution,
// Data Distribution, Candidate Distribution, parallel Eclat and hybrid
// Eclat on the same database and cluster.
//
// Paper's ordering to reproduce: Data Distribution performs "very poorly"
// (ships the database every iteration); Candidate Distribution "performs
// worse than Count Distribution" (pays redistribution without amortizing
// it); Eclat beats Count Distribution by an order of magnitude.
//
// Exits 1 when hybrid Eclat's result bytes differ from Eclat's: the two
// share the mining plan and the class miner, so they must agree exactly.
//
//   ./bench_parallel_algorithms [--scale=0.02] [--support=0.001]
//                               [--hosts=4] [--procs=2]
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "data/result_io.hpp"
#include "parallel/candidate_distribution.hpp"
#include "parallel/data_distribution.hpp"
#include "parallel/hybrid.hpp"

int main(int argc, char** argv) {
  using namespace eclat;
  using namespace eclat::bench;
  const Flags flags(argc, argv);
  const double scale = flags.get_double("scale", 0.02);
  const double support = flags.get_double("support", kPaperSupport);
  const mc::Topology topology{
      static_cast<std::size_t>(flags.get_int("hosts", 4)),
      static_cast<std::size_t>(flags.get_int("procs", 2))};

  const HorizontalDatabase db = make_database(kPaperDatabases[0], scale);
  const Count minsup = absolute_support(support, db.size());

  std::printf("Parallel algorithms on %s, support %.2f%%, cluster %s\n",
              scaled_name(kPaperDatabases[0], scale).c_str(),
              support * 100.0, topology.label().c_str());
  print_rule('=', 88);
  std::printf("%-26s %12s %14s %12s %10s\n", "algorithm", "total (s)",
              "MC traffic MB", "itemsets", "vs eclat");
  print_rule('-', 88);

  double eclat_seconds = 0.0;
  std::vector<std::uint8_t> eclat_bytes;
  const auto report = [&](const char* name,
                          const par::ParallelOutput& output) {
    std::printf("%-26s %12.2f %14.2f %12zu %9.1fx\n", name,
                output.total_seconds,
                static_cast<double>(output.mc_bytes) / 1e6,
                output.result.itemsets.size(),
                eclat_seconds > 0 ? output.total_seconds / eclat_seconds
                                  : 1.0);
  };

  {
    mc::Cluster cluster(topology);
    par::ParEclatConfig config;
    config.minsup = minsup;
    config.include_singletons = false;
    const auto output = par::par_eclat(cluster, db, config);
    eclat_seconds = output.total_seconds;
    eclat_bytes = result_to_bytes(output.result);
    report("eclat", output);
  }
  {
    mc::Cluster cluster(topology);
    par::ParEclatConfig config;
    config.minsup = minsup;
    config.include_singletons = false;
    const auto output = par::hybrid_eclat(cluster, db, config);
    report("eclat (hybrid, §8.1)", output);
    if (result_to_bytes(output.result) != eclat_bytes) {
      std::fprintf(stderr, "hybrid Eclat's result bytes differ from Eclat's\n");
      return 1;
    }
  }
  {
    mc::Cluster cluster(topology);
    par::CountDistributionConfig config;
    config.minsup = minsup;
    report("count distribution", par::count_distribution(cluster, db,
                                                         config));
  }
  {
    mc::Cluster cluster(topology);
    par::CandidateDistributionConfig config;
    config.minsup = minsup;
    report("candidate distribution",
           par::candidate_distribution(cluster, db, config));
  }
  {
    mc::Cluster cluster(topology);
    par::DataDistributionConfig config;
    config.minsup = minsup;
    report("data distribution", par::data_distribution(cluster, db,
                                                       config));
  }
  print_rule('-', 88);
  std::printf("Expected order (paper §3): eclat < CD < CandD < DD; note "
              "eclat rows exclude singletons\n(the paper's Eclat never "
              "counts 1-itemsets), so their itemset totals differ from "
              "the\nApriori-family rows by |L1|.\n");
  return 0;
}
