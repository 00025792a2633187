#include "partition/partition.hpp"

#include <algorithm>
#include <cmath>

#include "apriori/candidate_gen.hpp"
#include "eclat/eclat_seq.hpp"
#include "hashtree/hash_tree.hpp"

namespace eclat {

Count local_minsup(Count global_minsup, std::size_t chunk_size,
                   std::size_t total_size) {
  if (total_size == 0) return 1;
  const double scaled = static_cast<double>(global_minsup) *
                        static_cast<double>(chunk_size) /
                        static_cast<double>(total_size);
  const Count local = static_cast<Count>(std::ceil(scaled));
  return local == 0 ? 1 : local;
}

MiningResult partition_mine(const HorizontalDatabase& db,
                            const PartitionConfig& config,
                            PartitionStats* stats) {
  MiningResult result;
  if (db.empty()) return result;
  const std::size_t chunks = std::max<std::size_t>(1, config.chunks);

  // --- Pass 1: mine every chunk completely; union the local results. ---
  ItemsetSet candidates;
  const std::vector<Block> blocks = db.block_partition(chunks);
  for (const Block& block : blocks) {
    if (block.size() == 0) continue;
    const HorizontalDatabase chunk(db.view(block), db.num_items());
    EclatConfig local_config;
    local_config.minsup = local_minsup(config.minsup, block.size(),
                                       db.size());
    const MiningResult local = eclat_sequential(chunk, local_config);
    for (const ItemsetView f : local.itemsets) {
      candidates.emplace(f.items.begin(), f.items.end());
    }
  }

  // --- Pass 2: one scan of the whole database counts every candidate.
  // Candidates are grouped by size into hash trees; the transaction loop
  // is on the outside, so this is a single physical pass. ---
  std::size_t max_size = 0;
  for (const Itemset& candidate : candidates) {
    max_size = std::max(max_size, candidate.size());
  }
  std::vector<HashTree> trees;
  trees.reserve(max_size);
  for (std::size_t k = 1; k <= max_size; ++k) {
    trees.emplace_back(k);
  }
  for (const Itemset& candidate : candidates) {
    trees[candidate.size() - 1].insert(candidate);
  }
  for (const Transaction& t : db.transactions()) {
    for (HashTree& tree : trees) tree.count_transaction(t);
  }

  std::size_t false_positives = 0;
  for (HashTree& tree : trees) {
    tree.for_each([&](const Candidate& candidate) {
      if (candidate.count >= config.minsup) {
        result.itemsets.push_back(
            FrequentItemset{candidate.items, candidate.count});
      } else {
        ++false_positives;
      }
    });
  }

  result.database_scans = 2;
  normalize(result);
  result.levels = level_stats(result);
  if (stats) {
    stats->candidates = candidates.size();
    stats->false_positives = false_positives;
    stats->database_scans = 2;
  }
  return result;
}

}  // namespace eclat
