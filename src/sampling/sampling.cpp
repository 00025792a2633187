#include "sampling/sampling.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "apriori/candidate_gen.hpp"
#include "eclat/eclat_seq.hpp"
#include "hashtree/hash_tree.hpp"
#include "vertical/vertical_db.hpp"

namespace eclat::sampling {

HorizontalDatabase draw_sample(const HorizontalDatabase& db, double fraction,
                               Rng& rng) {
  const std::size_t want = std::min(
      db.size(),
      static_cast<std::size_t>(std::llround(
          fraction * static_cast<double>(db.size()))));
  // Partial Fisher-Yates over the index space, then restore tid order.
  std::vector<std::size_t> indexes(db.size());
  std::iota(indexes.begin(), indexes.end(), 0);
  for (std::size_t i = 0; i < want; ++i) {
    const std::size_t j = i + rng.below(indexes.size() - i);
    std::swap(indexes[i], indexes[j]);
  }
  indexes.resize(want);
  std::sort(indexes.begin(), indexes.end());

  DatabaseBuilder builder;
  for (std::size_t index : indexes) builder.add(db[index].tid, db[index].items);
  return std::move(builder).finish(db.num_items());
}

Accuracy compare(const MiningResult& exact, const MiningResult& approx) {
  ItemsetSet exact_set;
  for (const ItemsetView f : exact.itemsets) {
    exact_set.emplace(f.items.begin(), f.items.end());
  }
  Accuracy accuracy;
  accuracy.exact_itemsets = exact.itemsets.size();
  accuracy.approx_itemsets = approx.itemsets.size();
  for (const ItemsetView f : approx.itemsets) {
    if (exact_set.count(Itemset(f.items.begin(), f.items.end())) != 0) {
      ++accuracy.true_positives;
    }
  }
  accuracy.precision =
      approx.itemsets.empty()
          ? 1.0
          : static_cast<double>(accuracy.true_positives) /
                static_cast<double>(approx.itemsets.size());
  accuracy.recall = exact.itemsets.empty()
                        ? 1.0
                        : static_cast<double>(accuracy.true_positives) /
                              static_cast<double>(exact.itemsets.size());
  return accuracy;
}

MiningResult sample_mine(const HorizontalDatabase& db, double min_support,
                         const SampleConfig& config) {
  Rng rng(config.seed);
  const HorizontalDatabase sample =
      draw_sample(db, config.sample_fraction, rng);
  MiningResult result;
  result.database_scans = 1;  // the sampling pass
  if (sample.empty()) return result;

  EclatConfig mine_config;
  // Floor at 2: a support-1 threshold makes *every* itemset of some
  // transaction "frequent" and the sample lattice explodes.
  mine_config.minsup = std::max<Count>(
      2, absolute_support(min_support * config.support_scale,
                          sample.size()));
  const MiningResult sampled = eclat_sequential(sample, mine_config);

  // Keep itemsets whose estimated relative support clears the original
  // threshold; report supports scaled up to the full database.
  const double scale = static_cast<double>(db.size()) /
                       static_cast<double>(sample.size());
  for (const ItemsetView f : sampled.itemsets) {
    const double estimate = static_cast<double>(f.support) /
                            static_cast<double>(sample.size());
    if (estimate >= min_support) {
      result.itemsets.push_back(
          f.items, static_cast<Count>(
                       std::llround(static_cast<double>(f.support) * scale)));
    }
  }
  normalize(result);
  return result;
}

std::vector<Itemset> negative_border(const std::vector<Itemset>& frequent,
                                     Item num_items) {
  // Split by size.
  std::size_t max_size = 0;
  for (const Itemset& itemset : frequent) {
    max_size = std::max(max_size, itemset.size());
  }
  std::vector<std::vector<Itemset>> by_level(max_size + 1);
  ItemsetSet members(frequent.begin(), frequent.end());
  for (const Itemset& itemset : frequent) {
    by_level[itemset.size()].push_back(itemset);
  }
  for (auto& level : by_level) std::sort(level.begin(), level.end(),
                                         lex_less);

  std::vector<Itemset> border;
  // Level 1: every absent singleton (its only proper subset, the empty
  // set, is trivially frequent).
  for (Item item = 0; item < num_items; ++item) {
    if (members.find({item}) == members.end()) border.push_back({item});
  }
  // Level k: candidates from the frequent (k-1)-level whose every
  // (k-1)-subset is frequent but that are not frequent themselves.
  for (std::size_t k = 2; k <= max_size + 1; ++k) {
    if (k - 1 >= by_level.size() || by_level[k - 1].empty()) break;
    std::vector<Itemset> candidates =
        generate_candidates(by_level[k - 1], k >= 3);
    for (Itemset& candidate : candidates) {
      if (members.find(candidate) == members.end()) {
        border.push_back(std::move(candidate));
      }
    }
  }
  return border;
}

ToivonenOutcome toivonen_mine(const HorizontalDatabase& db,
                              double min_support,
                              const SampleConfig& config) {
  ToivonenOutcome outcome;
  Rng rng(config.seed);
  const HorizontalDatabase sample =
      draw_sample(db, config.sample_fraction, rng);
  outcome.database_scans = 1;
  if (sample.empty() || db.empty()) {
    outcome.certified = db.empty();
    return outcome;
  }

  EclatConfig mine_config;
  mine_config.minsup = std::max<Count>(
      2, absolute_support(min_support * config.support_scale,
                          sample.size()));
  const MiningResult sampled = eclat_sequential(sample, mine_config);

  std::vector<Itemset> candidates;
  candidates.reserve(sampled.itemsets.size());
  for (const ItemsetView f : sampled.itemsets) {
    candidates.emplace_back(f.items.begin(), f.items.end());
  }
  std::vector<Itemset> border = negative_border(candidates, db.num_items());
  outcome.border_size = border.size();

  // One exact full-database pass over candidates + border. Sizes 1 and 2
  // (which dominate the negative border) are counted with flat arrays —
  // items and the triangular pair counter — and only sizes >= 3 need hash
  // trees. All of it is one physical scan.
  std::size_t max_size = 0;
  for (const Itemset& itemset : candidates) {
    max_size = std::max(max_size, itemset.size());
  }
  for (const Itemset& itemset : border) {
    max_size = std::max(max_size, itemset.size());
  }
  std::vector<HashTree> trees;  // tree t counts (t + 3)-itemsets
  for (std::size_t k = 3; k <= max_size; ++k) trees.emplace_back(k);
  ItemsetSet border_set(border.begin(), border.end());
  for (const std::vector<Itemset>* group : {&candidates, &border}) {
    for (const Itemset& itemset : *group) {
      if (itemset.size() >= 3) trees[itemset.size() - 3].insert(itemset);
    }
  }
  std::vector<Count> item_counts(db.num_items(), 0);
  TriangleCounter pair_counts(std::max<Item>(db.num_items(), 2));
  for (const Transaction& t : db.transactions()) {
    for (Item item : t.items) ++item_counts[item];
    // Counting all pairs (not only the candidate ones) costs O(|T|^2)
    // per transaction but avoids a hash probe per candidate pair.
    pair_counts.count(std::span<const Transaction>(&t, 1));
    for (HashTree& tree : trees) tree.count_transaction(t);
  }
  ++outcome.database_scans;

  const Count minsup = absolute_support(min_support, db.size());
  const auto deliver = [&](const Itemset& items, Count support) {
    if (support < minsup) return;
    if (border_set.count(items) != 0) {
      ++outcome.border_failures;  // a frequent itemset escaped the sample
    }
    outcome.result.itemsets.push_back(FrequentItemset{items, support});
  };
  for (const std::vector<Itemset>* group : {&candidates, &border}) {
    for (const Itemset& itemset : *group) {
      if (itemset.size() == 1) {
        deliver(itemset, item_counts[itemset[0]]);
      } else if (itemset.size() == 2) {
        deliver(itemset, pair_counts.get(itemset[0], itemset[1]));
      }
    }
  }
  for (HashTree& tree : trees) {
    tree.for_each([&](const Candidate& candidate) {
      deliver(candidate.items, candidate.count);
    });
  }
  outcome.certified = outcome.border_failures == 0;
  outcome.result.database_scans = outcome.database_scans;
  normalize(outcome.result);
  return outcome;
}

}  // namespace eclat::sampling
