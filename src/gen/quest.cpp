#include "gen/quest.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace eclat::gen {

QuestGenerator::QuestGenerator(const QuestConfig& config)
    : config_(config), rng_(config.seed) {
  if (config_.num_items == 0) {
    throw std::invalid_argument("num_items must be positive");
  }
  if (config_.num_patterns == 0) {
    throw std::invalid_argument("num_patterns must be positive");
  }
  if (config_.avg_pattern_length < 1.0 ||
      config_.avg_transaction_length < 1.0) {
    throw std::invalid_argument("average lengths must be >= 1");
  }

  // Build the pattern pool L.
  patterns_.reserve(config_.num_patterns);
  Itemset previous;
  double weight_sum = 0.0;
  for (std::size_t p = 0; p < config_.num_patterns; ++p) {
    Pattern pattern;
    pattern.items = draw_pattern_items(previous);
    pattern.weight = rng_.exponential(1.0);
    pattern.corruption = std::clamp(
        config_.corruption_mean + config_.corruption_sd * rng_.normal(), 0.0,
        1.0);
    weight_sum += pattern.weight;
    previous = pattern.items;
    patterns_.push_back(std::move(pattern));
  }

  // Normalize weights and precompute the cumulative distribution used for
  // weighted pattern selection.
  cumulative_weights_.reserve(patterns_.size());
  double cumulative = 0.0;
  for (Pattern& pattern : patterns_) {
    pattern.weight /= weight_sum;
    cumulative += pattern.weight;
    cumulative_weights_.push_back(cumulative);
  }
  cumulative_weights_.back() = 1.0;  // guard against rounding
}

Itemset QuestGenerator::draw_pattern_items(const Itemset& previous) {
  // Pattern length: Poisson with mean |I|, at least 1, at most N.
  std::size_t length = static_cast<std::size_t>(
      rng_.poisson(config_.avg_pattern_length));
  length = std::clamp<std::size_t>(length, 1, config_.num_items);

  Itemset items;
  items.reserve(length);

  // A fraction of items (exponential with mean `correlation`, capped at 1)
  // is inherited from the previously generated pattern.
  if (!previous.empty()) {
    const double fraction =
        std::min(1.0, rng_.exponential(config_.correlation));
    std::size_t inherit = std::min(
        previous.size(),
        static_cast<std::size_t>(std::lround(fraction * length)));
    // Reservoir-style pick of `inherit` distinct items from `previous`.
    Itemset pool = previous;
    for (std::size_t i = 0; i < inherit; ++i) {
      const std::size_t j = i + rng_.below(pool.size() - i);
      std::swap(pool[i], pool[j]);
      items.push_back(pool[i]);
    }
  }

  // The rest are uniform random items, avoiding duplicates.
  while (items.size() < length) {
    const Item candidate = static_cast<Item>(rng_.below(config_.num_items));
    if (std::find(items.begin(), items.end(), candidate) == items.end()) {
      items.push_back(candidate);
    }
  }
  std::sort(items.begin(), items.end());
  return items;
}

std::size_t QuestGenerator::pick_pattern_index() {
  const double u = rng_.uniform();
  const auto it = std::upper_bound(cumulative_weights_.begin(),
                                   cumulative_weights_.end(), u);
  return std::min<std::size_t>(
      static_cast<std::size_t>(it - cumulative_weights_.begin()),
      patterns_.size() - 1);
}

Itemset QuestGenerator::corrupt(const Pattern& pattern) {
  // Keep dropping a uniformly chosen item while a uniform draw stays below
  // the pattern's corruption level (VLDB'94 §4.1). At least one item is
  // always retained so corrupted inserts still make progress.
  Itemset items = pattern.items;
  while (items.size() > 1 && rng_.uniform() < pattern.corruption) {
    const std::size_t victim = rng_.below(items.size());
    items.erase(items.begin() + static_cast<std::ptrdiff_t>(victim));
  }
  return items;
}

HorizontalDatabase QuestGenerator::generate() {
  DatabaseBuilder builder;

  // A pattern that overflowed the previous transaction's budget and was
  // deferred (the "assigned to the next transaction" half of the rule).
  Itemset carried;

  for (std::size_t t = 0; t < config_.num_transactions; ++t) {
    std::size_t budget = static_cast<std::size_t>(
        rng_.poisson(config_.avg_transaction_length));
    budget = std::clamp<std::size_t>(budget, 1, config_.num_items);

    Itemset basket;
    basket.reserve(budget + 8);

    auto insert_all = [&basket](const Itemset& items) {
      for (Item item : items) {
        if (std::find(basket.begin(), basket.end(), item) == basket.end()) {
          basket.push_back(item);
        }
      }
    };

    if (!carried.empty()) {
      insert_all(carried);
      carried.clear();
    }

    // With tiny configurations (few patterns over few items) the basket
    // can saturate below its budget — every further draw only repeats
    // items already present. Give up after a run of non-productive draws.
    std::size_t stagnant_draws = 0;
    while (basket.size() < budget && stagnant_draws < 16) {
      const Pattern& pattern = patterns_[pick_pattern_index()];
      Itemset instance = corrupt(pattern);
      if (basket.size() + instance.size() > budget && !basket.empty()) {
        // Overflow: add anyway half the time, defer otherwise.
        if (rng_.uniform() < 0.5) {
          insert_all(instance);
        } else {
          carried = std::move(instance);
        }
        break;
      }
      const std::size_t before = basket.size();
      insert_all(instance);
      stagnant_draws = basket.size() == before ? stagnant_draws + 1 : 0;
    }

    std::sort(basket.begin(), basket.end());
    builder.add(static_cast<Tid>(t), basket);
  }

  return std::move(builder).finish(config_.num_items);
}

HorizontalDatabase t10_i6(std::size_t num_transactions, std::uint64_t seed) {
  QuestConfig config;
  config.num_transactions = num_transactions;
  config.seed = seed;
  return QuestGenerator(config).generate();
}

std::string database_name(const QuestConfig& config) {
  auto round_int = [](double v) {
    return std::to_string(static_cast<long long>(std::lround(v)));
  };
  // Built with += rather than chained operator+ — GCC 12's -Wrestrict
  // false-positives on the inlined char_traits copies of the chain.
  std::string name = "T";
  name += round_int(config.avg_transaction_length);
  name += ".I";
  name += round_int(config.avg_pattern_length);
  name += ".D";
  const std::size_t d = config.num_transactions;
  if (d % 1'000'000 == 0 && d > 0) {
    name += std::to_string(d / 1'000'000) + "M";
  } else if (d % 1'000 == 0 && d > 0) {
    name += std::to_string(d / 1'000) + "K";
  } else {
    name += std::to_string(d);
  }
  return name;
}

}  // namespace eclat::gen
