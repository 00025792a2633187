#include "rules/rules.hpp"

#include <algorithm>

#include "apriori/candidate_gen.hpp"

namespace eclat {

SupportIndex::SupportIndex(const MiningResult& result) {
  table_.reserve(result.itemsets.size());
  for (const ItemsetView f : result.itemsets) {
    table_.emplace(Itemset(f.items.begin(), f.items.end()), f.support);
  }
}

Count SupportIndex::support(const Itemset& itemset) const {
  const auto it = table_.find(itemset);
  return it == table_.end() ? 0 : it->second;
}

namespace {

Itemset set_minus(const Itemset& from, const Itemset& remove) {
  Itemset out;
  out.reserve(from.size() - remove.size());
  std::set_difference(from.begin(), from.end(), remove.begin(), remove.end(),
                      std::back_inserter(out));
  return out;
}

/// ap-genrules: grow consequents level-wise within one frequent itemset.
void grow_consequents(const Itemset& itemset, Count itemset_support,
                      std::vector<Itemset> consequents,
                      const SupportIndex& index, double min_confidence,
                      double num_transactions,
                      std::vector<AssociationRule>& out) {
  if (consequents.empty()) return;
  const std::size_t consequent_size = consequents.front().size();
  if (consequent_size >= itemset.size()) return;  // antecedent must be
                                                  // non-empty

  std::vector<Itemset> confident;
  for (Itemset& consequent : consequents) {
    const Itemset antecedent = set_minus(itemset, consequent);
    const Count antecedent_support = index.support(antecedent);
    if (antecedent_support == 0) continue;  // defensive: must be frequent
    const double confidence = static_cast<double>(itemset_support) /
                              static_cast<double>(antecedent_support);
    if (confidence < min_confidence) continue;  // prunes all supersets

    const Count consequent_support = index.support(consequent);
    const double lift =
        consequent_support == 0
            ? 0.0
            : confidence /
                  (static_cast<double>(consequent_support) /
                   num_transactions);
    out.push_back(AssociationRule{antecedent, consequent, itemset_support,
                                  confidence, lift});
    confident.push_back(std::move(consequent));
  }

  if (confident.size() < 2) return;
  std::sort(confident.begin(), confident.end(), lex_less);
  std::vector<Itemset> next = join_level(confident);
  grow_consequents(itemset, itemset_support, std::move(next), index,
                   min_confidence, num_transactions, out);
}

}  // namespace

std::vector<AssociationRule> generate_rules(const MiningResult& result,
                                            std::size_t num_transactions,
                                            const RuleConfig& config) {
  const SupportIndex index(result);
  std::vector<AssociationRule> rules;

  for (const ItemsetView f : result.itemsets) {
    if (f.items.size() < 2) continue;
    // Seed: all 1-item consequents.
    std::vector<Itemset> consequents;
    consequents.reserve(f.items.size());
    for (Item item : f.items) consequents.push_back({item});
    grow_consequents(Itemset(f.items.begin(), f.items.end()), f.support,
                     std::move(consequents), index,
                     config.min_confidence,
                     static_cast<double>(num_transactions), rules);
  }

  std::sort(rules.begin(), rules.end(),
            [](const AssociationRule& a, const AssociationRule& b) {
              if (a.confidence != b.confidence) {
                return a.confidence > b.confidence;
              }
              if (a.support != b.support) return a.support > b.support;
              if (a.antecedent != b.antecedent) {
                return lex_less(a.antecedent, b.antecedent);
              }
              return lex_less(a.consequent, b.consequent);
            });
  return rules;
}

std::string to_string(const AssociationRule& rule) {
  std::string out = to_string(rule.antecedent);
  out += " => ";
  out += to_string(rule.consequent);
  out += "  (conf ";
  out += std::to_string(rule.confidence);
  out += ", sup ";
  out += std::to_string(rule.support);
  out += ", lift ";
  out += std::to_string(rule.lift);
  out += ')';
  return out;
}

}  // namespace eclat
