#include "common/types.hpp"

#include <algorithm>

namespace eclat {

std::string to_string(std::span<const Item> itemset) {
  std::string out = "{";
  for (std::size_t i = 0; i < itemset.size(); ++i) {
    if (i != 0) out += ' ';
    out += std::to_string(itemset[i]);
  }
  out += '}';
  return out;
}

bool is_sorted_itemset(std::span<const Item> itemset) {
  for (std::size_t i = 1; i < itemset.size(); ++i) {
    if (itemset[i - 1] >= itemset[i]) return false;
  }
  return true;
}

bool is_subset(std::span<const Item> sub, std::span<const Item> super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

bool lex_less(const Itemset& a, const Itemset& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace eclat
