#include "hashtree/hash_tree.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace eclat {

namespace {

/// A candidate plus the visit stamp used to count it at most once per
/// transaction (a leaf can be reached through several hash paths).
struct StampedCandidate {
  Candidate candidate;
  std::uint64_t stamp = 0;
};

}  // namespace

struct HashTree::Node {
  // A node is a leaf while `children` is empty; it becomes interior when it
  // splits (leaves at depth k-1 never split — candidates share hash buckets
  // on every remaining position there and must coexist).
  std::vector<StampedCandidate> candidates;
  std::vector<std::unique_ptr<Node>> children;

  bool is_leaf() const { return children.empty(); }
};

HashTree::HashTree(std::size_t k, HashTreeConfig config,
                   std::vector<std::uint32_t> item_to_bucket)
    : k_(k),
      config_(config),
      item_to_bucket_(std::move(item_to_bucket)),
      root_(std::make_unique<Node>()) {
  if (k_ == 0) throw std::invalid_argument("hash tree requires k >= 1");
  if (config_.fanout < 2) throw std::invalid_argument("fanout must be >= 2");
}

HashTree::~HashTree() = default;
HashTree::HashTree(HashTree&&) noexcept = default;
HashTree& HashTree::operator=(HashTree&&) noexcept = default;

std::size_t HashTree::bucket_of(Item item) const {
  if (!item_to_bucket_.empty() && item < item_to_bucket_.size()) {
    return item_to_bucket_[item];
  }
  return item % config_.fanout;
}

void HashTree::insert(Itemset itemset) {
  if (itemset.size() != k_) {
    throw std::invalid_argument("itemset length must equal tree depth k");
  }
  Node* node = root_.get();
  std::size_t depth = 0;
  while (!node->is_leaf()) {
    node = node->children[bucket_of(itemset[depth])].get();
    ++depth;
  }
  node->candidates.push_back(StampedCandidate{{std::move(itemset), 0}, 0});
  ++size_;

  // Split an overfull leaf, pushing its candidates one level down. Depth
  // k-1 is the deepest hashable level.
  while (depth < k_ - 1 &&
         node->candidates.size() > config_.leaf_capacity) {
    std::vector<StampedCandidate> spill = std::move(node->candidates);
    node->candidates.clear();
    node->children.resize(config_.fanout);
    for (auto& child : node->children) child = std::make_unique<Node>();
    for (StampedCandidate& entry : spill) {
      node->children[bucket_of(entry.candidate.items[depth])]
          ->candidates.push_back(std::move(entry));
    }
    // Continue with whichever child is fullest; in the common case no
    // child exceeds capacity and the loop exits immediately.
    Node* fullest = node->children.front().get();
    for (auto& child : node->children) {
      if (child->candidates.size() > fullest->candidates.size()) {
        fullest = child.get();
      }
    }
    node = fullest;
    ++depth;
  }
}

void HashTree::count_transaction(const Transaction& t) {
  if (t.items.size() < k_) return;  // too short to contain any candidate
  ++visit_stamp_;
  count_recursive(*root_, std::span<const Item>(t.items),
                  std::span<const Item>(t.items), 0);
}

void HashTree::count_all(std::span<const Transaction> transactions) {
  for (const Transaction& t : transactions) count_transaction(t);
}

void HashTree::count_recursive(Node& node,
                               std::span<const Item> transaction,
                               std::span<const Item> suffix,
                               std::size_t depth) {
  if (node.is_leaf()) {
    for (StampedCandidate& entry : node.candidates) {
      if (entry.stamp == visit_stamp_) continue;  // already counted
      // Subset test of the whole candidate against the whole transaction,
      // short-circuited when the transaction suffix is too short.
      const Itemset& cand = entry.candidate.items;
      std::size_t ci = 0;
      for (std::size_t ti = 0; ti < transaction.size() && ci < cand.size();
           ++ti) {
        if (config_.short_circuit &&
            cand.size() - ci > transaction.size() - ti) {
          break;  // not enough transaction items left to finish the match
        }
        if (transaction[ti] == cand[ci]) {
          ++ci;
        } else if (transaction[ti] > cand[ci]) {
          break;  // sorted: cand[ci] can no longer appear
        }
      }
      if (ci == cand.size()) {
        entry.stamp = visit_stamp_;
        ++entry.candidate.count;
      }
    }
    return;
  }
  // Interior at depth d: hash on each item of the suffix that could be the
  // d-th member of a candidate, then recurse on what follows it. An item
  // qualifies only if enough items remain after it for positions d+1..k-1.
  const std::size_t needed_after = k_ - depth - 1;
  for (std::size_t i = 0; i < suffix.size(); ++i) {
    if (config_.short_circuit && suffix.size() - i - 1 < needed_after) break;
    Node& child = *node.children[bucket_of(suffix[i])];
    count_recursive(child, transaction, suffix.subspan(i + 1), depth + 1);
  }
}

void HashTree::for_each(
    const std::function<void(const Candidate&)>& fn) const {
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    for (const StampedCandidate& entry : node->candidates) {
      fn(entry.candidate);
    }
    for (const auto& child : node->children) stack.push_back(child.get());
  }
}

const Candidate* HashTree::find(const Itemset& itemset) const {
  if (itemset.size() != k_) return nullptr;
  const Node* node = root_.get();
  std::size_t depth = 0;
  while (!node->is_leaf()) {
    node = node->children[bucket_of(itemset[depth])].get();
    ++depth;
  }
  for (const StampedCandidate& entry : node->candidates) {
    if (entry.candidate.items == itemset) return &entry.candidate;
  }
  return nullptr;
}

std::size_t HashTree::node_count() const {
  std::size_t count = 0;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    ++count;
    for (const auto& child : node->children) stack.push_back(child.get());
  }
  return count;
}

std::vector<std::uint32_t> balanced_bucket_map(
    std::span<const Count> item_frequency, std::size_t fanout) {
  std::vector<std::uint32_t> order(item_frequency.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return item_frequency[a] > item_frequency[b];
                   });
  std::vector<std::uint32_t> map(item_frequency.size(), 0);
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    map[order[rank]] = static_cast<std::uint32_t>(rank % fanout);
  }
  return map;
}

}  // namespace eclat
