// Per-worker scratch arena for the mining recursion. The depth-first
// enumeration of Compute_Frequent keeps at most one child class alive per
// recursion level (paper §5.3), so all tid-sets the recursion will ever
// hold fit in a stack of levels indexed by depth. The arena keeps that
// stack alive across sibling classes, across the top-level equivalence
// classes, and across whole mining calls: after the first few classes
// warm the buffers up, a mining pass performs no tid-list allocations.
//
// Lifetime rules (also documented in DESIGN.md §5):
//   - level(d) references stay valid while deeper levels grow (deque).
//   - Slots inside one level are reused in place: reset() rewinds the
//     `used` cursor without touching capacity, scratch() hands out the
//     next slot for a kernel to fill, commit() keeps it.
//   - A slot handed out by scratch() is only valid until the next
//     scratch()/reset() on the same level; commit() makes it permanent
//     for the lifetime of the enclosing class.
//   - prefix() is a shared push/pop stack: push the class's leading item
//     before recursing into its child class, pop on the way out.
// The arena is strictly per-worker state — sharing one across threads is
// a data race by construction.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "vertical/tidset.hpp"

namespace eclat {

class TidArena {
 public:
  /// One recursion level: the child class under construction. Parallel
  /// arrays indexed by slot — `sets[s]` is the tid-set (or diffset) of
  /// the child whose last item is `suffixes[s]` with support
  /// `supports[s]`. Only the first `used` slots are live.
  struct Level {
    std::vector<Item> suffixes;
    std::vector<Count> supports;
    std::vector<TidSet> sets;
    std::size_t used = 0;

    /// Rewind to empty, keeping every buffer's capacity.
    void reset() { used = 0; }

    /// The next free slot, growing the level if needed. The returned
    /// reference is invalidated by the next scratch()/reset(); call
    /// commit() to keep its contents.
    TidSet& scratch() {
      if (used == sets.size()) {
        sets.emplace_back();
        suffixes.push_back(0);
        supports.push_back(0);
      }
      return sets[used];
    }

    /// Keep the slot last returned by scratch() as a member of the child
    /// class, tagged with its suffix item and support.
    void commit(Item suffix, Count support) {
      ECLAT_DCHECK(used < sets.size());
      suffixes[used] = suffix;
      supports[used] = support;
      ++used;
    }
  };

  /// The level for recursion depth `depth`, created on first use. The
  /// reference stays valid while deeper levels are created.
  Level& level(std::size_t depth) {
    while (levels_.size() <= depth) levels_.emplace_back();
    return levels_[depth];
  }

  /// Shared prefix stack: the items common to every member of the class
  /// currently being mined. The full itemset of the child in slot s is
  /// prefix() + suffixes[s].
  Itemset& prefix() { return prefix_; }

  /// Logical bytes of the committed tid-sets on levels 0..depth
  /// (TidSet::bytes): what the class being mined holds at a checkpoint of
  /// recursion depth `depth`. A function of the class alone; the buffer
  /// capacity kept from earlier classes is not counted. The exec memory
  /// budget charges this.
  std::size_t live_bytes(std::size_t depth) const {
    std::size_t total = 0;
    for (std::size_t d = 0; d <= depth && d < levels_.size(); ++d) {
      const Level& level = levels_[d];
      for (std::size_t s = 0; s < level.used; ++s) {
        total += level.sets[s].bytes();
      }
    }
    return total;
  }

 private:
  std::deque<Level> levels_;  // deque: stable refs while deeper levels grow
  Itemset prefix_;
};

}  // namespace eclat
