// The Compute_Frequent procedure (paper Figure 3): bottom-up, depth-first
// enumeration of all frequent itemsets derivable from one equivalence
// class, by pairwise tid-list intersection. Only the atoms of one class at
// one level are alive at a time, which is what makes Eclat main-memory
// frugal (paper §5.3). A class enters the recursion one of two ways:
// from its atoms' tid-lists (seed_class), or, on the native miners, by
// joining its atoms inside its own task from the shared, read-only item
// tid-sets, t(prefix) ∩ t(member) (join_class). Then no pair tid-list
// exists outside the class being mined: only the item tid-sets and one
// class per worker are alive. The recursion runs over TidArena scratch
// buffers, so steady-state mining allocates nothing; kernels (including
// the dense bitset and the adaptive auto dispatch) come from
// vertical/tidset.hpp. dEclat (diffsets.hpp) is the same recursion with a
// set difference in place of the intersection; MaxEclat keeps its own
// search, whose top-element test and maximal candidates do not fit this
// emission.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/result.hpp"
#include "common/types.hpp"
#include "eclat/mining_guard.hpp"
#include "eclat/tid_arena.hpp"
#include "vertical/tidlist.hpp"
#include "vertical/tidset.hpp"
#include "vertical/vertical_db.hpp"

namespace eclat {

/// An itemset together with its tid-list — the unit the recursion works on.
struct Atom {
  Itemset items;
  TidList tids;

  Count support() const { return tids.size(); }
};

/// Smallest universe covering every tid of `class_atoms` (max tid + 1);
/// the bitset width the dense kernels use for this class.
Tid class_universe(const std::vector<Atom>& class_atoms);

/// Level-0 seeding shared by this recursion and MaxEclat's: arena level 0
/// gets one slot per atom of the (non-empty) class, in the kernel's
/// preferred representation, and arena.prefix() gets the atoms' shared
/// prefix (all but the last item). Returns the class universe.
Tid seed_class(const std::vector<Atom>& class_atoms, IntersectKernel kernel,
               TidArena& arena, IntersectStats* stats);

/// The shared item tid-sets the native miners join each class's atoms
/// from: t(item) for every item of an ItemSlots, seeded once under the
/// run's kernel over one tid universe, the database's last tid + 1. Under
/// kAuto a dense item is a bitmap. Class tasks only read them, so every
/// worker shares one instance.
class ItemTidSets {
 public:
  ItemTidSets() = default;
  ItemTidSets(ItemSlots slots, Tid universe)
      : slots_(std::move(slots)), sets_(slots_.size()), universe_(universe) {}

  Tid universe() const { return universe_; }
  const ItemSlots& slots() const { return slots_; }

  /// Seeds the set of `slot` from its item's tid-list, taking the list
  /// over. Distinct slots may be seeded concurrently.
  void seed(std::size_t slot, TidList&& tids, IntersectKernel kernel,
            IntersectStats* stats) {
    seed_tidset(std::move(tids), universe_, kernel, sets_[slot], stats);
  }

  /// t(item); `item` must be one of the slots' items.
  const TidSet& of(Item item) const {
    ECLAT_DCHECK(slots_.slot(item) < sets_.size());
    return sets_[slots_.slot(item)];
  }

 private:
  ItemSlots slots_;
  std::vector<TidSet> sets_;
  Tid universe_ = 0;
};

/// Level-0 seeding from the shared item tid-sets, shared by this
/// recursion and dEclat's: arena level 0 gets t(prefix) ∩ t(m) for every
/// member m of the class [prefix], joined through intersect under
/// `kernel` (which must be the one `items` were seeded under), and
/// arena.prefix() gets {prefix}. The joins are counted in `stats`. A
/// member whose pair misses `minsup` has no frequent superset and is left
/// out; a class's members are frequent pairs, so none is. Returns the
/// items' universe.
Tid join_class(const ItemTidSets& items, Item prefix,
               std::span<const Item> members, Count minsup,
               IntersectKernel kernel, TidArena& arena,
               IntersectStats* stats);

/// Enumerate all frequent itemsets strictly larger than the atoms of
/// `class_atoms` (which must share a common prefix of all but the last
/// item, be sorted lexicographically, and all meet `minsup` already).
/// Found itemsets are appended to `out`, a flat store or a vector of
/// owning itemsets (one recursion serves both); per-size counts are
/// accumulated into `size_histogram` (index = itemset size; grown on
/// demand). Every miner in the library uses the store; the vector sink's
/// one caller is bench_e2e's traced replica, and it goes once that
/// replica mines into a store too.
/// `arena` provides the recursion's scratch buffers and may be reused
/// across calls (and across classes) on the same thread. A non-null
/// `guard` is checkpointed at every leading-atom boundary with the
/// recursion depth (mining_guard.hpp); it may throw to abandon the class.
void compute_frequent(const std::vector<Atom>& class_atoms, Count minsup,
                      IntersectKernel kernel, TidArena& arena,
                      std::vector<FrequentItemset>& out,
                      std::vector<std::size_t>& size_histogram,
                      IntersectStats* stats = nullptr,
                      MiningGuard* guard = nullptr);
void compute_frequent(const std::vector<Atom>& class_atoms, Count minsup,
                      IntersectKernel kernel, TidArena& arena,
                      ItemsetStore& out,
                      std::vector<std::size_t>& size_histogram,
                      IntersectStats* stats = nullptr,
                      MiningGuard* guard = nullptr);

/// Compute_Frequent for the class [prefix] with sorted `members`, its
/// level 0 joined from the shared item tid-sets (join_class): the native
/// miners' form. Emits what the atoms form emits for the same class.
void compute_frequent(const ItemTidSets& items, Item prefix,
                      std::span<const Item> members, Count minsup,
                      IntersectKernel kernel, TidArena& arena,
                      ItemsetStore& out,
                      std::vector<std::size_t>& size_histogram,
                      IntersectStats* stats = nullptr,
                      MiningGuard* guard = nullptr);

/// Single intersection through the selected kernel, on plain tid-lists.
/// Returns an empty optional when the result provably misses `minsup`.
/// For kAuto's density thresholds the universe is taken as
/// max(a.back(), b.back()) + 1.
std::optional<TidList> intersect_with_kernel(const TidList& a,
                                             const TidList& b, Count minsup,
                                             IntersectKernel kernel,
                                             IntersectStats* stats);

}  // namespace eclat
