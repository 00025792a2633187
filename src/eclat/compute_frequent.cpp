#include "eclat/compute_frequent.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "eclat/diffsets.hpp"

namespace eclat {

Tid class_universe(const std::vector<Atom>& class_atoms) {
  Tid universe = 0;
  for (const Atom& atom : class_atoms) {
    if (!atom.tids.empty()) {
      universe = std::max(universe, atom.tids.back() + 1);
    }
  }
  return universe;
}

Tid seed_class(const std::vector<Atom>& class_atoms, IntersectKernel kernel,
               TidArena& arena, IntersectStats* stats) {
  ECLAT_DCHECK(!class_atoms.empty());
  const Tid universe = class_universe(class_atoms);
  TidArena::Level& root = arena.level(0);
  root.reset();
  for (const Atom& atom : class_atoms) {
    TidSet& slot = root.scratch();
    seed_tidset(atom.tids, universe, kernel, slot, stats);
    root.commit(atom.items.back(), atom.support());
  }
  arena.prefix().assign(class_atoms.front().items.begin(),
                        class_atoms.front().items.end() - 1);
  return universe;
}

Tid join_class(const ItemTidSets& items, Item prefix,
               std::span<const Item> members, Count minsup,
               IntersectKernel kernel, TidArena& arena,
               IntersectStats* stats) {
  ECLAT_DCHECK(!members.empty());
  const Tid universe = items.universe();
  const TidSet& base = items.of(prefix);
  TidArena::Level& root = arena.level(0);
  root.reset();
  for (Item member : members) {
    TidSet& slot = root.scratch();
    const std::optional<Count> support = intersect(
        base, items.of(member), minsup, kernel, universe, &slot, stats);
    if (support) root.commit(member, *support);
  }
  arena.prefix().assign(1, prefix);
  return universe;
}

std::optional<TidList> intersect_with_kernel(const TidList& a,
                                             const TidList& b, Count minsup,
                                             IntersectKernel kernel,
                                             IntersectStats* stats) {
  Tid universe = 0;
  if (!a.empty()) universe = a.back() + 1;
  if (!b.empty()) universe = std::max(universe, b.back() + 1);
  TidSet sa;
  TidSet sb;
  TidSet result;
  seed_tidset(a, universe, kernel, sa, stats);
  seed_tidset(b, universe, kernel, sb, stats);
  if (!intersect(sa, sb, minsup, kernel, universe, &result, stats)) {
    return std::nullopt;
  }
  return result.to_tidlist();
}

namespace {

/// Count a found itemset of `size` items in `size_histogram` (index =
/// itemset size; grown on demand).
void count_size(std::size_t size, std::vector<std::size_t>& size_histogram) {
  if (size_histogram.size() <= size) size_histogram.resize(size + 1, 0);
  ++size_histogram[size];
}

/// Append prefix + suffix with its support to `out`, one sink per
/// overload, and count it in `size_histogram`.
void emit_itemset(const Itemset& prefix, Item suffix, Count support,
                  std::vector<FrequentItemset>& out,
                  std::vector<std::size_t>& size_histogram) {
  const std::size_t size = prefix.size() + 1;
  count_size(size, size_histogram);
  FrequentItemset& found = out.emplace_back();
  found.items.reserve(size);
  found.items.assign(prefix.begin(), prefix.end());
  found.items.push_back(suffix);
  found.support = support;
}

void emit_itemset(Itemset& prefix, Item suffix, Count support,
                  ItemsetStore& out,
                  std::vector<std::size_t>& size_histogram) {
  count_size(prefix.size() + 1, size_histogram);
  prefix.push_back(suffix);
  out.push_back(prefix, support);
  prefix.pop_back();
}

/// Eclat's join (paper Figure 3): t(PXY) = t(PX) ∩ t(PY). A null slot
/// counts the support only.
struct TidsetJoin {
  /// The last row's child class has at most one member and never
  /// recurses, so its joins count support without a slot.
  static constexpr bool kLastRowNeedsSlot = false;
  Count minsup;
  IntersectKernel kernel;
  Tid universe;
  IntersectStats* stats;

  std::optional<Count> operator()(const TidArena::Level& cur,
                                  std::size_t /*depth*/, std::size_t i,
                                  std::size_t j, TidSet* slot) const {
    return intersect(cur.sets[i], cur.sets[j], minsup, kernel, universe,
                     slot, stats);
  }
};

/// dEclat's join: the diffset d(PXY) = d(PY) \ d(PX), entered from the
/// tid-list atoms on level 0 as d(XY) = t(X) \ t(Y). It is abandoned once
/// it exceeds sup(PX) − minsup elements, and sup(PXY) = sup(PX) − |d|.
struct DiffsetJoin {
  /// The child's support is read off its diffset, so every join takes a
  /// slot.
  static constexpr bool kLastRowNeedsSlot = true;
  Count minsup;
  IntersectKernel kernel;
  Tid universe;
  IntersectStats* stats;

  std::optional<Count> operator()(const TidArena::Level& cur,
                                  std::size_t depth, std::size_t i,
                                  std::size_t j, TidSet* slot) const {
    const Count parent = cur.supports[i];
    // Only a class atom can miss minsup; none of its joins can meet it,
    // and its budget parent − minsup would wrap.
    if (parent < minsup) return std::nullopt;
    const bool tidlists = depth == 0;
    if (!difference_into(tidlists ? cur.sets[i] : cur.sets[j],
                         tidlists ? cur.sets[j] : cur.sets[i],
                         parent - minsup, kernel, universe, *slot, stats)) {
      return std::nullopt;
    }
    return parent - slot->support();
  }
};

/// Mine the class held in the first `used` slots of arena level `depth`,
/// whose members share the items in arena.prefix(). Emission order is the
/// classical recursive one: for each leading atom i, every frequent join
/// (i, j) in j order, then atom i's child class mined to completion
/// before atom i+1.
template <typename Join, typename Sink>
void mine(TidArena& arena, std::size_t depth, const Join& join, Sink& out,
          std::vector<std::size_t>& size_histogram, MiningGuard* guard) {
  TidArena::Level& cur = arena.level(depth);
  TidArena::Level& next = arena.level(depth + 1);
  const std::size_t n = cur.used;
  Itemset& prefix = arena.prefix();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    // One guard checkpoint per leading atom: the work in between (one row
    // of joins plus the child-class recursion entry) is bounded, so a
    // budget check is never starved.
    if (guard != nullptr) guard->checkpoint(depth);
    prefix.push_back(cur.suffixes[i]);
    const bool slotless = i + 2 == n && !Join::kLastRowNeedsSlot;
    next.reset();
    for (std::size_t j = i + 1; j < n; ++j) {
      TidSet* const slot = slotless ? nullptr : &next.scratch();
      const std::optional<Count> support = join(cur, depth, i, j, slot);
      if (!support) continue;
      emit_itemset(prefix, cur.suffixes[j], *support, out, size_histogram);
      if (slot != nullptr) next.commit(cur.suffixes[j], *support);
    }
    if (next.used >= 2) {
      mine(arena, depth + 1, join, out, size_histogram, guard);
    }
    prefix.pop_back();
  }
}

/// Mine the class seeded on arena level 0 over `universe` with `Join`
/// (TidsetJoin or DiffsetJoin) into either sink, then clear the prefix.
template <typename Join, typename Sink>
void mine_seeded(TidArena& arena, Tid universe, Count minsup,
                 IntersectKernel kernel, Sink& out,
                 std::vector<std::size_t>& size_histogram,
                 IntersectStats* stats, MiningGuard* guard) {
  mine(arena, 0, Join{minsup, kernel, universe, stats}, out, size_histogram,
       guard);
  arena.prefix().clear();
}

/// Compute_Frequent or dEclat over one class of atoms into either sink.
template <typename Join, typename Sink>
void mine_class(const std::vector<Atom>& class_atoms, Count minsup,
                IntersectKernel kernel, TidArena& arena, Sink& out,
                std::vector<std::size_t>& size_histogram,
                IntersectStats* stats, MiningGuard* guard) {
  if (class_atoms.size() < 2) return;
#if ECLAT_DCHECKS_ENABLED
  for (const Atom& atom : class_atoms) {
    ECLAT_DCHECK(atom.items.size() == class_atoms.front().items.size());
    ECLAT_DCHECK(std::equal(atom.items.begin(), atom.items.end() - 1,
                            class_atoms.front().items.begin()));
  }
#endif
  const Tid universe = seed_class(class_atoms, kernel, arena, stats);
  mine_seeded<Join>(arena, universe, minsup, kernel, out, size_histogram,
                    stats, guard);
}

/// Compute_Frequent or dEclat over the class [prefix], joined from the
/// item tid-sets, into a store.
template <typename Join>
void mine_joined_class(const ItemTidSets& items, Item prefix,
                       std::span<const Item> members, Count minsup,
                       IntersectKernel kernel, TidArena& arena,
                       ItemsetStore& out,
                       std::vector<std::size_t>& size_histogram,
                       IntersectStats* stats, MiningGuard* guard) {
  if (members.size() < 2) return;
  const Tid universe =
      join_class(items, prefix, members, minsup, kernel, arena, stats);
  mine_seeded<Join>(arena, universe, minsup, kernel, out, size_histogram,
                    stats, guard);
}

}  // namespace

void compute_frequent(const std::vector<Atom>& class_atoms, Count minsup,
                      IntersectKernel kernel, TidArena& arena,
                      std::vector<FrequentItemset>& out,
                      std::vector<std::size_t>& size_histogram,
                      IntersectStats* stats, MiningGuard* guard) {
  mine_class<TidsetJoin>(class_atoms, minsup, kernel, arena, out,
                         size_histogram, stats, guard);
}

void compute_frequent(const std::vector<Atom>& class_atoms, Count minsup,
                      IntersectKernel kernel, TidArena& arena,
                      ItemsetStore& out,
                      std::vector<std::size_t>& size_histogram,
                      IntersectStats* stats, MiningGuard* guard) {
  mine_class<TidsetJoin>(class_atoms, minsup, kernel, arena, out,
                         size_histogram, stats, guard);
}

void compute_frequent(const ItemTidSets& items, Item prefix,
                      std::span<const Item> members, Count minsup,
                      IntersectKernel kernel, TidArena& arena,
                      ItemsetStore& out,
                      std::vector<std::size_t>& size_histogram,
                      IntersectStats* stats, MiningGuard* guard) {
  mine_joined_class<TidsetJoin>(items, prefix, members, minsup, kernel, arena,
                                out, size_histogram, stats, guard);
}

void compute_frequent_diffsets(const std::vector<Atom>& class_atoms,
                               Count minsup, IntersectKernel kernel,
                               TidArena& arena,
                               std::vector<FrequentItemset>& out,
                               std::vector<std::size_t>& size_histogram,
                               IntersectStats* stats) {
  mine_class<DiffsetJoin>(class_atoms, minsup, kernel, arena, out,
                          size_histogram, stats, nullptr);
}

void compute_frequent_diffsets(const std::vector<Atom>& class_atoms,
                               Count minsup, IntersectKernel kernel,
                               TidArena& arena, ItemsetStore& out,
                               std::vector<std::size_t>& size_histogram,
                               IntersectStats* stats) {
  mine_class<DiffsetJoin>(class_atoms, minsup, kernel, arena, out,
                          size_histogram, stats, nullptr);
}

void compute_frequent_diffsets(const ItemTidSets& items, Item prefix,
                               std::span<const Item> members, Count minsup,
                               IntersectKernel kernel, TidArena& arena,
                               ItemsetStore& out,
                               std::vector<std::size_t>& size_histogram,
                               IntersectStats* stats) {
  mine_joined_class<DiffsetJoin>(items, prefix, members, minsup, kernel,
                                 arena, out, size_histogram, stats, nullptr);
}

}  // namespace eclat
