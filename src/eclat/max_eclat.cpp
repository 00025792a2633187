#include "eclat/max_eclat.hpp"

#include <algorithm>
#include <array>
#include <deque>

#include "apriori/apriori.hpp"
#include "eclat/equivalence.hpp"
#include "vertical/vertical_db.hpp"

namespace eclat {
namespace {

/// Recursion state shared across one class: the arena holding each
/// level's child class, per-depth ping-pong buffers for the top-element
/// fold, and the kernel/universe the class mines under.
struct MaxCtx {
  TidArena& arena;
  std::deque<std::array<TidSet, 2>>& fold;
  Count minsup;
  IntersectKernel kernel;
  Tid universe;
  std::vector<FrequentItemset>& out;
  MaxEclatStats& stats;
  IntersectStats* istats;
};

void emit_candidate(const Itemset& prefix, Item suffix, Count support,
                    MaxCtx& ctx) {
  ++ctx.stats.candidates;
  FrequentItemset& found = ctx.out.emplace_back();
  found.items.reserve(prefix.size() + 1);
  found.items.assign(prefix.begin(), prefix.end());
  found.items.push_back(suffix);
  found.support = support;
}

/// Collect maximal candidates from the class held in arena level `depth`
/// (members share arena.prefix()). Every maximal frequent itemset
/// extending this class's prefix lands in `out` (possibly alongside
/// non-maximal candidates, removed by the global subsumption filter at
/// the end).
void max_recurse(MaxCtx& ctx, std::size_t depth) {
  TidArena::Level& cur = ctx.arena.level(depth);
  const std::size_t n = cur.used;
  Itemset& prefix = ctx.arena.prefix();
  if (n == 0) return;
  if (n == 1) {
    emit_candidate(prefix, cur.suffixes[0], cur.supports[0], ctx);
    return;
  }

  // Top-element test: intersect every atom's tid-set. If the class top
  // is frequent, it subsumes the entire sub-lattice.
  {
    if (ctx.fold.size() <= depth) ctx.fold.resize(depth + 1);
    TidSet* top = &ctx.fold[depth][0];
    TidSet* spare = &ctx.fold[depth][1];
    *top = cur.sets[0];
    bool alive = true;
    for (std::size_t i = 1; i < n && alive; ++i) {
      if (intersect(*top, cur.sets[i], ctx.minsup, ctx.kernel, ctx.universe,
                    spare, ctx.istats)) {
        std::swap(top, spare);
      } else {
        alive = false;
      }
    }
    if (alive) {
      ++ctx.stats.top_hits;
      ++ctx.stats.candidates;
      FrequentItemset& found = ctx.out.emplace_back();
      found.items.reserve(prefix.size() + n);
      found.items.assign(prefix.begin(), prefix.end());
      found.items.insert(found.items.end(), cur.suffixes.begin(),
                         cur.suffixes.begin() + static_cast<std::ptrdiff_t>(n));
      found.support = top->support();
      return;
    }
  }

  // Bottom-up expansion: atom i's extensions form its child class. An
  // atom with no frequent extension is a maximal candidate itself.
  TidArena::Level& next = ctx.arena.level(depth + 1);
  for (std::size_t i = 0; i < n; ++i) {
    next.reset();
    prefix.push_back(cur.suffixes[i]);
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::optional<Count> support =
          intersect(cur.sets[i], cur.sets[j], ctx.minsup, ctx.kernel,
                    ctx.universe, &next.scratch(), ctx.istats);
      if (support) next.commit(cur.suffixes[j], *support);
    }
    if (next.used == 0) {
      prefix.pop_back();
      emit_candidate(prefix, cur.suffixes[i], cur.supports[i], ctx);
    } else {
      max_recurse(ctx, depth + 1);
      prefix.pop_back();
    }
  }
}

}  // namespace

std::vector<FrequentItemset> maximal_of(const MiningResult& result) {
  // Sort by size descending; keep an itemset iff no kept superset exists.
  std::vector<FrequentItemset> sorted(result.itemsets.begin(),
                                      result.itemsets.end());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FrequentItemset& a, const FrequentItemset& b) {
                     return a.items.size() > b.items.size();
                   });
  std::vector<FrequentItemset> maximal;
  for (FrequentItemset& candidate : sorted) {
    const bool subsumed = std::any_of(
        maximal.begin(), maximal.end(), [&](const FrequentItemset& kept) {
          return kept.items.size() > candidate.items.size() &&
                 is_subset(candidate.items, kept.items);
        });
    if (!subsumed) maximal.push_back(std::move(candidate));
  }
  std::sort(maximal.begin(), maximal.end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              if (a.items.size() != b.items.size()) {
                return a.items.size() < b.items.size();
              }
              return lex_less(a.items, b.items);
            });
  return maximal;
}

MiningResult max_eclat(const HorizontalDatabase& db,
                       const MaxEclatConfig& config, MaxEclatStats* stats) {
  MaxEclatStats local_stats;
  const std::span<const Transaction> all(db.transactions());

  // Initialization identical to Eclat: one scan for item + pair counts.
  const std::vector<Count> item_counts = count_items(all, db.num_items());
  TriangleCounter counter(item_counts, config.minsup);
  counter.count(all);

  const std::vector<PairKey> frequent_pairs =
      counter.frequent_pairs(config.minsup);
  const std::vector<EquivalenceClass> classes =
      partition_into_classes(frequent_pairs);
  std::vector<TidList> tidlists =
      PairSlots(mined_pairs(classes)).invert(all, counter);
  std::vector<std::vector<Atom>> class_atoms =
      atoms_by_class(classes, tidlists);

  std::vector<FrequentItemset> candidates;
  TidArena arena;
  std::deque<std::array<TidSet, 2>> fold;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const EquivalenceClass& eq_class = classes[c];
    std::vector<Atom>& atoms = class_atoms[c];
    if (atoms.empty()) {
      // A singleton class's pair is itself a candidate; its support is
      // already counted, so it needs no tid-list.
      ++local_stats.candidates;
      const Item member = eq_class.members.front();
      candidates.push_back(FrequentItemset{
          {eq_class.prefix, member}, counter.get(eq_class.prefix, member)});
      continue;
    }
    const Tid universe = seed_class(atoms, config.kernel, arena, nullptr);
    MaxCtx ctx{arena,      fold,       config.minsup, config.kernel,
               universe,   candidates, local_stats,   nullptr};
    max_recurse(ctx, 0);
    arena.prefix().clear();
    atoms.clear();  // free the class's tid-lists before the next class
  }

  // Frequent singletons are candidates too (maximal when isolated).
  for (Item item = 0; item < db.num_items(); ++item) {
    if (item_counts[item] >= config.minsup) {
      ++local_stats.candidates;
      candidates.push_back(FrequentItemset{{item}, item_counts[item]});
    }
  }

  MiningResult raw;
  raw.itemsets = ItemsetStore(candidates);
  MiningResult result;
  result.itemsets = ItemsetStore(maximal_of(raw));
  result.database_scans = 2;
  normalize(result);
  result.levels = level_stats(result);
  if (stats) *stats = local_stats;
  return result;
}

}  // namespace eclat
