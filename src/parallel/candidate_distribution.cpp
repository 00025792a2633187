#include "parallel/candidate_distribution.hpp"

#include <algorithm>
#include <mutex>
#include <unordered_set>

#include "apriori/apriori.hpp"
#include "apriori/candidate_gen.hpp"
#include "common/check.hpp"
#include "eclat/equivalence.hpp"
#include "parallel/wire.hpp"
#include "vertical/vertical_db.hpp"

namespace eclat::par {

namespace {

/// Serialize transactions for the redistribution exchange.
void put_transactions(wire::Writer& writer,
                      const std::vector<const Transaction*>& transactions) {
  writer.put<std::uint64_t>(transactions.size());
  for (const Transaction* t : transactions) {
    writer.put<Tid>(t->tid);
    writer.put_vector(t->items);
  }
}

/// Append the transactions of one redistribution blob to `builder`.
void get_transactions(wire::Reader& reader, DatabaseBuilder& builder) {
  const auto count = reader.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto tid = reader.get<Tid>();
    builder.add(tid, reader.get_vector<Item>());
  }
}

}  // namespace

ParallelOutput candidate_distribution(
    mc::Cluster& cluster, const HorizontalDatabase& db,
    const CandidateDistributionConfig& config) {
  ParallelOutput output;
  // eclat-lint: allow(det-thread) cross-thread handoff of the single writer's result to the caller
  std::mutex output_mutex;

  const std::size_t total = cluster.topology().total();
  std::vector<double> redistribution_end(total, 0.0);

  const std::uint64_t mc_bytes_before = cluster.channel().total_bytes();
  const std::uint64_t mc_msgs_before = cluster.channel().total_messages();

  output.run_report = cluster.run([&](mc::Processor& self) {
    const mc::Topology& topology = self.topology();
    const std::size_t me = self.id();
    const std::span<const Transaction> block =
        local_partition(db, topology, me);
    const std::size_t block_bytes = partition_bytes(block);

    MiningResult result;

    // --- L1 + L2: identical to Count Distribution. ---
    self.disk_read(block_bytes);
    std::vector<Count> item_counts = self.compute(
        [&] { return count_items(block, db.num_items()); });
    self.sum_reduce(item_counts);
    ++result.database_scans;

    std::vector<Itemset> level;
    for (Item item = 0; item < db.num_items(); ++item) {
      if (item_counts[item] >= config.minsup) {
        result.itemsets.push_back(FrequentItemset{{item}, item_counts[item]});
        level.push_back({item});
      }
    }
    result.levels.push_back(LevelStats{
        1, static_cast<std::size_t>(db.num_items()), level.size()});

    std::size_t k = 2;
    if (config.triangle_l2 && db.num_items() >= 2 && !level.empty()) {
      TriangleCounter counter(db.num_items());
      self.disk_read(block_bytes);
      self.compute([&] { counter.count(block); });
      self.sum_reduce(counter.raw());
      ++result.database_scans;

      std::vector<Itemset> next_level;
      std::size_t candidate_pairs = 0;
      for (std::size_t i = 0; i < level.size(); ++i) {
        for (std::size_t j = i + 1; j < level.size(); ++j) {
          ++candidate_pairs;
          const Count support = counter.get(level[i][0], level[j][0]);
          if (support >= config.minsup) {
            result.itemsets.push_back(
                FrequentItemset{{level[i][0], level[j][0]}, support});
            next_level.push_back({level[i][0], level[j][0]});
          }
        }
      }
      result.levels.push_back(
          LevelStats{2, candidate_pairs, next_level.size()});
      level = std::move(next_level);
      k = 3;
    }

    const std::vector<std::uint32_t> bucket_map =
        config.balanced_tree
            ? balanced_bucket_map(item_counts, config.tree.fanout)
            : std::vector<std::uint32_t>{};

    // --- Count-Distribution iterations until the redistribution pass. ---
    bool redistributed = false;
    HorizontalDatabase replica;            // local DB after redistribution
    std::size_t replica_bytes = 0;
    std::unordered_set<Item> my_prefixes;  // first items of my classes

    while (!level.empty()) {
      if (!redistributed && k >= config.redistribution_pass) {
        // Partition the classes of Lk-1 (1-item-prefix classes, §4.1) and
        // selectively replicate the database: processor q receives every
        // transaction containing a prefix item of one of q's classes (a
        // conservative superset of what q's candidates can match).
        std::vector<PairKey> prefix_pairs;  // reuse class machinery on
                                            // (first, second) item pairs
        std::vector<EquivalenceClass> classes = self.compute([&] {
          // Build classes keyed by the first item of each (k-1)-itemset.
          std::vector<EquivalenceClass> cs;
          for (const Itemset& itemset : level) {
            if (cs.empty() || cs.back().prefix != itemset[0]) {
              cs.push_back(EquivalenceClass{itemset[0], {}});
            }
            cs.back().members.push_back(itemset[1]);
          }
          return cs;
        });
        const std::vector<std::size_t> assignment =
            schedule_greedy(classes, total);
        std::vector<std::unordered_set<Item>> prefixes_of(total);
        for (std::size_t c = 0; c < classes.size(); ++c) {
          prefixes_of[assignment[c]].insert(classes[c].prefix);
        }
        my_prefixes = prefixes_of[me];

        // Route local transactions to every processor whose prefix set
        // they touch (transactions can replicate to several processors —
        // the redistributed database is usually larger than D/P, §3.2).
        self.disk_read(block_bytes);
        std::vector<mc::Blob> outgoing(total);
        self.compute([&] {
          std::vector<std::vector<const Transaction*>> routed(total);
          for (const Transaction& t : block) {
            for (std::size_t q = 0; q < total; ++q) {
              for (Item item : t.items) {
                if (prefixes_of[q].count(item) != 0) {
                  routed[q].push_back(&t);
                  break;
                }
              }
            }
          }
          for (std::size_t q = 0; q < total; ++q) {
            wire::Writer writer;
            put_transactions(writer, routed[q]);
            outgoing[q] = writer.take();
          }
        });
        std::vector<mc::Blob> incoming =
            self.all_to_all(std::move(outgoing));
        self.compute([&] {
          // Blocks are contiguous tid ranges in processor order, so the
          // blobs concatenate into strictly increasing tids.
          DatabaseBuilder builder;
          for (const mc::Blob& blob : incoming) {
            wire::Reader reader(blob);
            get_transactions(reader, builder);
          }
          replica = std::move(builder).finish(db.num_items());
          replica_bytes = partition_bytes(replica.transactions());
        });
        self.disk_write(replica_bytes);

        // From here on only the candidates whose first item is in
        // my_prefixes are mine; the level shrinks to the local view.
        std::erase_if(level, [&](const Itemset& itemset) {
          return my_prefixes.count(itemset[0]) == 0;
        });
        redistributed = true;
        redistribution_end[me] = self.now();
        if (level.empty()) break;
      }

      std::vector<Itemset> candidates = self.compute([&] {
        if (!redistributed) {
          return generate_candidates(level, config.prune && k >= 3);
        }
        // Post-split pruning can only use locally decidable information:
        // a (k-1)-subset that keeps the candidate's first item belongs to
        // this processor's prefix domain, so its absence from `level`
        // really means infrequent. The subset that drops the first item
        // is owned elsewhere — its pruning information "may not arrive in
        // time" (§3.2) and must not be treated as a veto.
        std::vector<Itemset> joined = join_level(level);
        if (!config.prune || k < 3) return joined;
        const ItemsetSet frequent(level.begin(), level.end());
        std::vector<Itemset> kept;
        kept.reserve(joined.size());
        Itemset subset;
        for (Itemset& candidate : joined) {
          bool all_known_frequent = true;
          for (std::size_t drop = 1; drop < candidate.size(); ++drop) {
            subset.clear();
            for (std::size_t i = 0; i < candidate.size(); ++i) {
              if (i != drop) subset.push_back(candidate[i]);
            }
            if (frequent.find(subset) == frequent.end()) {
              all_known_frequent = false;
              break;
            }
          }
          if (all_known_frequent) kept.push_back(std::move(candidate));
        }
        return kept;
      });
      if (candidates.empty()) break;
      std::sort(candidates.begin(), candidates.end(), lex_less);

      HashTree tree(k, config.tree, bucket_map);
      self.compute([&] {
        for (const Itemset& candidate : candidates) tree.insert(candidate);
      });

      const std::span<const Transaction> scan_span =
          redistributed ? std::span<const Transaction>(replica.transactions())
                        : block;
      self.disk_read(redistributed ? replica_bytes : block_bytes);
      self.compute([&] { tree.count_all(scan_span); });
      ++result.database_scans;

      std::vector<Count> counts(candidates.size());
      self.compute([&] {
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          const Candidate* node = tree.find(candidates[i]);
          ECLAT_CHECK(node != nullptr);
          counts[i] = node->count;
        }
      });
      if (!redistributed) {
        // Pre-split: global counts via the usual reduction.
        self.sum_reduce(counts);
      }
      // Post-split: the replica already yields global counts for owned
      // candidates — no reduction, no synchronization (the whole point).

      std::vector<Itemset> next_level;
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (counts[i] >= config.minsup) {
          result.itemsets.push_back(
              FrequentItemset{candidates[i], counts[i]});
          next_level.push_back(candidates[i]);
        }
      }
      result.levels.push_back(
          LevelStats{k, candidates.size(), next_level.size()});
      level = std::move(next_level);
      ++k;
    }

    // --- Final gather: post-split discoveries live only on their owner.
    wire::Writer writer;
    self.compute([&] {
      // Ship everything found after the split (itemsets of size >=
      // redistribution pass, owned by this processor).
      std::vector<ItemsetView> mine;
      for (const ItemsetView f : result.itemsets) {
        if (redistributed && f.items.size() >= config.redistribution_pass &&
            my_prefixes.count(f.items[0]) != 0) {
          mine.push_back(f);
        }
      }
      writer.put<std::uint64_t>(mine.size());
      for (const ItemsetView& f : mine) {
        writer.put_vector(f.items);
        writer.put<Count>(f.support);
      }
    });
    std::vector<mc::Blob> gathered = self.all_gather(writer.take());

    if (me == 0) {
      MiningResult merged;
      merged.database_scans = result.database_scans;
      // Pre-split itemsets are globally known (sizes < redistribution
      // pass, or everything when the split never happened).
      for (const ItemsetView f : result.itemsets) {
        if (!redistributed ||
            f.items.size() < config.redistribution_pass) {
          merged.itemsets.push_back(f.items, f.support);
        }
      }
      if (redistributed) {
        for (const mc::Blob& blob : gathered) {
          wire::Reader reader(blob);
          const auto count = reader.get<std::uint64_t>();
          for (std::uint64_t i = 0; i < count; ++i) {
            FrequentItemset f;
            f.items = reader.get_vector<Item>();
            f.support = reader.get<Count>();
            merged.itemsets.push_back(std::move(f));
          }
        }
      }
      normalize(merged);
      merged.levels = level_stats(merged);
      // eclat-lint: allow(det-thread) single-writer publish of the run's result
      std::lock_guard lock(output_mutex);
      output.result = std::move(merged);
    }
  });

  output.total_seconds = cluster.makespan();
  output.phase_seconds["total"] = output.total_seconds;
  const double redist =
      *std::max_element(redistribution_end.begin(), redistribution_end.end());
  if (redist > 0.0) output.phase_seconds["redistribution_end"] = redist;
  output.mc_bytes = cluster.channel().total_bytes() - mc_bytes_before;
  output.mc_messages = cluster.channel().total_messages() - mc_msgs_before;
  return output;
}

}  // namespace eclat::par
