#include "parallel/hybrid.hpp"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "apriori/apriori.hpp"
#include "apriori/candidate_gen.hpp"
#include "common/check.hpp"
#include "parallel/wire.hpp"
#include "vertical/tidlist.hpp"
#include "vertical/vertical_db.hpp"

namespace eclat::par {

namespace {

/// The slice of `host_span` that processor slot s of P counts (contiguous,
/// sizes differ by at most one).
std::span<const Transaction> slot_slice(std::span<const Transaction> host_span,
                                        std::size_t slot, std::size_t slots) {
  const std::size_t base = host_span.size() / slots;
  const std::size_t extra = host_span.size() % slots;
  const std::size_t begin = slot * base + std::min(slot, extra);
  const std::size_t length = base + (slot < extra ? 1 : 0);
  return host_span.subspan(begin, length);
}

}  // namespace

ParallelOutput hybrid_eclat(mc::Cluster& cluster,
                            const HorizontalDatabase& db,
                            const ParEclatConfig& config) {
  ParallelOutput output;
  // eclat-lint: allow(det-thread) cross-thread handoff of the single writer's result to the caller
  std::mutex output_mutex;

  const mc::Topology topology = cluster.topology();
  const std::size_t total = topology.total();
  const std::size_t hosts = topology.hosts;
  const std::size_t slots = topology.procs_per_host;

  std::vector<double> init_end(total, 0.0);
  std::vector<double> transform_end(total, 0.0);
  std::vector<double> async_end(total, 0.0);

  // Host-shared state: threads of one host are one SMP node, so the
  // leader's merged tid-lists are visible to its host-mates directly.
  // Written by the host leader before a barrier, read by host-mates after.
  std::vector<std::unordered_map<PairKey, TidList>> host_lists(hosts);

  const std::uint64_t mc_bytes_before = cluster.channel().total_bytes();
  const std::uint64_t mc_msgs_before = cluster.channel().total_messages();

  output.run_report = cluster.run([&](mc::Processor& self) {
    const std::size_t me = self.id();
    const std::size_t host = self.host();
    const std::size_t slot = topology.slot_of(me);
    const bool leader = slot == 0;

    const std::vector<Block> host_blocks = db.block_partition(hosts);
    const std::span<const Transaction> host_span =
        db.view(host_blocks[host]);
    const std::size_t host_bytes = partition_bytes(host_span);
    const std::span<const Transaction> my_slice =
        slot_slice(host_span, slot, slots);

    // ----- Phase 1: initialization. The leader scans the host partition
    // from disk alone; counting is divided among the host's processors
    // over the shared image. -----
    if (leader) self.disk_read(host_bytes, 1);
    self.barrier();  // host image available

    TriangleCounter counter(std::max<Item>(db.num_items(), 2));
    self.compute([&] { counter.count(my_slice); });

    std::vector<Count> item_counts;
    if (config.include_singletons) {
      item_counts = self.compute(
          [&] { return count_items(my_slice, db.num_items()); });
      self.sum_reduce(item_counts, mc::Processor::ReduceScheme::kTree);
    }
    self.sum_reduce(counter.raw(), mc::Processor::ReduceScheme::kTree);
    init_end[me] = self.now();

    // ----- Phase 2: transformation. Classes are scheduled to hosts
    // (plan.assignment maps class -> host; the owning leader is slot 0 of
    // that host); tid-lists flow to the owning host's leader. -----
    MiningPlan plan = self.compute([&] {
      return derive_plan(counter, config.minsup, hosts, config.schedule);
    });

    // Second scan of the host partition (leader only); every processor
    // inverts its slice of the shared image.
    if (leader) self.disk_read(host_bytes, 1);
    self.barrier();
    std::unordered_map<PairKey, TidList> partial = self.compute(
        [&] { return invert_pairs(my_slice, plan.exchanged_pairs); });

    std::vector<mc::Blob> outgoing(total);
    self.compute([&] {
      std::vector<wire::Writer> writers(total);
      for (std::size_t s = 0; s < plan.exchanged_pairs.size(); ++s) {
        const PairKey key = plan.exchanged_pairs[s];
        const std::size_t owner = plan.assignment[plan.class_of[s]] * slots;
        writers[owner].put(key);
        writers[owner].put_vector(partial.at(key));
      }
      for (std::size_t dst = 0; dst < total; ++dst) {
        outgoing[dst] = writers[dst].take();
      }
    });
    std::vector<mc::Blob> incoming = self.all_to_all(std::move(outgoing));

    // Leaders merge (source processors are in tid order, so concatenation
    // is sorted) and write the host's vertical partition once.
    if (leader) {
      std::unordered_map<PairKey, TidList>& merged = host_lists[host];
      std::size_t vertical_bytes = 0;
      self.compute([&] {
        merged.clear();
        for (std::size_t src = 0; src < total; ++src) {
          wire::Reader reader(incoming[src]);
          while (!reader.done()) {
            const auto key = reader.get<PairKey>();
            const std::vector<Tid> tids = reader.get_vector<Tid>();
            TidList& list = merged[key];
            list.insert(list.end(), tids.begin(), tids.end());
          }
        }
        // eclat-lint: allow(det-unordered-iter) order-insensitive fold: sums bytes and checks invariants; nothing escapes in hash order
        for (const auto& [key, list] : merged) {
          ECLAT_DCHECK(is_valid_tidlist(list));
          vertical_bytes += sizeof(PairKey) + list.size() * sizeof(Tid);
        }
      });
      self.disk_write(vertical_bytes, 1);
    }
    self.barrier();  // publish host_lists
    transform_end[me] = self.now();

    // ----- Phase 3: asynchronous. The host's classes are subdivided
    // among its processors; each reads its own classes' tid-lists from
    // the host disk (all P may read concurrently). -----
    std::vector<std::size_t> my_class_ids;
    std::size_t my_bytes = 0;
    self.compute([&] {
      std::vector<EquivalenceClass> host_classes;
      std::vector<std::size_t> host_class_ids;
      for (std::size_t c = 0; c < plan.classes.size(); ++c) {
        if (plan.classes[c].size() < 2 || plan.assignment[c] != host) {
          continue;
        }
        host_classes.push_back(plan.classes[c]);
        host_class_ids.push_back(c);
      }
      const std::vector<std::size_t> slot_of_class =
          make_schedule(host_classes, slots, config.schedule, counter);
      for (std::size_t i = 0; i < host_classes.size(); ++i) {
        if (slot_of_class[i] != slot) continue;
        my_class_ids.push_back(host_class_ids[i]);
        for (PairKey key : host_classes[i].pair_keys()) {
          my_bytes += sizeof(PairKey) +
                      host_lists[host].at(key).size() * sizeof(Tid);
        }
      }
    });
    self.disk_read(my_bytes, slots);

    std::vector<FrequentItemset> found;
    self.compute([&] {
      std::vector<std::size_t> histogram;
      TidArena arena;  // per-processor scratch, reused across its classes
      for (std::size_t c : my_class_ids) {
        const EquivalenceClass& eq_class = plan.classes[c];
        std::vector<Atom> atoms;
        atoms.reserve(eq_class.size());
        for (Item member : eq_class.members) {
          const PairKey key = make_pair_key(eq_class.prefix, member);
          atoms.push_back(
              Atom{{eq_class.prefix, member}, host_lists[host].at(key)});
        }
        compute_frequent(atoms, config.minsup, config.kernel, arena, found,
                         histogram);
      }
    });
    async_end[me] = self.now();

    // ----- Phase 4: final reduction. -----
    wire::Writer writer;
    self.compute([&] {
      writer.put<std::uint64_t>(found.size());
      for (const FrequentItemset& f : found) {
        writer.put_vector(f.items);
        writer.put<Count>(f.support);
      }
    });
    std::vector<mc::Blob> gathered = self.all_gather(writer.take());

    if (me == 0) {
      MiningResult result;
      result.database_scans = 3;
      if (config.include_singletons) {
        append_singletons(result, item_counts, config.minsup);
      }
      append_frequent_pairs(result, plan.frequent_pairs, counter);
      for (const mc::Blob& blob : gathered) {
        wire::Reader reader(blob);
        const auto count = reader.get<std::uint64_t>();
        for (std::uint64_t i = 0; i < count; ++i) {
          FrequentItemset f;
          f.items = reader.get_vector<Item>();
          f.support = reader.get<Count>();
          result.itemsets.push_back(std::move(f));
        }
      }
      finalize_result(result);
      // eclat-lint: allow(det-thread) single-writer publish of the run's result
      std::lock_guard lock(output_mutex);
      output.result = std::move(result);
    }
  });

  const double t_init = *std::max_element(init_end.begin(), init_end.end());
  const double t_transform =
      *std::max_element(transform_end.begin(), transform_end.end());
  const double t_async =
      *std::max_element(async_end.begin(), async_end.end());
  output.total_seconds = cluster.makespan();
  output.phase_seconds["initialization"] = t_init;
  output.phase_seconds["transformation"] = t_transform - t_init;
  output.phase_seconds["asynchronous"] = t_async - t_transform;
  output.phase_seconds["reduction"] = output.total_seconds - t_async;
  output.mc_bytes = cluster.channel().total_bytes() - mc_bytes_before;
  output.mc_messages = cluster.channel().total_messages() - mc_msgs_before;
  return output;
}

ParallelOutput hybrid_count_distribution(
    mc::Cluster& cluster, const HorizontalDatabase& db,
    const CountDistributionConfig& config) {
  ParallelOutput output;
  // eclat-lint: allow(det-thread) cross-thread handoff of the single writer's result to the caller
  std::mutex output_mutex;

  const mc::Topology topology = cluster.topology();
  const std::size_t hosts = topology.hosts;
  const std::size_t slots = topology.procs_per_host;

  const std::uint64_t mc_bytes_before = cluster.channel().total_bytes();
  const std::uint64_t mc_msgs_before = cluster.channel().total_messages();

  output.run_report = cluster.run([&](mc::Processor& self) {
    const std::size_t me = self.id();
    const std::size_t host = self.host();
    const std::size_t slot = topology.slot_of(me);
    const bool leader = slot == 0;

    const std::vector<Block> host_blocks = db.block_partition(hosts);
    const std::span<const Transaction> host_span =
        db.view(host_blocks[host]);
    const std::size_t host_bytes = partition_bytes(host_span);
    const std::span<const Transaction> my_slice =
        slot_slice(host_span, slot, slots);

    MiningResult result;

    // --- L1. ---
    if (leader) self.disk_read(host_bytes, 1);
    self.barrier();
    std::vector<Count> item_counts = self.compute(
        [&] { return count_items(my_slice, db.num_items()); });
    self.sum_reduce(item_counts,
                    mc::Processor::ReduceScheme::kSerializedHosts);
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

    // --- L2 (triangle). ---
    std::size_t k = 2;
    if (config.triangle_l2 && db.num_items() >= 2 && !level.empty()) {
      TriangleCounter counter(db.num_items());
      if (leader) self.disk_read(host_bytes, 1);
      self.barrier();
      self.compute([&] { counter.count(my_slice); });
      self.sum_reduce(counter.raw(),
                      mc::Processor::ReduceScheme::kSerializedHosts);
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

    // --- k >= 3: one shared logical tree per host. Functionally every
    // thread keeps its own counter copy (thread-safe), but the build is
    // charged only on the leader — on the real SMP node the tree is built
    // once per host and shared (CCPD, ref [16]). ---
    while (!level.empty()) {
      std::vector<Itemset> candidates;
      if (leader) {
        candidates = self.compute([&] {
          return generate_candidates(level, config.prune && k >= 3);
        });
      } else {
        candidates = generate_candidates(level, config.prune && k >= 3);
      }
      if (candidates.empty()) break;
      std::sort(candidates.begin(), candidates.end(), lex_less);

      HashTree tree(k, config.tree, bucket_map);
      if (leader) {
        self.compute([&] {
          for (const Itemset& candidate : candidates) {
            tree.insert(candidate);
          }
        });
      } else {
        for (const Itemset& candidate : candidates) tree.insert(candidate);
      }

      if (leader) self.disk_read(host_bytes, 1);
      self.barrier();
      self.compute([&] { tree.count_all(my_slice); });
      ++result.database_scans;

      std::vector<Count> counts(candidates.size());
      self.compute([&] {
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          const Candidate* node = tree.find(candidates[i]);
          ECLAT_CHECK(node != nullptr);
          counts[i] = node->count;
        }
      });
      self.sum_reduce(counts,
                      mc::Processor::ReduceScheme::kSerializedHosts);

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

    self.barrier();
    if (me == 0) {
      normalize(result);
      // eclat-lint: allow(det-thread) single-writer publish of the run's result
      std::lock_guard lock(output_mutex);
      output.result = std::move(result);
    }
  });

  output.total_seconds = cluster.makespan();
  output.phase_seconds["total"] = output.total_seconds;
  output.mc_bytes = cluster.channel().total_bytes() - mc_bytes_before;
  output.mc_messages = cluster.channel().total_messages() - mc_msgs_before;
  return output;
}

}  // namespace eclat::par
