#include "parallel/par_eclat.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "apriori/apriori.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "data/result_io.hpp"
#include "parallel/recovery.hpp"
#include "parallel/wire.hpp"
#include "vertical/tidlist.hpp"
#include "vertical/vertical_db.hpp"

namespace eclat::par {

namespace {

std::vector<std::size_t> survivors_of(const std::vector<bool>& failed) {
  std::vector<std::size_t> alive;
  for (std::size_t p = 0; p < failed.size(); ++p) {
    if (!failed[p]) alive.push_back(p);
  }
  return alive;
}

/// Open a sealed all-to-all payload; on checksum failure re-fetch from
/// the sender's transmit buffer, backing off exponentially in virtual
/// time between attempts (retransmissions go through the same fault-prone
/// channel and may arrive corrupted again). A link that stays bad past
/// config.max_retransmits escalates from "transient corruption" to
/// suspicion of the sender, and the transfer is abandoned — the frame
/// either opens within the budget or the run surfaces the error.
mc::Blob open_exchange_payload(mc::Processor& self, std::size_t src,
                               mc::Blob blob, const ParEclatConfig& config) {
  if (wire::open_frame(blob)) return blob;
  double backoff = config.retransmit_backoff;
  for (std::size_t attempt = 0; attempt < config.max_retransmits; ++attempt) {
    self.advance(backoff);
    backoff *= 2.0;
    blob = self.retransmit(src);
    if (wire::open_frame(blob)) return blob;
  }
  self.lease_suspect(src);
  throw std::runtime_error(
      "exchange payload from processor " + std::to_string(src) +
      " still corrupt after " + std::to_string(config.max_retransmits) +
      " retransmissions: sender suspected, transfer abandoned");
}

ItemsetStore itemsets_from_checkpoint(
    std::span<const std::uint8_t> payload) {
  return result_from_bytes({payload.begin(), payload.end()}).itemsets;
}

/// Re-mine one equivalence class from its sealed tid-list image in the
/// replicated store (used by both speculative backups and post-gather
/// recovery). The image decode is deterministic and the mining recursion
/// is too, so every re-mine of one class yields byte-identical
/// checkpoints — the invariant behind first-writer-wins commits.
ItemsetStore mine_class_image(mc::Processor& self, const mc::Blob& image,
                              const ParEclatConfig& config, TidArena& arena) {
  self.disk_read(image.size(), 1);
  const wire::FrameResult frame = wire::open_frame(image);
  if (!frame) {
    throw std::runtime_error("corrupt tid-list image: " + frame.error);
  }
  ItemsetStore class_found;
  self.compute([&] {
    wire::Reader reader(frame.payload);
    std::vector<Atom> atoms;
    while (!reader.done()) {
      const auto key = reader.get<PairKey>();
      atoms.push_back(Atom{{pair_first(key), pair_second(key)},
                           reader.get_vector<Tid>()});
    }
    std::vector<std::size_t> histogram;
    compute_frequent(atoms, config.minsup, config.kernel, arena,
                     class_found, histogram);
  });
  return class_found;
}

}  // namespace

ParallelOutput par_eclat(mc::Cluster& cluster, const HorizontalDatabase& db,
                         const ParEclatConfig& config) {
  ParallelOutput output;
  // eclat-lint: allow(det-thread) cross-thread handoff of the single writer's result to the caller
  std::mutex output_mutex;

  const std::size_t total = cluster.topology().total();
  // Instrumentation only (never part of virtual time): per-processor
  // virtual timestamps at phase boundaries. Disjoint slots, no locking.
  std::vector<double> init_end(total, 0.0);
  std::vector<double> transform_end(total, 0.0);
  std::vector<double> async_end(total, 0.0);
  std::vector<double> reduction_end(total, 0.0);
  // eclat-lint: allow(det-thread) instrumentation flag set inside the run, folded only after the threads join
  std::atomic<bool> recovery_ran{false};
  // eclat-lint: allow(det-thread) instrumentation counter folded only after the threads join
  std::atomic<std::uint64_t> lineage_rebuilds{0};
  // Per-processor replica-copy counts at run end (disjoint slots, written
  // only by finishing processors; all finishers fold identical snapshot
  // sequences, so their values agree).
  std::vector<std::uint64_t> replica_copies(total, 0);

  // Replicated recovery state (Memory Channel receive regions are
  // replicated on every node — see recovery.hpp): tid-list images of every
  // size >= 2 class and per-class result checkpoints.
  parallel::RecoveryStore store;

  const std::uint64_t mc_bytes_before = cluster.channel().total_bytes();
  const std::uint64_t mc_msgs_before = cluster.channel().total_messages();

  output.run_report = cluster.run([&](mc::Processor& self) {
    const mc::Topology& topology = self.topology();
    const std::size_t me = self.id();
    const std::span<const Transaction> local =
        local_partition(db, topology, me);
    const std::size_t local_bytes = partition_bytes(local);

    // ----- Phase 1: initialization (first local scan, global L2). -----
    self.phase_begin("initialization");
    TriangleCounter counter(std::max<Item>(db.num_items(), 2));
    self.disk_read(local_bytes);
    self.compute([&] { counter.count(local); });

    const std::size_t items_len =
        config.include_singletons ? db.num_items() : 0;
    std::vector<Count> item_counts;
    std::vector<bool> item_fold_failed;
    if (config.include_singletons) {
      item_counts =
          self.compute([&] { return count_items(local, db.num_items()); });
      self.sum_reduce(item_counts, mc::Processor::ReduceScheme::kTree);
      item_fold_failed = self.failed_snapshot();
    }
    // One-time reduction: the O(log P) scheme of the paper's footnote 2.
    self.sum_reduce(counter.raw(), mc::Processor::ReduceScheme::kTree);
    std::vector<bool> pair_fold_failed = self.failed_snapshot();
    if (!config.include_singletons) item_fold_failed = pair_fold_failed;

    // Count repair: a processor that crashed before contributing to a
    // reduction leaves its partition out of the totals. Its partition is
    // still on its host's disk, so survivors re-scan it and fold the
    // missing counts in through extra (survivor-only) tree reductions,
    // repeating if a repairer itself dies mid-round. Afterwards the global
    // L2 — and hence classes, weights and schedule — equals the
    // fault-free run's.
    std::vector<bool> pair_covered(total), item_covered(total);
    for (std::size_t p = 0; p < total; ++p) {
      pair_covered[p] = !pair_fold_failed[p];
      item_covered[p] = !item_fold_failed[p];
    }
    const std::size_t tri_len = counter.raw().size();
    while (true) {
      std::vector<std::size_t> missing;
      for (std::size_t p = 0; p < total; ++p) {
        if (!pair_covered[p] || !item_covered[p]) missing.push_back(p);
      }
      if (missing.empty()) break;

      const std::vector<bool> failed = self.failed_snapshot();
      const std::vector<std::size_t> alive = survivors_of(failed);
      std::vector<std::size_t> repairer(total, total);
      for (std::size_t i = 0; i < missing.size(); ++i) {
        repairer[missing[i]] = alive[i % alive.size()];
      }

      // Triangle and item deltas concatenated: one reduction per round.
      std::vector<Count> delta(tri_len + items_len, 0);
      for (const std::size_t dead : missing) {
        if (repairer[dead] != me) continue;
        const std::span<const Transaction> part =
            local_partition(db, topology, dead);
        self.disk_read(partition_bytes(part), 1);
        self.compute([&] {
          if (!pair_covered[dead]) {
            TriangleCounter recount(std::max<Item>(db.num_items(), 2));
            recount.count(part);
            const std::span<const Count> raw = recount.raw();
            for (std::size_t i = 0; i < tri_len; ++i) delta[i] += raw[i];
          }
          if (items_len > 0 && !item_covered[dead]) {
            const std::vector<Count> recount =
                count_items(part, db.num_items());
            for (std::size_t i = 0; i < items_len; ++i) {
              delta[tri_len + i] += recount[i];
            }
          }
        });
        self.mark("count-repair", dead);
      }
      self.sum_reduce(delta, mc::Processor::ReduceScheme::kTree);
      const std::vector<bool> after = self.failed_snapshot();

      // The reduced delta holds exactly the partitions whose repairer was
      // alive at the fold; apply it once and mark those covered. A dead
      // repairer's partitions go around again.
      self.compute([&] {
        const std::span<Count> raw = counter.raw();
        for (std::size_t i = 0; i < tri_len; ++i) raw[i] += delta[i];
        for (std::size_t i = 0; i < items_len; ++i) {
          item_counts[i] += delta[tri_len + i];
        }
      });
      for (const std::size_t dead : missing) {
        if (!after[repairer[dead]]) {
          pair_covered[dead] = true;
          item_covered[dead] = true;
        }
      }
    }
    self.phase_end("initialization");
    init_end[me] = self.now();

    // ----- Phase 2: transformation. -----
    self.phase_begin("transformation");
    // Every processor derives the same L2, classes and schedule from the
    // global counts (paper §5.2.1: "done concurrently on all the
    // processors since all of them have access to the global L2"). The
    // schedule is always computed over all T processors — including ones
    // that already failed — so class ids, weights and the fault-free
    // ownership are identical in every run; failures only relocate work.
    // derive_plan is the backend-shared stage (parallel/pipeline.hpp): the
    // thread backend derives the identical plan from the identical counts.
    MiningPlan plan = self.compute([&] {
      return derive_plan(counter, config.minsup, total, config.schedule);
    });

    // Second local scan: partial tid-lists for every exchanged 2-itemset,
    // indexed by its slot in plan.exchanged_pairs.
    self.disk_read(local_bytes);
    std::vector<TidList> partial;
    const PairSlots pair_slots = self.compute([&] {
      PairSlots slots(plan.exchanged_pairs);
      partial = slots.invert(local);
      return slots;
    });

    // The tid-list exchange, structured as a redo-until-committed loop so
    // crashes at any point inside it stay recoverable:
    //   1. snapshot the failed set F; reassign dead owners' classes
    //      greedily among the survivors, and hand each dead processor's
    //      *partition* to a survivor, which re-scans it from the host disk;
    //   2. all_to_all partition-TAGGED, CRC-sealed sections (a repairer
    //      sends the dead partition's sections under the dead id, so
    //      receivers merge partitions in ascending order regardless of who
    //      sent them — and a partition is never sent twice in one round);
    //   3. append each section to its slot, partitions in ascending
    //      order; stage the owned classes' tid-list images, then a commit
    //      barrier;
    //   4. if the failed set after the commit still equals F, the round is
    //      committed; otherwise someone died mid-round — redo. Each redo
    //      loses at least one processor, so at most T rounds run, and the
    //      fault-free path is exactly one round plus one cheap barrier.
    // The committed round's atoms, by class id: the global tid-lists of
    // the classes this processor owns (those of remote classes stay empty).
    std::vector<std::vector<Atom>> my_atoms;
    std::vector<std::size_t> class_owner;
    std::size_t vertical_bytes = 0;
    std::vector<bool> commit_failed;
    // Class images sealed this round, published to the store only after
    // the commit barrier: a round that loses a processor mid-exchange
    // builds *incomplete* lists that the redo round replaces, and the
    // store is first-writer-wins — nothing may escape an uncommitted
    // round.
    std::vector<std::pair<std::size_t, mc::Blob>> staged_images;
    // Exchange frames are stamped with the redo round as their sequence
    // number; the replay filter drops duplicate deliveries (a retransmitted
    // frame this receiver already merged, or a stale frame from an
    // uncommitted round) so no section is ever double-merged.
    std::uint32_t exchange_round = 0;
    wire::ReplayFilter exchange_replay;
    while (true) {
      const std::vector<bool> failed = self.failed_snapshot();
      const std::vector<std::size_t> alive = survivors_of(failed);

      // Final ownership this round: survivors keep their fault-free
      // classes; dead owners' classes are re-placed greedily by weight.
      class_owner = plan.assignment;
      std::vector<std::size_t> orphaned;
      for (std::size_t c = 0; c < plan.classes.size(); ++c) {
        if (failed[class_owner[c]]) orphaned.push_back(c);
      }
      if (!orphaned.empty()) {
        std::vector<std::size_t> weights(orphaned.size());
        for (std::size_t i = 0; i < orphaned.size(); ++i) {
          weights[i] = plan.classes[orphaned[i]].weight();
        }
        const std::vector<std::size_t> placement =
            schedule_greedy_by_weight(weights, alive.size());
        for (std::size_t i = 0; i < orphaned.size(); ++i) {
          class_owner[orphaned[i]] = alive[placement[i]];
        }
      }

      // Dead partitions round-robin over survivors for re-scanning.
      std::vector<std::size_t> partition_source(total);
      std::size_t next = 0;
      for (std::size_t q = 0; q < total; ++q) {
        partition_source[q] = failed[q] ? alive[next++ % alive.size()] : q;
      }
      std::vector<std::vector<TidList>> repaired(total);
      for (std::size_t q = 0; q < total; ++q) {
        if (!failed[q] || partition_source[q] != me) continue;
        const std::span<const Transaction> part =
            local_partition(db, topology, q);
        self.disk_read(partition_bytes(part), 1);
        repaired[q] = self.compute([&] { return pair_slots.invert(part); });
        self.mark("partition-repair", q);
      }

      // Route each partition's sections to the class owners, tagged with
      // the source *partition* id and CRC-sealed.
      std::vector<mc::Blob> outgoing(total);
      self.compute([&] {
        std::vector<wire::Writer> writers(total);
        for (std::size_t q = 0; q < total; ++q) {
          const bool mine_own = q == me;
          const bool mine_repaired = failed[q] && partition_source[q] == me;
          if (!mine_own && !mine_repaired) continue;
          const std::vector<TidList>& lists = mine_own ? partial : repaired[q];
          for (std::size_t s = 0; s < plan.exchanged_pairs.size(); ++s) {
            const std::size_t owner = class_owner[plan.class_of[s]];
            writers[owner].put<std::uint64_t>(q);
            writers[owner].put(plan.exchanged_pairs[s]);
            writers[owner].put_vector(lists[s]);
          }
        }
        for (std::size_t dst = 0; dst < total; ++dst) {
          if (!failed[dst]) {
            outgoing[dst] = wire::seal_frame(writers[dst].take(),
                                             exchange_round);
          }
        }
      });
      std::vector<mc::Blob> incoming = self.all_to_all(std::move(outgoing));
      const std::vector<bool> a2a_failed = self.failed_snapshot();

      // Decode (checksum-validated, with retransmission on corruption),
      // group the sections by partition tag, and append each to its slot
      // in ascending partition order: the database is block-partitioned,
      // so that concatenation is the globally sorted tid-list (paper §6.3).
      // Every partition sends every slot this processor owns, its own
      // partition included, so exactly the owned slots fill.
      vertical_bytes = 0;
      std::vector<TidList> my_lists(plan.exchanged_pairs.size());
      self.compute([&] {
        std::vector<std::vector<std::pair<std::size_t, TidList>>> sections(
            total);
        for (std::size_t src = 0; src < total; ++src) {
          if (a2a_failed[src]) continue;
          const mc::Blob blob = open_exchange_payload(
              self, src, std::move(incoming[src]), config);
          const wire::FrameResult frame = wire::open_frame(blob);
          if (!exchange_replay.accept(src, frame.seq)) {
            self.mark("duplicate-dropped", src);
            continue;
          }
          wire::Reader reader(frame.payload);
          while (!reader.done()) {
            const auto partition = reader.get<std::uint64_t>();
            const std::size_t slot = pair_slots.slot(reader.get<PairKey>());
            if (partition >= total || slot == pair_slots.size()) {
              throw wire::Error("exchange section outside the plan");
            }
            sections[partition].emplace_back(slot, reader.get_vector<Tid>());
          }
        }
        for (auto& partition_sections : sections) {
          for (auto& [slot, tids] : partition_sections) {
            TidList& list = my_lists[slot];
            if (list.empty()) {
              list = std::move(tids);
            } else {
              list.insert(list.end(), tids.begin(), tids.end());
            }
          }
        }
        my_atoms = atoms_by_class(plan.classes, my_lists);
        for (std::size_t c = 0; c < plan.classes.size(); ++c) {
          if (class_owner[c] != me) continue;
          for (const Atom& atom : my_atoms[c]) {
            // Block partitioning means partition order == tid order; if
            // this ever breaks, every downstream intersection is silently
            // wrong.
            ECLAT_DCHECK(is_valid_tidlist(atom.tids));
            vertical_bytes += sizeof(PairKey) + atom.tids.size() * sizeof(Tid);
          }
        }
      });
      // The merged global tid-lists of the local classes go to local disk
      // (those of remote classes were never materialized here) — and their
      // sealed images into the replicated store, which is what makes a
      // later owner crash recoverable.
      self.disk_write(vertical_bytes);
      std::size_t image_bytes = 0;
      staged_images.clear();
      self.compute([&] {
        for (std::size_t c = 0; c < plan.classes.size(); ++c) {
          if (plan.classes[c].size() < 2 || class_owner[c] != me) continue;
          wire::Writer image;
          for (const Atom& atom : my_atoms[c]) {
            image.put(make_pair_key(atom.items[0], atom.items[1]));
            image.put_vector(atom.tids);
          }
          mc::Blob sealed = wire::seal_frame(image.take());
          image_bytes += sealed.size();
          staged_images.emplace_back(c, std::move(sealed));
        }
      });
      self.disk_write(image_bytes);

      self.barrier();  // commit point
      commit_failed = self.failed_snapshot();
      if (commit_failed == failed) break;
      self.mark("exchange-redo");
      ++exchange_round;
    }
    // The round committed. First raise the store's epoch fence to this
    // survivor's commit epoch: any straggler whose view predates the
    // commit can no longer write (its puts carry an older epoch).
    store.raise_fence(self.commit_epoch());

    // Bounded-replication bookkeeping, one private tracker per processor:
    // every survivor folds the identical failure snapshots in the
    // identical order, so all trackers agree without sharing state.
    // Placement is fixed at the commit snapshot — nodes already dead at
    // commit never became holders.
    parallel::ReplicaTracker replicas(total, config.replication,
                                      plan.classes.size(), commit_failed);

    // Quorum gating: a processor cut to the minority side of a partition
    // must not commit into the replicated store (its writes could not
    // reach a quorum of receive regions on the real machine). Its puts
    // queue locally and flush at the first point it is back in quorum —
    // or die with its abort, in which case recovery re-mines the classes
    // from replicas or lineage. The epoch stamp is defense in depth: even
    // a put that somehow slipped through after the majority moved on
    // would be fenced off by its stale epoch.
    std::vector<std::pair<std::size_t, mc::Blob>> pending_images;
    std::vector<std::pair<std::size_t, mc::Blob>> pending_results;
    auto flush_pending = [&] {
      if (!self.quorum_member()) return false;
      for (auto& [c, sealed] : pending_images) {
        store.put_tidlists(c, std::move(sealed), self.commit_epoch());
      }
      pending_images.clear();
      for (auto& [c, sealed] : pending_results) {
        store.put_result(c, std::move(sealed), self.commit_epoch());
      }
      pending_results.clear();
      return true;
    };
    auto commit_image = [&](std::size_t c, mc::Blob sealed) {
      pending_images.emplace_back(c, std::move(sealed));
      flush_pending();
    };
    auto commit_result = [&](std::size_t c, mc::Blob sealed) {
      pending_results.emplace_back(c, std::move(sealed));
      flush_pending();
    };

    // Survivor-driven re-replication: fold a new failure snapshot into
    // the tracker; every survivor computes the identical transfer list
    // and charges only its own legs (the source re-reads the image from
    // its disk and sends it; the target writes its new copy).
    // One repair batch streams its legs: the images a source re-reads sit
    // in class order on its local disk (the transformation phase wrote
    // them that way), and a target appends its new copies to the same
    // log, so each side pays one seek per batch and then transfers at
    // the sequential rate.
    auto repair_replicas = [&](const std::vector<bool>& failed_now) {
      bool first_read = true;
      bool first_write = true;
      for (const parallel::ReplicaTransfer& transfer :
           replicas.on_failures(failed_now)) {
        const std::optional<mc::Blob> image = store.tidlists(transfer.class_id);
        if (!image) continue;  // never published (dead minority owner)
        if (transfer.source == me) {
          if (first_read) {
            self.disk_read(image->size(), 1);
            first_read = false;
          } else {
            self.disk_read_stream(image->size(), 1);
          }
          self.advance(self.cost().message_time(image->size()));
          self.mark("replica-send", transfer.class_id);
        }
        if (transfer.target == me) {
          if (first_write) {
            self.disk_write(image->size());
            first_write = false;
          } else {
            self.disk_write_stream(image->size());
          }
          self.mark("replica-recv", transfer.class_id);
        }
      }
    };

    // Publish the committed round's images. No fault probe sits between
    // the commit barrier and this loop, so in-quorum publishes are
    // immediately visible to speculators and recovery; queued ones are
    // covered by re-replication's `continue` above plus lineage.
    for (auto& [c, sealed] : staged_images) {
      commit_image(c, std::move(sealed));
    }
    self.phase_end("transformation");
    transform_end[me] = self.now();

    // ----- Phase 3: asynchronous (third scan; zero communication in the
    // fault-free case). -----
    // Each class is checkpointed as it finishes: a crash loses at most the
    // class being mined, never a completed one (checkpoints are whole-class
    // and written only after the class's mining returns). The vertical read
    // happens per class rather than as one bulk scan, so a class migrated
    // away also takes its (possibly stalled) disk access with it; seek
    // amortization below keeps the fault-free cost equal to the bulk scan.
    self.phase_begin("asynchronous");
    const bool speculate = config.lease.speculate;
    std::vector<std::size_t> my_classes;
    std::vector<std::size_t> class_bytes(plan.classes.size(), 0);
    for (std::size_t c = 0; c < plan.classes.size(); ++c) {
      if (plan.classes[c].size() < 2 || class_owner[c] != me) continue;
      my_classes.push_back(c);
      for (const Atom& atom : my_atoms[c]) {
        class_bytes[c] += sizeof(PairKey) + atom.tids.size() * sizeof(Tid);
      }
    }
    // Acquire a progress lease on every owned class up front, at the
    // commit-barrier timestamp (identical on all survivors): a processor
    // that stalls on its very first read is then already detectable.
    if (speculate) {
      for (const std::size_t c : my_classes) self.lease_acquire(c);
      if (my_classes.empty()) self.lease_touch();
    }

    // Every class this processor mined, one store each, for the gather.
    std::vector<ItemsetStore> found;
    std::vector<std::size_t> histogram;
    // Strictly per-processor scratch (the arena is not thread-safe);
    // reused across this processor's classes and the recovery re-mines.
    TidArena arena;

    // Mine class `c` from wherever its data still lives: the replicated
    // image while at least one holder survives (and the image actually
    // reached the store), else lineage — rebuild the class's global
    // tid-lists from the on-disk horizontal partitions (every partition
    // file outlives its processor on the host's disk) and re-mine. Both
    // paths are deterministic functions of the class, so their
    // checkpoints are byte-identical to the owner's.
    auto mine_class_anywhere = [&](std::size_t c) {
      if (replicas.available(c)) {
        if (const std::optional<mc::Blob> image = store.tidlists(c)) {
          return mine_class_image(self, *image, config, arena);
        }
      }
      lineage_rebuilds.fetch_add(1, std::memory_order_relaxed);
      self.mark("class-lineage", c);
      const EquivalenceClass& eq_class = plan.classes[c];
      std::vector<std::span<const Transaction>> partitions(total);
      for (std::size_t q = 0; q < total; ++q) {
        partitions[q] = local_partition(db, topology, q);
        self.disk_read(partition_bytes(partitions[q]), 1);
      }
      ItemsetStore class_found;
      self.compute([&] {
        const std::vector<Atom> atoms =
            rebuild_class_atoms(eq_class, partitions);
        std::vector<std::size_t> lineage_histogram;
        compute_frequent(atoms, config.minsup, config.kernel, arena,
                         class_found, lineage_histogram);
      });
      return class_found;
    };
    // The owner's classes are laid out contiguously on its local disk (the
    // transformation phase wrote them in class order), so the sequential
    // pass pays one seek and then streams; a seek is re-paid only after a
    // gap — a class skipped because a backup already committed it.
    // Speculative and recovery image reads (mine_class_image) always seek.
    bool need_seek = true;
    for (const std::size_t c : my_classes) {
      if (speculate) {
        // Dynamic migration: a backup committed this class while we were
        // behind — drop it, together with its pending disk read. Claims
        // alone do not release us (the claimant might die; an owner that
        // is alive must cover its class unless a commit exists).
        const mc::LeaseView view = self.lease_view(config.lease);
        if (view.is_committed(c)) {
          self.lease_release(c);
          self.mark("class-migrated", c);
          std::vector<Atom>().swap(my_atoms[c]);
          need_seek = true;
          continue;
        }
      }
      if (need_seek) {
        self.disk_read(class_bytes[c]);
        need_seek = false;
      } else {
        self.disk_read_stream(class_bytes[c]);
      }
      ItemsetStore class_found;
      self.compute([&] {
        compute_frequent(my_atoms[c], config.minsup, config.kernel, arena,
                         class_found, histogram);
        std::vector<Atom>().swap(my_atoms[c]);  // the class's lists go
      });
      mc::Blob sealed = wire::seal_frame(result_to_bytes(class_found));
      self.disk_write(sealed.size());
      commit_result(c, std::move(sealed));
      // A minority-partitioned owner keeps its commit private: the board
      // must not advertise a checkpoint whose store put is still queued
      // (a backup trusting it would skip a class recovery must re-mine).
      if (speculate && self.quorum_member()) self.lease_commit(c);
      self.fault_point("class-checkpointed");
      found.push_back(std::move(class_found));
    }

    // Speculative re-execution: done with our own classes, watch the
    // board and back up suspected peers. Expired leases are taken
    // heaviest-first (same greedy weight order as the schedule); a prior
    // claim by a live processor defers to that processor. When nothing is
    // actionable we idle forward toward the earliest possible expiry —
    // in bounded steps, so a lease that gets released before it would
    // have expired costs an idler at most a quarter horizon of overshoot,
    // not the full wait — plus a seeded jitter that de-synchronizes
    // concurrent idlers, and look again; once no lease can ever expire,
    // the phase is over. All of this is driven purely by virtual time —
    // see mc/lease.hpp — so repeated runs of one (plan, seed) replay
    // identically.
    if (speculate) {
      const double horizon = config.lease.suspicion_after();
      Rng jitter(config.lease.seed ^
                 (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(me + 1)));
      while (true) {
        const mc::LeaseView view = self.lease_view(config.lease);
        std::size_t pick = plan.classes.size();
        std::size_t best_weight = 0;
        for (const mc::LeaseView::ExpiredLease& lease : view.expired) {
          if (view.is_committed(lease.task) || view.is_claimed(lease.task)) {
            continue;
          }
          if (class_owner[lease.task] == me) continue;  // cannot back
                                                        // ourselves up
          const std::size_t weight = plan.classes[lease.task].weight();
          if (pick == plan.classes.size() || weight > best_weight) {
            pick = lease.task;
            best_weight = weight;
          }
        }
        if (pick != plan.classes.size()) {
          self.lease_claim(pick);
          ItemsetStore class_found = mine_class_anywhere(pick);
          mc::Blob sealed = wire::seal_frame(result_to_bytes(class_found));
          self.disk_write(sealed.size());
          commit_result(pick, std::move(sealed));
          if (self.quorum_member()) self.lease_commit(pick);
          self.mark("class-speculated", pick);
          found.push_back(std::move(class_found));
          continue;
        }
        if (view.next_expiry == std::numeric_limits<double>::infinity()) {
          break;  // no outstanding lease can expire anymore
        }
        const double step =
            std::min(view.next_expiry - self.now(), 0.25 * horizon) +
            jitter.uniform(0.0, 0.05 * horizon);
        self.advance(std::max(step, 0.0));
        self.lease_touch();
        flush_pending();  // heal point: idling forward may exit a window
      }
    }
    // From here on this processor publishes no further lease activity:
    // peers still observing must not wait on us once we block in the
    // reduction collectives.
    self.lease_done();
    // Last flush before the store goes write-quiescent: a processor that
    // healed during the asynchronous phase lands its queued commits here;
    // one still in the minority keeps them queued and will abort at the
    // gather below (the store must see no writes after the gather, so
    // the reads during recovery are globally consistent).
    flush_pending();
    self.phase_end("asynchronous");
    async_end[me] = self.now();

    // ----- Phase 4: final reduction (same scheme as initialization). ---
    self.phase_begin("reduction");
    wire::Writer writer;
    self.compute([&] {
      std::uint64_t itemsets = 0;
      for (const ItemsetStore& part : found) itemsets += part.size();
      writer.put(itemsets);
      for (const ItemsetStore& part : found) {
        for (const ItemsetView f : part) {
          writer.put_vector(f.items);
          writer.put<Count>(f.support);
        }
      }
    });
    // The gather models the reduction's cost (speculation means a class's
    // itemsets may be carried by both its owner and a backup — the wire
    // really pays for both copies); the authoritative per-class results
    // are assembled from the store below, deduplicated by class id.
    self.all_gather(wire::seal_frame(writer.take()));
    const std::vector<bool> gather_failed = self.failed_snapshot();
    // Fence off any processor whose view predates this fold, then repair
    // under-replicated images (survivors of the gather agree on the
    // snapshot, so they schedule identical transfers).
    store.raise_fence(self.commit_epoch());
    repair_replicas(gather_failed);
    self.phase_end("reduction");
    reduction_end[me] = self.now();

    // ----- Recovery: processors that died after the exchange committed
    // can leave owned classes without a result checkpoint (speculative
    // backups may already have covered some or all of them). The
    // unfinished ones are re-mined by survivors from the replicated
    // tid-list images (greedy reassignment by the same C(s,2) weights)
    // and committed into the store — first writer wins, so overlap with a
    // backup is harmless — with extra survivor gathers carrying the
    // re-mined checkpoints' cost. -----
    std::vector<std::size_t> new_failed;
    for (std::size_t p = 0; p < total; ++p) {
      if (gather_failed[p] && !commit_failed[p]) new_failed.push_back(p);
    }
    // Re-mined checkpoints travel through the gathers (tagged with their
    // class id), NOT through the store: survivors race each other in real
    // time here, and a put_result from a fast re-miner must not change
    // what a slow survivor computes as `unfinished` — the store is
    // write-quiescent from the reduction gather onwards, which is what
    // makes the reads below globally consistent.
    std::vector<std::vector<mc::Blob>> recovery_gathers;
    std::vector<std::vector<bool>> recovery_snapshots;
    std::vector<bool> final_failed = gather_failed;
    if (!new_failed.empty()) {
      std::vector<std::size_t> unfinished;
      for (std::size_t c = 0; c < plan.classes.size(); ++c) {
        if (plan.classes[c].size() < 2) continue;
        const std::size_t owner = class_owner[c];
        if (gather_failed[owner] && !commit_failed[owner] &&
            !store.has_result(c)) {
          unfinished.push_back(c);
        }
      }
      if (!unfinished.empty()) {
        recovery_ran.store(true, std::memory_order_relaxed);
        self.phase_begin("recovery");
        while (!unfinished.empty()) {
          const std::vector<std::size_t> alive = survivors_of(final_failed);
          std::vector<std::size_t> weights(unfinished.size());
          for (std::size_t i = 0; i < unfinished.size(); ++i) {
            weights[i] = plan.classes[unfinished[i]].weight();
          }
          const std::vector<std::size_t> placement =
              schedule_greedy_by_weight(weights, alive.size());

          wire::Writer recovered;
          for (std::size_t i = 0; i < unfinished.size(); ++i) {
            const std::size_t c = unfinished[i];
            if (alive[placement[i]] != me) continue;
            recovered.put<std::uint64_t>(c);
            recovered.put_vector(result_to_bytes(mine_class_anywhere(c)));
            self.mark("class-recovered", c);
          }
          recovery_gathers.push_back(
              self.all_gather(wire::seal_frame(recovered.take())));
          recovery_snapshots.push_back(self.failed_snapshot());
          const std::vector<bool>& after = recovery_snapshots.back();
          // A re-miner that died mid-round is a fresh failure: fence it
          // off and restore the replication factor before going around.
          store.raise_fence(self.commit_epoch());
          repair_replicas(after);

          // Classes whose re-miner survived the gather are recovered; the
          // rest (their miner died mid-recovery) go around again.
          std::vector<std::size_t> remaining;
          for (std::size_t i = 0; i < unfinished.size(); ++i) {
            if (after[alive[placement[i]]]) remaining.push_back(unfinished[i]);
          }
          unfinished = std::move(remaining);
          final_failed = after;
        }
        self.phase_end("recovery");
      }
    }

    replica_copies[me] = replicas.total_replicas();

    // ----- Assembly on the lowest-id survivor. -----
    std::size_t root = total;
    for (std::size_t p = 0; p < total; ++p) {
      if (!final_failed[p]) {
        root = p;
        break;
      }
    }
    if (me == root) {
      MiningResult result;
      result.database_scans = 3;  // two horizontal scans + vertical read
      if (config.include_singletons) {
        append_singletons(result, item_counts, config.minsup);
      }
      append_frequent_pairs(result, plan.frequent_pairs, counter);
      // Re-mined classes from the recovery gathers, by class id.
      std::vector<std::optional<ItemsetStore>> recovered_classes(
          plan.classes.size());
      for (std::size_t round = 0; round < recovery_gathers.size(); ++round) {
        const std::vector<bool>& round_failed = recovery_snapshots[round];
        for (std::size_t src = 0; src < total; ++src) {
          if (round_failed[src]) continue;
          const wire::FrameResult frame =
              wire::open_frame(recovery_gathers[round][src]);
          if (!frame) {
            throw std::runtime_error("recovery payload corrupt: " +
                                     frame.error);
          }
          wire::Reader reader(frame.payload);
          while (!reader.done()) {
            const auto c = reader.get<std::uint64_t>();
            const auto bytes = reader.get_vector<std::uint8_t>();
            recovered_classes.at(c) =
                itemsets_from_checkpoint({bytes.data(), bytes.size()});
          }
        }
      }
      // Per-class assembly, deduplicated by class id: every size >= 2
      // class has exactly one authoritative checkpoint — committed to the
      // store by its owner or a speculative backup (first writer wins,
      // duplicates byte-identical), or carried by a recovery gather.
      // Walking class ids makes the result independent of *who* mined
      // what, which is why speculation cannot perturb the output.
      for (std::size_t c = 0; c < plan.classes.size(); ++c) {
        if (plan.classes[c].size() < 2) continue;
        if (const std::optional<mc::Blob> checkpoint = store.result(c)) {
          const wire::FrameResult frame = wire::open_frame(*checkpoint);
          if (!frame) {
            throw std::runtime_error("result checkpoint corrupt: " +
                                     frame.error);
          }
          for (const ItemsetView f :
               itemsets_from_checkpoint(frame.payload)) {
            result.itemsets.push_back(f.items, f.support);
          }
          continue;
        }
        if (!recovered_classes[c]) {
          throw std::runtime_error("assembly: class " + std::to_string(c) +
                                   " has no checkpoint and was never "
                                   "recovered");
        }
        for (const ItemsetView f : *recovered_classes[c]) {
          result.itemsets.push_back(f.items, f.support);
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
  const double t_reduction =
      *std::max_element(reduction_end.begin(), reduction_end.end());
  output.total_seconds = cluster.makespan();
  output.phase_seconds["initialization"] = t_init;
  output.phase_seconds["transformation"] = t_transform - t_init;
  output.phase_seconds["asynchronous"] = t_async - t_transform;
  if (recovery_ran.load(std::memory_order_relaxed)) {
    output.phase_seconds["reduction"] = t_reduction - t_async;
    output.phase_seconds["recovery"] = output.total_seconds - t_reduction;
  } else {
    output.phase_seconds["reduction"] = output.total_seconds - t_async;
  }
  output.mc_bytes = cluster.channel().total_bytes() - mc_bytes_before;
  output.mc_messages = cluster.channel().total_messages() - mc_msgs_before;
  output.image_bytes = store.tidlist_bytes();
  output.replica_copies =
      *std::max_element(replica_copies.begin(), replica_copies.end());
  output.fenced_rejections = store.fenced_rejections();
  output.lineage_rebuilds = lineage_rebuilds.load(std::memory_order_relaxed);
  return output;
}

}  // namespace eclat::par
