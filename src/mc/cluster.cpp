#include "mc/cluster.hpp"
// eclat-lint: allow-file(det-thread) the Cluster owns the real threads simulated processors run on

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace eclat::mc {

// Data-flow note for the collective scratch state
// ------------------------------------------------
// Every collective follows: publish into slots owned by *this* processor →
// arrive at the barrier (the last arriver folds all slots and rewrites the
// clocks while everyone else is still blocked) → consume from slots owned
// by this processor. A processor can only reach the *next* collective's
// fold after finishing its consume, and the next fold only runs when every
// processor has arrived — so fold never races with a publish or consume of
// the previous round, and a single barrier round per collective suffices.
//
// Failure extension: a crashing processor clears its publish slots, then
// deregisters (under the barrier lock), so the next fold — which acquires
// that same lock — observes both the cleared slots and the updated failed
// set. Folds skip failed slots and advance only survivor clocks; a crashed
// processor's clock freezes at the moment of its crash. Every fold ends by
// snapshotting the failed set into epoch_failed_, which is what
// Processor::failed_snapshot() hands to the SPMD bodies: all survivors of
// one generation observe the identical set.

const char* to_string(ProcessorOutcome outcome) {
  switch (outcome) {
    case ProcessorOutcome::kFinished:
      return "finished";
    case ProcessorOutcome::kCrashed:
      return "crashed";
    case ProcessorOutcome::kHung:
      return "hung";
    case ProcessorOutcome::kPartitioned:
      return "partitioned";
    case ProcessorOutcome::kAborted:
      return "aborted";
  }
  return "unknown";
}

Cluster::Cluster(const Topology& topology, const CostModel& cost)
    : topology_(topology),
      cost_(cost),
      barrier_(topology.total()),
      lease_board_(topology.total()) {
  topology_.validate();
  const std::size_t total = topology_.total();
  clocks_.assign(total, 0.0);
  epoch_failed_.assign(total, false);
  retransmit_store_.resize(total);
  reduce_slots_.assign(total, {});
  gather_slots_.assign(total, {});
  a2a_out_.assign(total, {});
  a2a_in_.assign(total, std::vector<Blob>(total));
}

double Cluster::makespan() const {
  return clocks_.empty() ? 0.0
                         : *std::max_element(clocks_.begin(), clocks_.end());
}

RunReport Cluster::run(const std::function<void(Processor&)>& body) {
  const std::size_t total = topology_.total();
  std::fill(clocks_.begin(), clocks_.end(), 0.0);
  phase_start_max_ = 0.0;
  barrier_.reset();
  epoch_failed_.assign(total, false);
  for (auto& store : retransmit_store_) store.clear();
  lease_board_.reset();
  injector_ = fault_plan_.empty()
                  ? nullptr
                  : std::make_unique<FaultInjector>(fault_plan_, total);
  report_.outcomes.assign(total, ProcessorOutcome::kFinished);

  std::vector<std::exception_ptr> errors(total);
  std::vector<std::thread> threads;
  threads.reserve(total);
  for (std::size_t p = 0; p < total; ++p) {
    threads.emplace_back([this, &body, &errors, p] {
      Processor self(this, p);
      try {
        body(self);
        // Whatever the body did or did not publish, this processor will
        // never publish again: release any peer blocked in a lease view.
        lease_board_.mark_done(p, clocks_[p]);
      } catch (const ProcessorFailed& failure) {
        // Injected crash: report it, release the peers. Clear this
        // processor's publish slots *before* deregistering — the barrier
        // lock taken by deregister orders the clears before the next fold.
        report_.outcomes[p] = ProcessorOutcome::kCrashed;
        if (trace_) {
          trace_->record(p, clocks_[p], TraceKind::kFault,
                         std::string("crash: ") + failure.what());
        }
        reduce_slots_[p] = {};
        gather_slots_[p].clear();
        a2a_out_[p].clear();
        lease_board_.mark_terminal(p, clocks_[p]);
        barrier_.deregister(p);
      } catch (const ProcessorHung& hang) {
        // Unbounded hang: semantically the processor goes silent forever;
        // the simulation reaps the real thread exactly like a crash so
        // peers' barriers complete with survivor semantics. Detection is
        // the lease layer's job — the board records *when* it went quiet,
        // and peers may only act once their own virtual clocks pass the
        // lease expiry.
        report_.outcomes[p] = ProcessorOutcome::kHung;
        if (trace_) {
          trace_->record(p, clocks_[p], TraceKind::kFault,
                         std::string("hang: ") + hang.what());
        }
        reduce_slots_[p] = {};
        gather_slots_[p].clear();
        a2a_out_[p].clear();
        lease_board_.mark_terminal(p, clocks_[p]);
        barrier_.deregister(p);
      } catch (const ProcessorPartitioned& cut) {
        // Cut off from quorum: the processor aborts its phase cleanly —
        // nothing it had queued for a quorum acknowledgement commits.
        // Deregistering releases the quorum side's pending rendezvous, so
        // the majority completes with survivor-only semantics.
        report_.outcomes[p] = ProcessorOutcome::kPartitioned;
        if (trace_) {
          trace_->record(p, clocks_[p], TraceKind::kFault,
                         std::string("partition: ") + cut.what());
        }
        reduce_slots_[p] = {};
        gather_slots_[p].clear();
        a2a_out_[p].clear();
        lease_board_.mark_terminal(p, clocks_[p]);
        barrier_.deregister(p);
      } catch (...) {
        // Genuine bug in the SPMD body. Still deregister so peers release
        // (no deadlock), then surface the exception after the join.
        errors[p] = std::current_exception();
        report_.outcomes[p] = ProcessorOutcome::kAborted;
        reduce_slots_[p] = {};
        gather_slots_[p].clear();
        a2a_out_[p].clear();
        lease_board_.mark_terminal(p, clocks_[p]);
        barrier_.deregister(p);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Non-fault exceptions: rethrow the first, log the rest to the trace so
  // they are not silently swallowed.
  std::exception_ptr first;
  for (std::size_t p = 0; p < total; ++p) {
    if (!errors[p]) continue;
    if (!first) {
      first = errors[p];
      continue;
    }
    if (trace_) {
      std::string what = "aborted: unknown exception";
      try {
        std::rethrow_exception(errors[p]);
      } catch (const std::exception& e) {
        what = std::string("aborted: ") + e.what();
      }
      // eclat-lint: allow(robust-catch) diagnostic extraction only: a non-std escape keeps the default what; the original is rethrown below
      catch (...) {
      }
      trace_->record(p, clocks_[p], TraceKind::kFault, what);
    }
  }
  if (first) std::rethrow_exception(first);
  return report_;
}

void Cluster::sync(const std::function<void()>& fold) {
  barrier_.arrive_and_wait([this, &fold] {
    if (fold) fold();
    epoch_failed_ = barrier_.failed_in_fold();
  });
}

double Cluster::max_survivor_clock() const {
  // Fold-only: reads the failed set without locking (the barrier lock is
  // held inside a fold).
  const std::vector<bool>& failed = barrier_.failed_in_fold();
  double max_clock = 0.0;
  for (std::size_t p = 0; p < clocks_.size(); ++p) {
    if (!failed[p]) max_clock = std::max(max_clock, clocks_[p]);
  }
  return max_clock;
}

void Cluster::fill_survivor_clocks(double value) {
  const std::vector<bool>& failed = barrier_.failed_in_fold();
  for (std::size_t p = 0; p < clocks_.size(); ++p) {
    if (!failed[p]) clocks_[p] = value;
  }
}

double Cluster::hub_bandwidth() {
  double bandwidth = cost_.aggregate_bandwidth;
  if (injector_) bandwidth /= injector_->hub_divisor(max_survivor_clock());
  return bandwidth;
}

// --- Processor ---

std::size_t Processor::host() const {
  return cluster_->topology().host_of(id_);
}

const Topology& Processor::topology() const { return cluster_->topology(); }

const CostModel& Processor::cost() const { return cluster_->cost(); }

double Processor::now() const { return cluster_->clocks_[id_]; }

void Processor::advance(double seconds) {
  cluster_->clocks_[id_] += seconds;
}

double Processor::fault_probe(FaultOp op, const std::string& label) {
  FaultInjector* injector = cluster_->injector_.get();
  if (!injector) return 1.0;
  const ProbeResult result = injector->probe(id_, op, phase_, label, now());
  if (result.hang_seconds > 0.0) {
    // Bounded hang: the processor goes silent for the duration — its
    // clock advances with no lease renewal in between, so peers watching
    // the board see its leases expire mid-hang and may start backups the
    // resumed original then races (first-writer-wins absorbs the tie).
    advance(result.hang_seconds);
    if (Trace* trace = cluster_->trace_) {
      trace->record(id_, now(), TraceKind::kFault, "hang",
                    static_cast<std::uint64_t>(result.hang_seconds * 1e6));
    }
  }
  return result.stall;
}

void Processor::fault_point(const std::string& label) {
  fault_probe(FaultOp::kPoint, label);
  // A fault_point is a progress probe: surviving it renews every lease
  // this processor holds (and publishes its clock either way).
  cluster_->lease_board_.renew_all(id_, now());
}

void Processor::lease_acquire(std::size_t task) {
  cluster_->lease_board_.acquire(id_, task, now());
}

void Processor::lease_renew() { cluster_->lease_board_.renew_all(id_, now()); }

void Processor::lease_release(std::size_t task) {
  cluster_->lease_board_.release(id_, task, now());
}

void Processor::lease_claim(std::size_t task) {
  cluster_->lease_board_.claim(id_, task, now());
  if (Trace* trace = cluster_->trace_) {
    trace->record(id_, now(), TraceKind::kMark, "lease-claim", task);
  }
}

void Processor::lease_commit(std::size_t task) {
  cluster_->lease_board_.commit(id_, task, now());
}

void Processor::lease_touch() { cluster_->lease_board_.touch(id_, now()); }

void Processor::lease_done() { cluster_->lease_board_.mark_done(id_, now()); }

void Processor::lease_suspect(std::size_t proc) {
  cluster_->lease_board_.mark_suspect(proc, id_, now());
  if (Trace* trace = cluster_->trace_) {
    trace->record(id_, now(), TraceKind::kFault, "suspect", proc);
  }
}

LeaseView Processor::lease_view(const LeasePolicy& policy) {
  return cluster_->lease_board_.view_at(id_, now(), policy);
}

std::vector<bool> Processor::failed_snapshot() const {
  return cluster_->epoch_failed_;
}

std::vector<std::size_t> Processor::failed_processors() const {
  std::vector<std::size_t> ids;
  const std::vector<bool>& failed = cluster_->epoch_failed_;
  for (std::size_t p = 0; p < failed.size(); ++p) {
    if (failed[p]) ids.push_back(p);
  }
  return ids;
}

std::size_t Processor::commit_epoch() const {
  // The epoch is the failed count of this processor's snapshot: monotone,
  // and it grows exactly at the folds where the failed set grows — the
  // same read-stability argument as failed_snapshot() applies.
  std::size_t epoch = 0;
  for (const bool failed : cluster_->epoch_failed_) {
    if (failed) ++epoch;
  }
  return epoch;
}

bool Processor::quorum_member() const {
  const FaultInjector* injector = cluster_->injector_.get();
  return !injector || !injector->partition_minority(id_, now());
}

Blob Processor::retransmit(std::size_t src) {
  auto& store = cluster_->retransmit_store_[id_];
  const auto it = store.find(src);
  if (it == store.end()) {
    throw std::logic_error(
        "retransmit: no corrupted payload from that source — a decoder "
        "rejecting a pristine payload is a bug, not a recoverable fault");
  }
  // The retransmission goes through the same fault-prone channel as the
  // original delivery: further kCorruptMessage events matching (dst, src)
  // may mangle it again, in which case the pristine copy stays buffered
  // for the next retry.
  Blob delivered = it->second;
  const std::size_t pristine_bytes = delivered.size();
  FaultInjector* injector = cluster_->injector_.get();
  const bool corrupted_again =
      injector && injector->corrupt_message(id_, src, delivered);
  if (!corrupted_again) store.erase(it);
  // The data is still in the sender's Memory Channel transmit buffer; the
  // receiver pays a full (point-to-point) re-transfer of it.
  advance(cluster_->cost_.message_time(pristine_bytes));
  if (Trace* trace = cluster_->trace_) {
    trace->record(id_, now(), TraceKind::kFault, "retransmit",
                  pristine_bytes);
    if (corrupted_again) {
      trace->record(id_, now(), TraceKind::kFault, "corrupt-message",
                    pristine_bytes);
    }
  }
  return delivered;
}

void Processor::disk_read(std::size_t bytes, std::size_t scanners) {
  const double stall = fault_probe(FaultOp::kDiskRead);
  if (scanners == 0) scanners = topology().procs_per_host;
  advance(cost().disk_time(bytes, scanners) * stall);
  if (Trace* trace = cluster_->trace_) {
    trace->record(id_, now(), TraceKind::kDisk, "scan", bytes);
    if (stall > 1.0) {
      trace->record(id_, now(), TraceKind::kFault, "disk-stall", bytes);
    }
  }
}

void Processor::disk_read_stream(std::size_t bytes, std::size_t scanners) {
  const double stall = fault_probe(FaultOp::kDiskRead);
  if (scanners == 0) scanners = topology().procs_per_host;
  advance(cost().disk_stream_time(bytes, scanners) * stall);
  if (Trace* trace = cluster_->trace_) {
    trace->record(id_, now(), TraceKind::kDisk, "scan", bytes);
    if (stall > 1.0) {
      trace->record(id_, now(), TraceKind::kFault, "disk-stall", bytes);
    }
  }
}

void Processor::disk_write(std::size_t bytes, std::size_t scanners) {
  const double stall = fault_probe(FaultOp::kDiskWrite);
  if (scanners == 0) scanners = topology().procs_per_host;
  advance(cost().disk_time(bytes, scanners) * stall);  // same model as read
  if (Trace* trace = cluster_->trace_) {
    trace->record(id_, now(), TraceKind::kDisk, "write", bytes);
    if (stall > 1.0) {
      trace->record(id_, now(), TraceKind::kFault, "disk-stall", bytes);
    }
  }
}

void Processor::disk_write_stream(std::size_t bytes, std::size_t scanners) {
  const double stall = fault_probe(FaultOp::kDiskWrite);
  if (scanners == 0) scanners = topology().procs_per_host;
  advance(cost().disk_stream_time(bytes, scanners) * stall);
  if (Trace* trace = cluster_->trace_) {
    trace->record(id_, now(), TraceKind::kDisk, "write", bytes);
    if (stall > 1.0) {
      trace->record(id_, now(), TraceKind::kFault, "disk-stall", bytes);
    }
  }
}

void Cluster::apply_phase_floor_and_sync(double extra_cost) {
  // Runs inside a barrier fold. A crash can remove the survivor whose
  // clock set phase_start_max_; the phase still ends no earlier than it
  // started, so the survivors' clocks are lifted to that start.
  double now = max_survivor_clock();
  const double phase_elapsed = now - phase_start_max_;
  if (phase_elapsed < 0.0) now -= phase_elapsed;
  now += extra_cost;
  fill_survivor_clocks(now);
  phase_start_max_ = now;
}

void Processor::barrier() {
  fault_probe(FaultOp::kBarrier);
  Cluster& cluster = *cluster_;
  cluster.sync([&cluster] {
    std::size_t survivors = 0;
    for (const bool failed : cluster.barrier_.failed_in_fold()) {
      if (!failed) ++survivors;
    }
    cluster.apply_phase_floor_and_sync(cluster.cost_.barrier_time(survivors));
  });
  if (Trace* trace = cluster.trace_) {
    trace->record(id_, now(), TraceKind::kBarrier, "barrier");
  }
}

void Processor::phase_begin(const std::string& label) {
  phase_ = label;
  if (Trace* trace = cluster_->trace_) {
    trace->record(id_, now(), TraceKind::kPhaseBegin, label);
  }
}

void Processor::phase_end(const std::string& label) {
  if (Trace* trace = cluster_->trace_) {
    trace->record(id_, now(), TraceKind::kPhaseEnd, label);
  }
  phase_.clear();
}

void Processor::mark(const std::string& label, std::uint64_t detail) {
  if (Trace* trace = cluster_->trace_) {
    trace->record(id_, now(), TraceKind::kMark, label, detail);
  }
}

void Processor::trace_compute(std::uint64_t nanoseconds) {
  if (Trace* trace = cluster_->trace_) {
    trace->record(id_, now(), TraceKind::kCompute, "compute", nanoseconds);
  }
}

void Processor::sum_reduce(std::span<Count> values, ReduceScheme scheme) {
  fault_probe(FaultOp::kSumReduce);
  Cluster& cluster = *cluster_;
  cluster.reduce_slots_[id_] = values;
  const std::size_t total = cluster.topology_.total();

  cluster.sync([&cluster, total, scheme] {
    const std::vector<bool>& failed = cluster.barrier_.failed_in_fold();
    // All *survivor* slots must agree on length (SPMD contract); failed
    // processors' slots are cleared on crash and excluded from the fold.
    std::size_t length = 0;
    std::size_t survivors = 0;
    for (std::size_t p = 0; p < total; ++p) {
      if (failed[p]) continue;
      if (survivors++ == 0) {
        length = cluster.reduce_slots_[p].size();
      } else if (cluster.reduce_slots_[p].size() != length) {
        throw std::logic_error("sum_reduce length mismatch across procs");
      }
    }
    cluster.reduce_accum_.assign(length, 0);
    for (std::size_t p = 0; p < total; ++p) {
      if (failed[p]) continue;
      const auto& slot = cluster.reduce_slots_[p];
      for (std::size_t i = 0; i < length; ++i) {
        cluster.reduce_accum_[i] += slot[i];
      }
    }

    const std::size_t bytes = length * sizeof(Count);
    cluster.channel_.account(static_cast<std::uint64_t>(bytes) * survivors,
                             survivors);
    const double update_cost = cluster.cost_.message_time(bytes);
    double finish = 0.0;
    if (scheme == ReduceScheme::kSerialized) {
      // Processors update the shared Memory Channel array one at a time
      // (the paper's O(P) mutually exclusive scheme, §6.2), serialized
      // here by processor id, then synchronize.
      for (std::size_t p = 0; p < total; ++p) {
        if (failed[p]) continue;
        finish = std::max(finish, cluster.clocks_[p]) + update_cost;
      }
    } else if (scheme == ReduceScheme::kSerializedHosts) {
      // One representative per host takes a turn at the shared array; the
      // intra-host combine happens in host RAM (charged as memcpy).
      const std::size_t hosts = cluster.topology_.hosts;
      finish = cluster.max_survivor_clock() +
               static_cast<double>(hosts) * update_cost +
               cluster.cost_.memcpy_time(bytes) *
                   static_cast<double>(cluster.topology_.procs_per_host);
    } else {
      // Recursive doubling: ceil(log2 S) rounds over the survivors, each a
      // full-vector exchange running on all links concurrently.
      std::size_t rounds = 0;
      for (std::size_t span = 1; span < survivors; span *= 2) ++rounds;
      finish = cluster.max_survivor_clock() +
               static_cast<double>(rounds) * update_cost;
    }
    cluster.fill_survivor_clocks(finish);
    cluster.phase_start_max_ = finish;

    // Every survivor then reads the totals back from its receive region.
    const double read_cost = cluster.cost_.memcpy_time(bytes);
    for (std::size_t p = 0; p < total; ++p) {
      if (!failed[p]) cluster.clocks_[p] += read_cost;
    }
  });

  std::copy(cluster.reduce_accum_.begin(), cluster.reduce_accum_.end(),
            values.begin());
}

Blob Processor::broadcast(std::size_t root, Blob payload) {
  fault_probe(FaultOp::kBroadcast);
  Cluster& cluster = *cluster_;
  // Publish through the root's own slot; the fold moves it into the shared
  // broadcast buffer, which is only ever rewritten by a later fold (after
  // every consumer of this round has moved on). A root that crashed before
  // publishing delivers an empty payload (its slot is cleared on crash).
  if (id_ == root) cluster.gather_slots_[id_] = std::move(payload);

  cluster.sync([&cluster, root] {
    const std::vector<bool>& failed = cluster.barrier_.failed_in_fold();
    cluster.bcast_payload_ = std::move(cluster.gather_slots_[root]);
    cluster.gather_slots_[root].clear();
    // Memory Channel writes are multicast: the root pays one message, the
    // hub fans it out, receivers drain their receive region locally.
    const std::size_t bytes = cluster.bcast_payload_.size();
    cluster.channel_.account(bytes, 1);
    cluster.apply_phase_floor_and_sync(0.0);
    const double send = cluster.cost_.message_time(bytes);
    const double drain = cluster.cost_.memcpy_time(bytes);
    for (std::size_t p = 0; p < cluster.clocks_.size(); ++p) {
      if (failed[p]) continue;
      cluster.clocks_[p] += send + (p == root ? 0.0 : drain);
    }
    cluster.phase_start_max_ = cluster.max_survivor_clock();
  });

  return cluster.bcast_payload_;
}

std::vector<Blob> Processor::all_to_all(std::vector<Blob> outgoing) {
  fault_probe(FaultOp::kAllToAll);
  Cluster& cluster = *cluster_;
  const std::size_t total = cluster.topology_.total();
  if (outgoing.size() != total) {
    throw std::invalid_argument("all_to_all needs one payload per processor");
  }
  cluster.a2a_out_[id_] = std::move(outgoing);

  cluster.sync([&cluster, total] {
    const std::vector<bool>& failed = cluster.barrier_.failed_in_fold();
    FaultInjector* injector = cluster.injector_.get();
    // Route payloads (the self-payload short-circuits locally for free).
    // Consumers move their whole inbox row out, so rebuild each row to
    // full width before writing into it. Failed sources' rows stay empty.
    for (std::size_t dst = 0; dst < total; ++dst) {
      cluster.a2a_in_[dst].assign(total, Blob{});
      cluster.retransmit_store_[dst].clear();
    }
    std::uint64_t total_bytes = 0;
    std::uint64_t messages = 0;
    std::vector<std::uint64_t> sent(total, 0);
    std::vector<std::uint64_t> received(total, 0);
    for (std::size_t src = 0; src < total; ++src) {
      if (failed[src]) continue;  // crashed senders' outboxes are cleared
      for (std::size_t dst = 0; dst < total; ++dst) {
        if (failed[dst]) continue;  // no delivery to the dead
        Blob& payload = cluster.a2a_out_[src][dst];
        if (src != dst) {
          sent[src] += payload.size();
          received[dst] += payload.size();
          total_bytes += payload.size();
          ++messages;
          if (injector && !payload.empty()) {
            Blob pristine = payload;
            if (injector->corrupt_message(dst, src, payload)) {
              // Keep the original: it is still sitting in the sender's
              // transmit buffer, recoverable via Processor::retransmit.
              if (Trace* trace = cluster.trace_) {
                trace->record(dst, cluster.clocks_[dst], TraceKind::kFault,
                              "corrupt-message", pristine.size());
              }
              cluster.retransmit_store_[dst][src] = std::move(pristine);
            }
          }
        }
        cluster.a2a_in_[dst][src] = std::move(payload);
      }
      cluster.a2a_out_[src].clear();
    }
    cluster.channel_.account(total_bytes, messages);

    // Time model of the §6.3 lock-step exchange: alternating write/read
    // phases through bounded transmit/receive buffer pairs. Rounds are
    // driven by the heaviest sender; each round ends in a barrier. Links
    // run at link_bandwidth (write-doubled), the hub caps the aggregate.
    const CostModel& cost = cluster.cost_;
    cluster.apply_phase_floor_and_sync(0.0);
    const double start = cluster.phase_start_max_;

    std::size_t survivors = 0;
    for (std::size_t p = 0; p < total; ++p) {
      if (!failed[p]) ++survivors;
    }
    std::uint64_t max_sent = 0;
    for (std::uint64_t s : sent) max_sent = std::max(max_sent, s);
    const std::size_t rounds = std::max<std::size_t>(
        1, (max_sent + cost.exchange_buffer - 1) / cost.exchange_buffer);

    const double doubling = cost.write_doubling ? 2.0 : 1.0;
    double slowest = 0.0;
    for (std::size_t p = 0; p < total; ++p) {
      if (failed[p]) continue;
      const double t =
          static_cast<double>(rounds) *
              (cost.barrier_time(survivors) +
               static_cast<double>(survivors - 1) * cost.mc_latency) +
          doubling * static_cast<double>(sent[p]) / cost.link_bandwidth +
          cost.memcpy_time(received[p]);
      slowest = std::max(slowest, t);
    }
    const double hub_floor =
        static_cast<double>(total_bytes) / cluster.hub_bandwidth();
    const double finish = start + std::max(slowest, hub_floor);
    cluster.fill_survivor_clocks(finish);
    cluster.phase_start_max_ = finish;
  });

  return std::move(cluster.a2a_in_[id_]);
}

std::vector<Blob> Processor::all_gather(Blob payload) {
  fault_probe(FaultOp::kAllGather);
  Cluster& cluster = *cluster_;
  const std::size_t total = cluster.topology_.total();
  cluster.gather_slots_[id_] = std::move(payload);

  cluster.sync([&cluster, total] {
    const std::vector<bool>& failed = cluster.barrier_.failed_in_fold();
    // Move the published payloads into the round's result buffer so the
    // slots are free for the next round's publishes immediately. Failed
    // processors' slots stay empty.
    cluster.gather_result_.assign(total, Blob{});
    std::uint64_t total_bytes = 0;
    std::uint64_t messages = 0;
    double send_time = 0.0;
    const CostModel& cost = cluster.cost_;
    for (std::size_t p = 0; p < total; ++p) {
      if (failed[p]) continue;
      cluster.gather_result_[p] = std::move(cluster.gather_slots_[p]);
      cluster.gather_slots_[p].clear();
      total_bytes += cluster.gather_result_[p].size();
      ++messages;
      send_time = std::max(
          send_time, cost.message_time(cluster.gather_result_[p].size()));
    }
    // Each survivor multicasts its payload (one message each, in parallel
    // across links); the hub caps the aggregate; everyone drains all
    // surviving payloads from its receive region.
    cluster.channel_.account(total_bytes, messages);
    cluster.apply_phase_floor_and_sync(0.0);
    const double hub_floor =
        static_cast<double>(total_bytes) / cluster.hub_bandwidth();
    const double finish = cluster.phase_start_max_ +
                          std::max(send_time, hub_floor) +
                          cost.memcpy_time(total_bytes);
    cluster.fill_survivor_clocks(finish);
    cluster.phase_start_max_ = finish;
  });

  return cluster.gather_result_;
}

}  // namespace eclat::mc
