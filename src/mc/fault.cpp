#include "mc/fault.hpp"
// eclat-lint: allow-file(det-thread) injector state spans processor threads; every trigger counter is advanced only by its owning thread, so replays are exact

#include <algorithm>

namespace eclat::mc {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kDiskStall: return "disk-stall";
    case FaultKind::kHang: return "hang";
    case FaultKind::kCorruptMessage: return "corrupt-message";
    case FaultKind::kHubDegrade: return "hub-degrade";
    case FaultKind::kPartition: return "partition";
  }
  return "?";
}

const char* to_string(FaultOp op) {
  switch (op) {
    case FaultOp::kAny: return "any";
    case FaultOp::kCompute: return "compute";
    case FaultOp::kDiskRead: return "disk-read";
    case FaultOp::kDiskWrite: return "disk-write";
    case FaultOp::kBarrier: return "barrier";
    case FaultOp::kSumReduce: return "sum-reduce";
    case FaultOp::kBroadcast: return "broadcast";
    case FaultOp::kAllToAll: return "all-to-all";
    case FaultOp::kAllGather: return "all-gather";
    case FaultOp::kPoint: return "point";
  }
  return "?";
}

FaultEvent FaultPlan::crash(std::size_t proc, FaultOp op, std::string phase,
                            std::size_t after_calls) {
  FaultEvent event;
  event.kind = FaultKind::kCrash;
  event.processor = proc;
  event.op = op;
  event.phase = std::move(phase);
  event.after_calls = after_calls;
  return event;
}

FaultEvent FaultPlan::crash_at_point(std::size_t proc, std::string label,
                                     std::size_t after_calls) {
  FaultEvent event;
  event.kind = FaultKind::kCrash;
  event.processor = proc;
  event.op = FaultOp::kPoint;
  event.label = std::move(label);
  event.after_calls = after_calls;
  return event;
}

FaultEvent FaultPlan::crash_at_time(std::size_t proc, double at_time) {
  FaultEvent event;
  event.kind = FaultKind::kCrash;
  event.processor = proc;
  event.at_time = at_time;
  return event;
}

FaultEvent FaultPlan::disk_stall(std::size_t proc, double multiplier,
                                 std::string phase, bool persistent) {
  FaultEvent event;
  event.kind = FaultKind::kDiskStall;
  event.processor = proc;
  event.op = FaultOp::kDiskRead;
  event.phase = std::move(phase);
  event.severity = multiplier;
  event.persistent = persistent;
  return event;
}

FaultEvent FaultPlan::hang(std::size_t proc, FaultOp op, std::string phase,
                           std::size_t after_calls, double duration) {
  FaultEvent event;
  event.kind = FaultKind::kHang;
  event.processor = proc;
  event.op = op;
  event.phase = std::move(phase);
  event.after_calls = after_calls;
  event.duration = duration;
  return event;
}

FaultEvent FaultPlan::hang_at_point(std::size_t proc, std::string label,
                                    std::size_t after_calls,
                                    double duration) {
  FaultEvent event;
  event.kind = FaultKind::kHang;
  event.processor = proc;
  event.op = FaultOp::kPoint;
  event.label = std::move(label);
  event.after_calls = after_calls;
  event.duration = duration;
  return event;
}

FaultEvent FaultPlan::hang_at_time(std::size_t proc, double at_time,
                                   double duration) {
  FaultEvent event;
  event.kind = FaultKind::kHang;
  event.processor = proc;
  event.at_time = at_time;
  event.duration = duration;
  return event;
}

FaultEvent FaultPlan::corrupt_message(std::size_t dst, std::size_t src,
                                      std::size_t after_calls,
                                      double max_bytes) {
  FaultEvent event;
  event.kind = FaultKind::kCorruptMessage;
  event.processor = dst;
  event.peer = src;
  event.after_calls = after_calls;
  event.severity = max_bytes;
  return event;
}

FaultEvent FaultPlan::hub_degrade(double divisor, double from,
                                  double duration) {
  FaultEvent event;
  event.kind = FaultKind::kHubDegrade;
  event.severity = divisor;
  event.at_time = from;
  event.duration = duration;
  return event;
}

FaultEvent FaultPlan::partition(std::vector<std::size_t> members, double from,
                                double duration) {
  FaultEvent event;
  event.kind = FaultKind::kPartition;
  event.members = std::move(members);
  event.at_time = from;
  event.duration = duration;
  return event;
}

std::string trigger_signature(const FaultEvent& event) {
  return std::to_string(static_cast<int>(event.kind)) + "|" +
         std::to_string(event.processor) + "|" + std::to_string(event.peer) +
         "|" + std::to_string(static_cast<int>(event.op)) + "|" +
         event.phase + "|" + event.label + "|" +
         std::to_string(event.after_calls);
}

void validate_plan(const FaultPlan& plan, std::size_t total_processors) {
  std::vector<std::string> seen_triggers;
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const FaultEvent& event = plan.events[i];
    const bool needs_owner = event.kind == FaultKind::kCrash ||
                             event.kind == FaultKind::kDiskStall ||
                             event.kind == FaultKind::kHang;
    if (needs_owner && event.processor >= total_processors) {
      throw std::invalid_argument(
          std::string(to_string(event.kind)) +
          " fault events need an explicit target processor "
          "(determinism requires single-owner trigger counters)");
    }
    if (event.kind == FaultKind::kPartition) {
      if (!(event.at_time >= 0.0) || !(event.duration > 0.0)) {
        throw std::invalid_argument(
            "partition event " + std::to_string(i) +
            " has an out-of-order window: needs at_time >= 0 and "
            "duration > 0 so [from, from + duration) is non-empty "
            "(partitions heal; crash the processors instead of cutting "
            "them forever)");
      }
      if (event.members.empty() ||
          event.members.size() >= total_processors) {
        throw std::invalid_argument(
            "partition event " + std::to_string(i) +
            " must cut a non-empty proper subset of the " +
            std::to_string(total_processors) +
            " processors (both sides need at least one member)");
      }
      std::vector<bool> in_group(total_processors, false);
      for (const std::size_t p : event.members) {
        if (p >= total_processors) {
          throw std::invalid_argument(
              "partition event " + std::to_string(i) + " names processor " +
              std::to_string(p) + ", but the cluster has only " +
              std::to_string(total_processors) + " processors");
        }
        if (in_group[p]) {
          throw std::invalid_argument(
              "partition event " + std::to_string(i) +
              " lists processor " + std::to_string(p) + " twice");
        }
        in_group[p] = true;
      }
      continue;  // partitions are window-triggered; no trigger counter
    }
    if (event.kind == FaultKind::kHubDegrade || event.at_time >= 0.0) {
      continue;  // time/window triggers cannot collide on a counter
    }
    std::string signature = trigger_signature(event);
    for (const std::string& prior : seen_triggers) {
      if (prior == signature) {
        throw std::invalid_argument(
            "two " + std::string(to_string(event.kind)) +
            " events share one single-owner trigger counter (processor " +
            std::to_string(event.processor) + ", op " + to_string(event.op) +
            ", phase '" + event.phase + "', label '" + event.label +
            "', after_calls " + std::to_string(event.after_calls) +
            "): both would fire on the same probe — distinguish their "
            "sites or after_calls");
      }
    }
    seen_triggers.push_back(std::move(signature));
  }
}

ProcessorFailed::ProcessorFailed(std::size_t processor,
                                 const std::string& site)
    : std::runtime_error("processor " + std::to_string(processor) +
                         " failed at " + site),
      processor_(processor) {}

ProcessorHung::ProcessorHung(std::size_t processor, const std::string& site)
    : std::runtime_error("processor " + std::to_string(processor) +
                         " hung at " + site),
      processor_(processor) {}

ProcessorPartitioned::ProcessorPartitioned(std::size_t processor,
                                           const std::string& site)
    : std::runtime_error("processor " + std::to_string(processor) +
                         " partitioned away from quorum at " + site),
      processor_(processor) {}

FaultInjector::FaultInjector(const FaultPlan& plan,
                             std::size_t total_processors)
    : total_processors_(total_processors),
      fold_rng_(plan.seed ^ 0xf01df01df01df01dULL) {
  validate_plan(plan, total_processors);
  events_.reserve(plan.events.size());
  for (const FaultEvent& event : plan.events) {
    events_.push_back(EventState{event, 0, false});
  }
}

namespace {

bool is_collective(FaultOp op) {
  return op == FaultOp::kBarrier || op == FaultOp::kSumReduce ||
         op == FaultOp::kBroadcast || op == FaultOp::kAllToAll ||
         op == FaultOp::kAllGather;
}

bool site_matches(const FaultEvent& event, FaultOp op,
                  const std::string& phase, const std::string& label) {
  // A stalled disk is a device fault: it slows every access, so a
  // kDiskStall registered against either disk op matches both.
  const bool both_disk =
      event.kind == FaultKind::kDiskStall &&
      (op == FaultOp::kDiskRead || op == FaultOp::kDiskWrite) &&
      (event.op == FaultOp::kDiskRead || event.op == FaultOp::kDiskWrite);
  if (event.op != FaultOp::kAny && event.op != op && !both_disk)
    return false;
  if (!event.phase.empty() && event.phase != phase) return false;
  if (!event.label.empty() && event.label != label) return false;
  return true;
}

}  // namespace

ProbeResult FaultInjector::probe(std::size_t proc, FaultOp op,
                                 const std::string& phase,
                                 const std::string& label, double now) {
  // A collective needs a majority rendezvous: a processor cut off from
  // quorum by an active partition window aborts the phase right here.
  // Read-only (several minority processors probe the same window
  // concurrently), so no trigger state to race on.
  if (is_collective(op) && partition_minority(proc, now)) {
    injected_.fetch_add(1, std::memory_order_relaxed);
    throw ProcessorPartitioned(
        proc, std::string(to_string(op)) +
                  (phase.empty() ? "" : "/" + phase));
  }
  ProbeResult result;
  for (EventState& state : events_) {
    const FaultEvent& event = state.event;
    if (event.kind != FaultKind::kCrash &&
        event.kind != FaultKind::kDiskStall &&
        event.kind != FaultKind::kHang) {
      continue;
    }
    if (event.processor != proc) continue;
    if (!site_matches(event, op, phase, label)) continue;

    bool fires = false;
    if (event.at_time >= 0.0) {
      fires = !state.fired && now >= event.at_time;
    } else {
      fires = !state.fired && state.hits == event.after_calls;
      ++state.hits;
    }
    if (fires) {
      state.fired = true;
      injected_.fetch_add(1, std::memory_order_relaxed);
      const std::string site = std::string(to_string(op)) +
                               (phase.empty() ? "" : "/" + phase) +
                               (label.empty() ? "" : "/" + label);
      if (event.kind == FaultKind::kCrash) {
        throw ProcessorFailed(proc, site);
      }
      if (event.kind == FaultKind::kHang) {
        if (event.duration < 0.0) throw ProcessorHung(proc, site);
        result.hang_seconds += event.duration;
        continue;
      }
      result.stall *= event.severity;
    } else if (state.fired && event.persistent &&
               event.kind == FaultKind::kDiskStall) {
      result.stall *= event.severity;
    }
  }
  return result;
}

bool FaultInjector::corrupt_message(std::size_t dst, std::size_t src,
                                    std::vector<std::uint8_t>& payload) {
  // Retransmissions re-probe this from processor threads, concurrently
  // with each other (the original deliveries stay fold-serialized).
  std::lock_guard<std::mutex> lock(message_mutex_);
  bool corrupted = false;
  for (EventState& state : events_) {
    const FaultEvent& event = state.event;
    if (event.kind != FaultKind::kCorruptMessage || state.fired) continue;
    if (event.processor != kAnyProcessor && event.processor != dst) continue;
    if (event.peer != kAnyProcessor && event.peer != src) continue;
    if (payload.empty()) continue;  // nothing to corrupt; keep waiting
    if (state.hits++ != event.after_calls) continue;
    state.fired = true;
    injected_.fetch_add(1, std::memory_order_relaxed);
    mutate(payload, static_cast<std::size_t>(event.severity), fold_rng_);
    corrupted = true;
  }
  return corrupted;
}

double FaultInjector::hub_divisor(double now) {
  double divisor = 1.0;
  for (EventState& state : events_) {
    const FaultEvent& event = state.event;
    if (event.kind != FaultKind::kHubDegrade) continue;
    const double from = std::max(event.at_time, 0.0);
    const bool active =
        now >= from && (event.duration < 0.0 || now < from + event.duration);
    if (active) {
      if (!state.fired) {
        state.fired = true;
        injected_.fetch_add(1, std::memory_order_relaxed);
      }
      divisor *= event.severity;
    }
  }
  return std::max(divisor, 1.0);
}

bool FaultInjector::partition_minority(std::size_t proc, double now) const {
  for (const EventState& state : events_) {
    const FaultEvent& event = state.event;
    if (event.kind != FaultKind::kPartition) continue;
    if (now < event.at_time || now >= event.at_time + event.duration) {
      continue;  // window not active at this processor's clock
    }
    const bool in_group =
        std::find(event.members.begin(), event.members.end(), proc) !=
        event.members.end();
    const std::size_t side_size = in_group
                                      ? event.members.size()
                                      : total_processors_ -
                                            event.members.size();
    // Quorum = strict majority of *all* processors (the static membership
    // the run started with; crashed processors still count toward the
    // denominator, exactly like a real quorum system's configured size).
    if (side_size * 2 <= total_processors_) return true;
  }
  return false;
}

std::size_t FaultInjector::injected() const {
  return injected_.load(std::memory_order_relaxed);
}

void FaultInjector::mutate(std::vector<std::uint8_t>& bytes,
                           std::size_t max_bytes, Rng& rng) {
  // Truncation 1 time in 4, bit flips otherwise — both must be caught by
  // the CRC32 frame check, never decoded into wrong counts.
  if (rng.below(4) == 0) {
    bytes.resize(rng.below(bytes.size()));
    return;
  }
  const std::size_t flips =
      1 + rng.below(std::max<std::size_t>(max_bytes, 1));
  for (std::size_t f = 0; f < flips; ++f) {
    bytes[rng.below(bytes.size())] ^=
        static_cast<std::uint8_t>(1 + rng.below(255));
  }
}

}  // namespace eclat::mc
