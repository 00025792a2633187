// Traffic accounting of the DEC Memory Channel network (paper §6.1).
//
// The real device maps "regions" of a global address space into process
// address spaces for transmit and/or receive; writes to a transmit region
// are forwarded through a hub and DMA-ed into every receive region with the
// same identifier. The cluster's collectives model that data movement and
// its cost (CostModel::message_time per link, the hub's aggregate-bandwidth
// cap, write-doubling) and record each transfer here, so a run reports the
// bytes and messages it pushed through the network.
#pragma once
// eclat-lint: allow-file(det-thread) processor threads record their transfers concurrently; the totals are order-independent sums

#include <atomic>
#include <cstdint>

namespace eclat::mc {

class MemoryChannel {
 public:
  /// Record traffic a collective moved: lifetime counters only, since
  /// each collective folds its own timing.
  void account(std::uint64_t bytes, std::uint64_t messages) {
    total_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    total_messages_.fetch_add(messages, std::memory_order_relaxed);
  }

  // Lifetime totals, for the traffic accounting in EXPERIMENTS.md.
  std::uint64_t total_bytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t total_messages() const {
    return total_messages_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> total_bytes_{0};
  std::atomic<std::uint64_t> total_messages_{0};
};

}  // namespace eclat::mc
