#include "mc/cluster.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "mc/memory_channel.hpp"
#include "mc/phase_barrier.hpp"
#include "mc/topology.hpp"

namespace eclat::mc {
namespace {

TEST(Topology, MapsProcessorsToHosts) {
  const Topology topology{4, 3};
  EXPECT_EQ(topology.total(), 12u);
  EXPECT_EQ(topology.host_of(0), 0u);
  EXPECT_EQ(topology.host_of(2), 0u);
  EXPECT_EQ(topology.host_of(3), 1u);
  EXPECT_EQ(topology.host_of(11), 3u);
  EXPECT_EQ(topology.slot_of(4), 1u);
  EXPECT_TRUE(topology.same_host(3, 5));
  EXPECT_FALSE(topology.same_host(2, 3));
  EXPECT_EQ(topology.label(), "P=3,H=4,T=12");
}

TEST(Topology, ValidateRejectsZeroDimensions) {
  EXPECT_THROW((Topology{0, 1}.validate()), std::invalid_argument);
  EXPECT_THROW((Topology{1, 0}.validate()), std::invalid_argument);
}

TEST(CostModel, MessageTimeScalesWithBytesAndDoubling) {
  CostModel cost;
  cost.write_doubling = false;
  const double small = cost.message_time(100);
  const double large = cost.message_time(1'000'000);
  EXPECT_GT(large, small);
  EXPECT_NEAR(small, cost.mc_latency + 100 / cost.link_bandwidth, 1e-12);

  CostModel doubled = cost;
  doubled.write_doubling = true;
  EXPECT_NEAR(doubled.message_time(1'000'000) - cost.mc_latency,
              2 * (cost.message_time(1'000'000) - cost.mc_latency), 1e-9);
}

TEST(CostModel, BarrierTimeGrowsLogarithmically) {
  CostModel cost;
  EXPECT_DOUBLE_EQ(cost.barrier_time(1), 0.0);
  EXPECT_DOUBLE_EQ(cost.barrier_time(2), cost.mc_latency);
  EXPECT_DOUBLE_EQ(cost.barrier_time(8), 3 * cost.mc_latency);
  EXPECT_DOUBLE_EQ(cost.barrier_time(32), 5 * cost.mc_latency);
}

TEST(CostModel, DiskContentionSlowsConcurrentScanners) {
  CostModel cost;
  const double alone = cost.disk_time(1'000'000, 1);
  const double crowded = cost.disk_time(1'000'000, 4);
  EXPECT_GT(crowded, alone);
  // With contention factor c, 4 scanners pay 1 + 3c times the transfer.
  const double transfer = 1'000'000 / cost.disk_bandwidth;
  EXPECT_NEAR(crowded - cost.disk_seek,
              transfer * (1 + 3 * cost.disk_contention), 1e-9);
}

TEST(PhaseBarrier, ReleasesAllAndRunsHookOnce) {
  PhaseBarrier barrier(4);
  std::atomic<int> hook_runs{0};
  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        ++arrived;
        barrier.arrive_and_wait([&] { ++hook_runs; });
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(hook_runs.load(), 10);
  EXPECT_EQ(arrived.load(), 40);
}

TEST(PhaseBarrier, RejectsZeroParticipants) {
  EXPECT_THROW(PhaseBarrier{0}, std::invalid_argument);
}

TEST(MemoryChannel, TracksTraffic) {
  MemoryChannel channel;
  channel.account(100, 1);
  channel.account(300, 4);
  EXPECT_EQ(channel.total_bytes(), 400u);
  EXPECT_EQ(channel.total_messages(), 5u);
}

TEST(Cluster, RunsBodyOncePerProcessor) {
  Cluster cluster(Topology{2, 2});
  std::vector<int> visits(4, 0);
  cluster.run([&](Processor& self) { ++visits[self.id()]; });
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(Cluster, ClocksStartAtZeroEachRun) {
  Cluster cluster(Topology{1, 2});
  cluster.run([](Processor& self) { self.advance(1.0); });
  EXPECT_NEAR(cluster.makespan(), 1.0, 1e-12);
  cluster.run([](Processor& self) { self.advance(0.25); });
  EXPECT_NEAR(cluster.makespan(), 0.25, 1e-12);
}

TEST(Cluster, BarrierSynchronizesClocksToMax) {
  Cluster cluster(Topology{1, 3});
  cluster.run([](Processor& self) {
    self.advance(static_cast<double>(self.id()));  // clocks 0, 1, 2
    self.barrier();
    // After the barrier everyone is at max + barrier cost.
    EXPECT_NEAR(self.now(), 2.0 + self.cost().barrier_time(3), 1e-9);
  });
}

TEST(Cluster, SumReduceProducesGlobalTotals) {
  Cluster cluster(Topology{2, 2});
  cluster.run([](Processor& self) {
    std::vector<Count> values = {self.id(), 10, 0};
    values[2] = self.id() * self.id();
    self.sum_reduce(values);
    EXPECT_EQ(values[0], 0u + 1 + 2 + 3);
    EXPECT_EQ(values[1], 40u);
    EXPECT_EQ(values[2], 0u + 1 + 4 + 9);
  });
}

TEST(Cluster, SumReduceAdvancesClocksIdentically) {
  Cluster cluster(Topology{1, 4});
  std::vector<double> after(4);
  cluster.run([&](Processor& self) {
    self.advance(0.5 * static_cast<double>(self.id()));
    std::vector<Count> values(100, 1);
    self.sum_reduce(values);
    after[self.id()] = self.now();
  });
  for (int p = 1; p < 4; ++p) EXPECT_DOUBLE_EQ(after[p], after[0]);
  EXPECT_GT(after[0], 1.5);  // at least the max input clock
}

TEST(Cluster, BroadcastDeliversRootPayload) {
  Cluster cluster(Topology{2, 2});
  cluster.run([](Processor& self) {
    Blob payload;
    if (self.id() == 1) payload = {9, 8, 7};
    const Blob received = self.broadcast(1, std::move(payload));
    EXPECT_EQ(received, (Blob{9, 8, 7}));
  });
}

TEST(Cluster, AllToAllRoutesPersonalizedPayloads) {
  Cluster cluster(Topology{2, 2});
  cluster.run([](Processor& self) {
    const std::size_t total = self.topology().total();
    std::vector<Blob> outgoing(total);
    for (std::size_t dst = 0; dst < total; ++dst) {
      outgoing[dst] = {static_cast<std::uint8_t>(self.id()),
                       static_cast<std::uint8_t>(dst)};
    }
    const std::vector<Blob> incoming = self.all_to_all(std::move(outgoing));
    ASSERT_EQ(incoming.size(), total);
    for (std::size_t src = 0; src < total; ++src) {
      EXPECT_EQ(incoming[src],
                (Blob{static_cast<std::uint8_t>(src),
                      static_cast<std::uint8_t>(self.id())}));
    }
  });
}

TEST(Cluster, AllToAllChargesMoreForMoreBytes) {
  const Topology topology{1, 4};
  double small_time = 0.0;
  double large_time = 0.0;
  for (const std::size_t payload : {std::size_t{100}, std::size_t{400000}}) {
    Cluster cluster(topology);
    cluster.run([&](Processor& self) {
      std::vector<Blob> outgoing(4, Blob(payload, 1));
      self.all_to_all(std::move(outgoing));
    });
    (payload == 100 ? small_time : large_time) = cluster.makespan();
  }
  EXPECT_GT(large_time, small_time * 10);
}

TEST(Cluster, AllGatherCollectsEveryPayload) {
  Cluster cluster(Topology{2, 2});
  cluster.run([](Processor& self) {
    const auto gathered =
        self.all_gather(Blob{static_cast<std::uint8_t>(self.id() + 100)});
    ASSERT_EQ(gathered.size(), 4u);
    for (std::size_t p = 0; p < 4; ++p) {
      EXPECT_EQ(gathered[p], Blob{static_cast<std::uint8_t>(p + 100)});
    }
  });
}

TEST(Cluster, CollectivesComposeOverManyRounds) {
  // Stress the publish/fold/consume discipline across repeated mixed
  // collectives: values must never bleed between rounds.
  Cluster cluster(Topology{2, 3});
  cluster.run([](Processor& self) {
    for (std::uint64_t round = 0; round < 25; ++round) {
      std::vector<Count> values = {self.id() + round};
      self.sum_reduce(values);
      EXPECT_EQ(values[0], 0u + 1 + 2 + 3 + 4 + 5 + 6 * round);

      const Blob received = self.broadcast(
          round % 6, Blob{static_cast<std::uint8_t>(round % 251)});
      EXPECT_EQ(received, Blob{static_cast<std::uint8_t>(round % 251)});

      std::vector<Blob> outgoing(6,
                                 Blob{static_cast<std::uint8_t>(self.id())});
      const auto incoming = self.all_to_all(std::move(outgoing));
      for (std::size_t src = 0; src < 6; ++src) {
        EXPECT_EQ(incoming[src], Blob{static_cast<std::uint8_t>(src)});
      }
    }
  });
}

TEST(Cluster, DiskReadChargesContention) {
  const std::size_t bytes = 10'000'000;
  double alone = 0.0;
  double crowded = 0.0;
  {
    Cluster cluster(Topology{4, 1});
    cluster.run([&](Processor& self) { self.disk_read(bytes); });
    alone = cluster.makespan();
  }
  {
    Cluster cluster(Topology{1, 4});
    cluster.run([&](Processor& self) { self.disk_read(bytes); });
    crowded = cluster.makespan();
  }
  EXPECT_GT(crowded, alone * 2);  // four scanners share one disk
}

TEST(Cluster, ComputeChargesScaledCpuTime) {
  Cluster cluster(Topology{1, 1});
  cluster.run([](Processor& self) {
    volatile double sink = 0.0;
    self.compute([&] {
      for (int i = 0; i < 2'000'000; ++i) sink = sink + 1.0;
    });
    EXPECT_GT(self.now(), 0.0);
  });
  EXPECT_GT(cluster.makespan(), 0.0);
}

TEST(Cluster, ComputeReturnsBodyResult) {
  Cluster cluster(Topology{1, 1});
  cluster.run([](Processor& self) {
    const int answer = self.compute([] { return 41 + 1; });
    EXPECT_EQ(answer, 42);
  });
}

TEST(Cluster, MakespanIsMaxClock) {
  Cluster cluster(Topology{1, 3});
  cluster.run([](Processor& self) {
    self.advance(self.id() == 2 ? 9.0 : 1.0);
  });
  EXPECT_DOUBLE_EQ(cluster.makespan(), 9.0);
}

}  // namespace
}  // namespace eclat::mc
