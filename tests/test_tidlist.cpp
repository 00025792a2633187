#include "vertical/tidlist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/rng.hpp"
#include "eclat/compute_frequent.hpp"
#include "eclat/eclat_seq.hpp"
#include "gen/quest.hpp"
#include "vertical/bitset_tidlist.hpp"
#include "vertical/simd/dispatch.hpp"
#include "vertical/tidset.hpp"

namespace eclat {
namespace {

TEST(TidList, IsValidTidlist) {
  EXPECT_TRUE(is_valid_tidlist(TidList{}));
  EXPECT_TRUE(is_valid_tidlist(TidList{5}));
  EXPECT_TRUE(is_valid_tidlist(TidList{1, 2, 9}));
  EXPECT_FALSE(is_valid_tidlist(TidList{1, 1}));
  EXPECT_FALSE(is_valid_tidlist(TidList{2, 1}));
}

TEST(TidList, IntersectMatchesPaperExample) {
  // Paper §4.2: T(AB) = {1,5,7,10,50}, T(AC) = {1,4,7,10,11}
  // => T(ABC) = {1,7,10}.
  const TidList ab = {1, 5, 7, 10, 50};
  const TidList ac = {1, 4, 7, 10, 11};
  EXPECT_EQ(intersect(ab, ac), (TidList{1, 7, 10}));
}

TEST(TidList, IntersectEdgeCases) {
  EXPECT_TRUE(intersect(TidList{}, TidList{}).empty());
  EXPECT_TRUE(intersect(TidList{1, 2}, TidList{}).empty());
  EXPECT_TRUE(intersect(TidList{1, 3}, TidList{2, 4}).empty());
  EXPECT_EQ(intersect(TidList{1, 2, 3}, TidList{1, 2, 3}),
            (TidList{1, 2, 3}));
}

TEST(TidList, IntersectionSizeAgreesWithIntersect) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    TidList a;
    TidList b;
    for (Tid t = 0; t < 300; ++t) {
      if (rng.uniform() < 0.3) a.push_back(t);
      if (rng.uniform() < 0.3) b.push_back(t);
    }
    EXPECT_EQ(intersection_size(a, b), intersect(a, b).size());
  }
}

TEST(TidList, ShortCircuitReturnsExactResultWhenFrequent) {
  const TidList a = {1, 2, 3, 4, 5, 6};
  const TidList b = {2, 4, 6, 8};
  const auto result = intersect_short_circuit(a, b, 2);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, (TidList{2, 4, 6}));
}

TEST(TidList, ShortCircuitRejectsWhenBoundTooSmall) {
  const TidList a = {1, 2, 3};
  const TidList b = {4, 5, 6, 7};
  // |a| = 3 < minsup = 4: rejected before scanning.
  EXPECT_FALSE(intersect_short_circuit(a, b, 4).has_value());
}

TEST(TidList, ShortCircuitRejectsAfterEnoughMismatches) {
  // Intersection is {100}; with minsup 2 the scan must abort and report
  // infrequent.
  const TidList a = {1, 3, 5, 100};
  const TidList b = {2, 4, 6, 100};
  EXPECT_FALSE(intersect_short_circuit(a, b, 2).has_value());
}

TEST(TidList, ShortCircuitBoundaryExactlyMinsup) {
  const TidList a = {1, 2, 3};
  const TidList b = {1, 2, 3};
  const auto result = intersect_short_circuit(a, b, 3);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->size(), 3u);
}

TEST(TidList, ShortCircuitAgreesWithPlainIntersect) {
  Rng rng(1234);
  for (int trial = 0; trial < 100; ++trial) {
    TidList a;
    TidList b;
    for (Tid t = 0; t < 200; ++t) {
      if (rng.uniform() < 0.4) a.push_back(t);
      if (rng.uniform() < 0.4) b.push_back(t);
    }
    const TidList exact = intersect(a, b);
    for (Count minsup : {1u, 5u, 20u, 100u}) {
      const auto fast = intersect_short_circuit(a, b, minsup);
      if (exact.size() >= minsup) {
        ASSERT_TRUE(fast.has_value());
        EXPECT_EQ(*fast, exact);
      } else {
        EXPECT_FALSE(fast.has_value());
      }
    }
  }
}

TEST(TidList, GallopAgreesWithMergeOnSkewedInputs) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    TidList small;
    TidList large;
    for (Tid t = 0; t < 2000; ++t) {
      if (rng.uniform() < 0.005) small.push_back(t);
      if (rng.uniform() < 0.5) large.push_back(t);
    }
    EXPECT_EQ(intersect_gallop(small, large), intersect(small, large));
    EXPECT_EQ(intersect_gallop(large, small), intersect(large, small));
  }
}

TEST(TidList, GallopEdgeCases) {
  EXPECT_TRUE(intersect_gallop(TidList{}, TidList{1, 2}).empty());
  EXPECT_EQ(intersect_gallop(TidList{5}, TidList{1, 5, 9}), (TidList{5}));
  EXPECT_TRUE(intersect_gallop(TidList{10}, TidList{1, 2, 3}).empty());
}

TEST(TidList, DifferenceAndUnion) {
  const TidList a = {1, 2, 3, 5};
  const TidList b = {2, 4, 5};
  EXPECT_EQ(difference(a, b), (TidList{1, 3}));
  EXPECT_EQ(difference(b, a), (TidList{4}));
  EXPECT_EQ(unite(a, b), (TidList{1, 2, 3, 4, 5}));
}

TEST(TidList, IntersectionAlgebraProperties) {
  // Property sweep: |a ∩ b| + |a \ b| = |a|, and a ∩ b == b ∩ a.
  Rng rng(4321);
  for (int trial = 0; trial < 50; ++trial) {
    TidList a;
    TidList b;
    for (Tid t = 0; t < 500; ++t) {
      if (rng.uniform() < 0.2) a.push_back(t);
      if (rng.uniform() < 0.6) b.push_back(t);
    }
    const TidList ab = intersect(a, b);
    EXPECT_EQ(ab, intersect(b, a));
    EXPECT_EQ(ab.size() + difference(a, b).size(), a.size());
    EXPECT_EQ(unite(a, b).size(), a.size() + b.size() - ab.size());
    EXPECT_TRUE(is_valid_tidlist(ab));
  }
}

TidList random_list(Rng& rng, Tid universe, double density) {
  TidList out;
  for (Tid t = 0; t < universe; ++t) {
    if (rng.uniform() < density) out.push_back(t);
  }
  return out;
}

// Adversarial operand pairs every kernel must agree on: disjoint ranges,
// nested lists, single elements, and empties.
std::vector<std::pair<TidList, TidList>> adversarial_pairs() {
  return {
      {{}, {}},
      {{5}, {}},
      {{}, {0, 1, 2}},
      {{0, 1, 2, 3}, {4, 5, 6, 7}},            // disjoint ranges
      {{0, 2, 4, 6}, {1, 3, 5, 7}},            // disjoint interleaved
      {{10, 20, 30, 40}, {20, 30}},            // nested
      {{63}, {63}},                            // word-boundary single
      {{64}, {63, 64, 65}},                    // straddles a word edge
      {{0, 63, 64, 127, 128}, {63, 128}},      // word-boundary pattern
      {{7}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},   // single vs run
  };
}

TEST(BitsetTidList, RoundTripAcrossWordBoundaries) {
  Rng rng(11);
  for (Tid universe : {1u, 63u, 64u, 65u, 127u, 128u, 1000u}) {
    for (double density : {0.0, 0.05, 0.5, 1.0}) {
      const TidList tids = random_list(rng, universe, density);
      BitsetTidList bits;
      bits.assign(tids, universe);
      EXPECT_EQ(bits.count(), tids.size());
      EXPECT_EQ(bits.to_tidlist(), tids);
      for (Tid t = 0; t < universe; ++t) {
        EXPECT_EQ(bits.test(t),
                  std::binary_search(tids.begin(), tids.end(), t));
      }
      EXPECT_FALSE(bits.test(universe));      // out of range: never set
      EXPECT_FALSE(bits.test(universe + 1));
    }
  }
}

TEST(BitsetTidList, AndMatchesSparseIntersect) {
  Rng rng(22);
  constexpr Tid kUniverse = 400;
  for (int trial = 0; trial < 60; ++trial) {
    const TidList a = random_list(rng, kUniverse, 0.3);
    const TidList b = random_list(rng, kUniverse, 0.3);
    BitsetTidList ba, bb, result;
    ba.assign(a, kUniverse);
    bb.assign(b, kUniverse);
    result.assign_and(ba, bb);
    EXPECT_EQ(result.to_tidlist(), intersect(a, b));
  }
}

TEST(BitsetTidList, BoundedAndAbortsExactlyWhenInfrequent) {
  Rng rng(33);
  constexpr Tid kUniverse = 512;
  for (int trial = 0; trial < 60; ++trial) {
    const TidList a = random_list(rng, kUniverse, 0.2);
    const TidList b = random_list(rng, kUniverse, 0.2);
    const TidList exact = intersect(a, b);
    BitsetTidList ba, bb;
    ba.assign(a, kUniverse);
    bb.assign(b, kUniverse);
    for (Count minsup : {1u, 4u, 16u, 64u, 512u}) {
      BitsetTidList result;
      const bool ok = result.assign_and_bounded(ba, bb, minsup, nullptr);
      EXPECT_EQ(ok, exact.size() >= minsup);
      if (ok) {
        EXPECT_EQ(result.to_tidlist(), exact);
      }
      const auto count = BitsetTidList::and_count(ba, bb, minsup, nullptr);
      EXPECT_EQ(count.has_value(), exact.size() >= minsup);
      if (count) {
        EXPECT_EQ(*count, exact.size());
      }
    }
  }
}

TEST(BitsetTidList, AndNotAndMinusSparseMatchDifference) {
  Rng rng(44);
  constexpr Tid kUniverse = 320;
  for (int trial = 0; trial < 60; ++trial) {
    const TidList a = random_list(rng, kUniverse, 0.4);
    const TidList b = random_list(rng, kUniverse, 0.4);
    const TidList exact = difference(a, b);
    BitsetTidList ba, bb;
    ba.assign(a, kUniverse);
    bb.assign(b, kUniverse);
    for (std::size_t budget : {std::size_t{0}, std::size_t{10},
                               std::size_t{kUniverse}}) {
      BitsetTidList andnot;
      const bool ok = andnot.assign_andnot_bounded(ba, bb, budget, nullptr);
      EXPECT_EQ(ok, exact.size() <= budget);
      if (ok) {
        EXPECT_EQ(andnot.to_tidlist(), exact);
      }
      BitsetTidList minus;
      const bool ok2 = minus.assign_minus_sparse(ba, b, budget, nullptr);
      EXPECT_EQ(ok2, exact.size() <= budget);
      if (ok2) {
        EXPECT_EQ(minus.to_tidlist(), exact);
      }
    }
  }
}

TEST(TidSet, PrefersDenseAtTheDocumentedThreshold) {
  // Dense iff size * 128 >= universe; the boundary itself goes dense.
  EXPECT_FALSE(TidSet::prefers_dense(0, 128));  // empty stays sparse
  EXPECT_TRUE(TidSet::prefers_dense(1, 128));
  EXPECT_TRUE(TidSet::prefers_dense(10, 1280));
  EXPECT_FALSE(TidSet::prefers_dense(9, 1280));
  EXPECT_TRUE(TidSet::prefers_dense(10, 1279));
}

TEST(TidSet, SeedRepresentationFollowsKernel) {
  const TidList tids = {0, 10, 20, 30};  // density 4/640 — under threshold
  constexpr Tid kUniverse = 640;
  for (IntersectKernel kernel :
       {IntersectKernel::kMerge, IntersectKernel::kMergeShortCircuit,
        IntersectKernel::kGallop}) {
    TidSet set;
    seed_tidset(tids, kUniverse, kernel, set, nullptr);
    EXPECT_FALSE(set.dense()) << kernel_name(kernel);
  }
  TidSet forced;
  seed_tidset(tids, kUniverse, IntersectKernel::kBitset, forced, nullptr);
  EXPECT_TRUE(forced.dense());
  TidSet adaptive;
  seed_tidset(tids, kUniverse, IntersectKernel::kAuto, adaptive, nullptr);
  EXPECT_FALSE(adaptive.dense());  // 4·128 < 640
  TidSet adaptive_dense;
  seed_tidset(tids, 256, IntersectKernel::kAuto, adaptive_dense, nullptr);
  EXPECT_TRUE(adaptive_dense.dense());  // 4·128 >= 256
  EXPECT_EQ(adaptive_dense.to_tidlist(), tids);
}

constexpr IntersectKernel kAllKernels[] = {
    IntersectKernel::kMerge, IntersectKernel::kMergeShortCircuit,
    IntersectKernel::kGallop, IntersectKernel::kBitset,
    IntersectKernel::kAuto};

TEST(TidSet, IntersectionAgreesWithReferenceAcrossKernels) {
  Rng rng(55);
  constexpr Tid kUniverse = 1024;
  std::vector<std::pair<TidList, TidList>> cases = adversarial_pairs();
  // Density sweep including both sides of the 1/128 threshold and a skewed
  // pair that triggers the gallop arm of kAuto.
  for (double da : {0.004, 0.0625, 0.3}) {
    for (double db : {0.004, 0.0625, 0.3}) {
      cases.emplace_back(random_list(rng, kUniverse, da),
                         random_list(rng, kUniverse, db));
    }
  }
  cases.emplace_back(random_list(rng, kUniverse, 0.002),
                     random_list(rng, kUniverse, 0.9));

  for (const auto& [a, b] : cases) {
    const TidList exact = intersect(a, b);
    const Tid universe = kUniverse;
    for (IntersectKernel kernel : kAllKernels) {
      for (Count minsup : {1u, 3u, 40u}) {
        TidSet sa, sb, out;
        seed_tidset(a, universe, kernel, sa, nullptr);
        seed_tidset(b, universe, kernel, sb, nullptr);
        const bool ok =
            intersect_into(sa, sb, minsup, kernel, universe, out, nullptr);
        EXPECT_EQ(ok, exact.size() >= minsup) << kernel_name(kernel);
        if (ok) {
          EXPECT_EQ(out.to_tidlist(), exact) << kernel_name(kernel);
        }

        const std::optional<Count> support =
            intersect_support(sa, sb, minsup, kernel, nullptr);
        EXPECT_EQ(support.has_value(), exact.size() >= minsup)
            << kernel_name(kernel);
        if (support) {
          EXPECT_EQ(*support, exact.size());
        }
      }
    }
  }
}

TEST(TidSet, DifferenceAgreesWithReferenceAcrossKernels) {
  Rng rng(66);
  constexpr Tid kUniverse = 1024;
  std::vector<std::pair<TidList, TidList>> cases = adversarial_pairs();
  for (double da : {0.004, 0.3}) {
    for (double db : {0.004, 0.3}) {
      cases.emplace_back(random_list(rng, kUniverse, da),
                         random_list(rng, kUniverse, db));
    }
  }
  for (const auto& [a, b] : cases) {
    const TidList exact = difference(a, b);
    for (IntersectKernel kernel : kAllKernels) {
      for (std::size_t budget : {std::size_t{0}, std::size_t{5},
                                 std::size_t{kUniverse}}) {
        TidSet sa, sb, out;
        seed_tidset(a, kUniverse, kernel, sa, nullptr);
        seed_tidset(b, kUniverse, kernel, sb, nullptr);
        const bool ok = difference_into(sa, sb, budget, kernel, kUniverse,
                                        out, nullptr);
        EXPECT_EQ(ok, exact.size() <= budget) << kernel_name(kernel);
        if (ok) {
          EXPECT_EQ(out.to_tidlist(), exact) << kernel_name(kernel);
        }
      }
    }
  }
}

TEST(TidSet, IntersectWithKernelAgreesAcrossAllKernels) {
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const TidList a = random_list(rng, 500, 0.25);
    const TidList b = random_list(rng, 500, 0.25);
    const TidList exact = intersect(a, b);
    for (IntersectKernel kernel : kAllKernels) {
      for (Count minsup : {1u, 10u, 200u}) {
        const std::optional<TidList> result =
            intersect_with_kernel(a, b, minsup, kernel, nullptr);
        EXPECT_EQ(result.has_value(), exact.size() >= minsup)
            << kernel_name(kernel);
        if (result) {
          EXPECT_EQ(*result, exact) << kernel_name(kernel);
        }
      }
    }
  }
}

TEST(TidSet, StatsCountElementsActuallyVisited) {
  // a exhausts before b is ever advanced: the merge visits |a| elements
  // plus none of b, so tids_scanned must be 100 — not |a| + |b| = 300
  // as the pre-counting bug reported.
  TidList a, b;
  for (Tid t = 0; t < 100; ++t) a.push_back(t);
  for (Tid t = 100; t < 300; ++t) b.push_back(t);
  IntersectStats stats;
  const auto result =
      intersect_with_kernel(a, b, 1, IntersectKernel::kMerge, &stats);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(stats.intersections, 1u);
  EXPECT_EQ(stats.tids_scanned, 100u);
  EXPECT_EQ(stats.merge_calls, 1u);
}

TEST(TidSet, StatsCountWordsActuallyScanned) {
  // Dense kernel over universe 256 = 4 words; a full AND scans exactly 4.
  TidList a, b;
  for (Tid t = 0; t < 256; t += 2) a.push_back(t);
  for (Tid t = 0; t < 256; t += 4) b.push_back(t);
  IntersectStats stats;
  TidSet sa, sb, out;
  seed_tidset(a, 256, IntersectKernel::kBitset, sa, &stats);
  seed_tidset(b, 256, IntersectKernel::kBitset, sb, &stats);
  EXPECT_EQ(stats.densified, 2u);
  ASSERT_TRUE(intersect_into(sa, sb, 1, IntersectKernel::kBitset, 256, out,
                             &stats));
  EXPECT_EQ(stats.words_scanned, 4u);
  EXPECT_EQ(stats.bitset_calls, 1u);
  EXPECT_EQ(out.support(), 64u);
}

TEST(TidSet, KernelNamesRoundTrip) {
  for (IntersectKernel kernel : kAllKernels) {
    const auto parsed = kernel_from_name(kernel_name(kernel));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kernel);
  }
  EXPECT_FALSE(kernel_from_name("simd").has_value());
  EXPECT_FALSE(kernel_from_name("").has_value());
}

// ---- Wide-universe and SIMD-dispatch properties ----

/// Universe of 2^18 tids: `auto` turns a list dense at 2,048 tids.
constexpr Tid kWideUniverse = 1u << 18;

/// Adversarial single lists over the wide universe: tids around 2^16
/// and 2^17, consecutive spans, one tid per 2^16-tid block, and a
/// 15,000-tid region dense enough to seed as a bitmap.
std::vector<TidList> wide_adversarial_lists() {
  std::vector<TidList> lists;
  lists.push_back({});
  lists.push_back({0});
  lists.push_back({65535});
  lists.push_back({65536});
  lists.push_back({65535, 65536, 131071, 131072});
  TidList spans;  // 5,100 consecutive tids in two runs: dense
  for (Tid t = 100; t < 5100; ++t) spans.push_back(t);
  for (Tid t = 70000; t < 70100; ++t) spans.push_back(t);
  lists.push_back(std::move(spans));
  TidList singles;  // one tid per 2^16-tid block
  for (Tid c = 0; c < 4; ++c) singles.push_back(c * 65536 + 17);
  lists.push_back(std::move(singles));
  TidList dense_region;
  for (Tid t = 131072; t < 131072 + 30000; t += 2) dense_region.push_back(t);
  lists.push_back(std::move(dense_region));
  return lists;
}

TEST(TidSet, IntersectionAgreesOnWideUniverseInputs) {
  Rng rng(88);
  std::vector<std::pair<TidList, TidList>> cases;
  const std::vector<TidList> adversarial = wide_adversarial_lists();
  for (std::size_t i = 0; i < adversarial.size(); ++i) {
    for (std::size_t j = i; j < adversarial.size(); ++j) {
      cases.emplace_back(adversarial[i], adversarial[j]);
    }
  }
  // Density grid across both sides of the dense threshold (1/128).
  for (double da : {0.001, 0.01, 0.05}) {
    for (double db : {0.001, 0.05}) {
      cases.emplace_back(random_list(rng, kWideUniverse, da),
                         random_list(rng, kWideUniverse, db));
    }
  }
  constexpr IntersectKernel kernel = IntersectKernel::kAuto;
  for (const auto& [a, b] : cases) {
    const TidList exact = intersect(a, b);
    // Bounded-abort exactness: the short-circuit decision must match the
    // exact result size for minsup below, at, and above it.
    for (const Count minsup :
         {Count{1}, std::max<Count>(1, exact.size()),
          static_cast<Count>(exact.size() + 1), Count{100000}}) {
      TidSet sa, sb, out;
      seed_tidset(a, kWideUniverse, kernel, sa, nullptr);
      seed_tidset(b, kWideUniverse, kernel, sb, nullptr);
      const bool ok =
          intersect_into(sa, sb, minsup, kernel, kWideUniverse, out, nullptr);
      EXPECT_EQ(ok, exact.size() >= minsup) << "minsup=" << minsup;
      if (ok) {
        EXPECT_EQ(out.to_tidlist(), exact);
      }
      const std::optional<Count> support =
          intersect_support(sa, sb, minsup, kernel, nullptr);
      EXPECT_EQ(support.has_value(), exact.size() >= minsup)
          << "minsup=" << minsup;
      if (support) {
        EXPECT_EQ(*support, exact.size());
      }
    }
  }
}

TEST(TidSet, DifferenceAgreesOnWideUniverseInputs) {
  Rng rng(99);
  std::vector<std::pair<TidList, TidList>> cases;
  const std::vector<TidList> adversarial = wide_adversarial_lists();
  for (std::size_t i = 0; i < adversarial.size(); ++i) {
    for (std::size_t j = 0; j < adversarial.size(); ++j) {
      cases.emplace_back(adversarial[i], adversarial[j]);
    }
  }
  for (double da : {0.001, 0.05}) {
    for (double db : {0.001, 0.05}) {
      cases.emplace_back(random_list(rng, kWideUniverse, da),
                         random_list(rng, kWideUniverse, db));
    }
  }
  constexpr IntersectKernel kernel = IntersectKernel::kAuto;
  for (const auto& [a, b] : cases) {
    const TidList exact = difference(a, b);
    // Budgets straddling the exact size check the abort decision.
    for (const std::size_t budget :
         {std::size_t{0}, exact.size() > 0 ? exact.size() - 1 : 0,
          exact.size(), exact.size() + 100}) {
      TidSet sa, sb, out;
      seed_tidset(a, kWideUniverse, kernel, sa, nullptr);
      seed_tidset(b, kWideUniverse, kernel, sb, nullptr);
      const bool ok =
          difference_into(sa, sb, budget, kernel, kWideUniverse, out, nullptr);
      EXPECT_EQ(ok, exact.size() <= budget) << "budget=" << budget;
      if (ok) {
        EXPECT_EQ(out.to_tidlist(), exact);
      }
    }
  }
}

TEST(TidSet, OutputsByteIdenticalAcrossIsaLevels) {
  // The dispatched kernels may do different amounts of work per ISA
  // (stats are work-measures), but the mined sets must decode
  // byte-identically. Unsupported levels clamp to the best available,
  // so this runs (and passes trivially) on scalar-only hosts too.
  Rng rng(111);
  const simd::IsaLevel levels[] = {simd::IsaLevel::kScalar,
                                   simd::IsaLevel::kAvx2,
                                   simd::IsaLevel::kAvx512};
  for (int trial = 0; trial < 6; ++trial) {
    const TidList a = random_list(rng, kWideUniverse, 0.004 * (trial + 1));
    const TidList b = random_list(rng, kWideUniverse, 0.02);
    for (IntersectKernel kernel : kAllKernels) {
      std::optional<TidList> reference;
      for (const simd::IsaLevel level : levels) {
        simd::override_isa_level(level);
        TidSet sa, sb, out;
        seed_tidset(a, kWideUniverse, kernel, sa, nullptr);
        seed_tidset(b, kWideUniverse, kernel, sb, nullptr);
        ASSERT_TRUE(intersect_into(sa, sb, 1, kernel, kWideUniverse, out,
                                   nullptr));
        const TidList decoded = out.to_tidlist();
        if (!reference) {
          reference = decoded;
        } else {
          EXPECT_EQ(decoded, *reference)
              << kernel_name(kernel) << " at " << simd::isa_name(level);
        }
      }
    }
  }
  simd::override_isa_level(std::nullopt);
}

TEST(TidSet, ScalarKernelsHonorForceOverride) {
  simd::override_isa_level(simd::IsaLevel::kScalar);
  EXPECT_EQ(simd::kernels().level, simd::IsaLevel::kScalar);
  // merge_u32 reports the same `visited` at every level, so this count
  // holds under any ISA; the gallop kernels' probe counts are the ones
  // that differ per level.
  TidList a, b;
  for (Tid t = 0; t < 100; ++t) a.push_back(t);
  for (Tid t = 100; t < 300; ++t) b.push_back(t);
  IntersectStats stats;
  const auto result =
      intersect_with_kernel(a, b, 1, IntersectKernel::kMerge, &stats);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(stats.tids_scanned, 100u);
  simd::override_isa_level(std::nullopt);
  EXPECT_EQ(simd::kernels().level, simd::detected_isa_level());
}

TEST(TidSet, PreferredRepFollowsThresholds) {
  // Dense at n·128 >= U (the boundary itself goes dense), sparse below,
  // empty sparse.
  EXPECT_EQ(TidSet::preferred_rep(0, 1024), TidRep::kSparse);
  EXPECT_EQ(TidSet::preferred_rep(8, 1024), TidRep::kDense);   // = U
  EXPECT_EQ(TidSet::preferred_rep(7, 1024), TidRep::kSparse);  // < U
  EXPECT_EQ(TidSet::preferred_rep(1, 1024), TidRep::kSparse);
  EXPECT_EQ(TidSet::preferred_rep(8, 1025), TidRep::kSparse);
  EXPECT_EQ(TidSet::preferred_rep(1, 128), TidRep::kDense);
  EXPECT_EQ(TidSet::preferred_rep(1, 129), TidRep::kSparse);
}

TEST(TidSet, NormalizeHoldsInsideTheStayBand) {
  // 1000 tids over universe 65536: 1000·128 >= 65536 → dense.
  constexpr Tid kUniverse = 65536;
  TidList big;
  for (Tid t = 0; t < 1000; ++t) big.push_back(t * 64);
  TidSet set;
  seed_tidset(big, kUniverse, IntersectKernel::kAuto, set, nullptr);
  ASSERT_EQ(set.rep(), TidRep::kDense);

  // 250 tids: below the dense entry threshold (250·128 < 65536) but
  // inside the stay band (250·1024 >= 65536) — normalize must hold dense.
  // 64 tids sit on the band's edge (64·1024 = 65536) and hold too.
  IntersectStats stats;
  for (const int n : {250, 64}) {
    const TidList mid(big.begin(), big.begin() + n);
    set.assign_dense(mid, kUniverse);
    set.normalize(kUniverse, &stats);
    EXPECT_EQ(set.rep(), TidRep::kDense) << n;
  }
  EXPECT_EQ(stats.hysteresis_holds, 2u);
  EXPECT_EQ(stats.sparsified, 0u);

  // 63 tids (63·1024 < 65536) and 50 tids are past the stay band, so
  // each converts straight to sparse.
  for (const int n : {63, 50}) {
    const TidList small(big.begin(), big.begin() + n);
    set.assign_dense(small, kUniverse);
    set.normalize(kUniverse, &stats);
    EXPECT_EQ(set.rep(), TidRep::kSparse) << n;
    EXPECT_EQ(set.to_tidlist(), small) << n;
  }
  EXPECT_EQ(stats.sparsified, 2u);
  EXPECT_EQ(stats.hysteresis_holds, 2u);
}

// ---- merge_u32: every ISA level against the merge loop it replaced ----

/// The three-way merge the tid-list layer ran before merge_u32, with the
/// §5.3 bound checked before every step: the oracle for the kernel's
/// count, abort decision, `visited` and output bytes.
simd::MergeResult three_way_merge(const TidList& a, const TidList& b,
                                  std::size_t minsup, TidList& out,
                                  std::size_t& visited) {
  out.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  bool aborted = false;
  while (i < a.size() && j < b.size()) {
    if (out.size() + std::min(a.size() - i, b.size() - j) < minsup) {
      aborted = true;
      break;
    }
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out.push_back(a[i]);
      ++i;
      ++j;
    }
  }
  visited = i + j;
  return {out.size(), aborted};
}

/// Index lists of one shape; `shape` picks identical/nested, disjoint
/// ranges, interleaved, one overlap, or a random partial overlap.
std::pair<std::vector<std::size_t>, std::vector<std::size_t>> shaped_indices(
    int shape, std::size_t na, std::size_t nb, Rng& rng) {
  std::vector<std::size_t> a;
  std::vector<std::size_t> b;
  switch (shape) {
    case 0:  // nested: the shorter list is a prefix of the longer one
      for (std::size_t i = 0; i < na; ++i) a.push_back(i);
      for (std::size_t i = 0; i < nb; ++i) b.push_back(i);
      break;
    case 1:  // disjoint ranges: all of a below all of b
      for (std::size_t i = 0; i < na; ++i) a.push_back(i);
      for (std::size_t i = 0; i < nb; ++i) b.push_back(na + i);
      break;
    case 2:  // interleaved, no match
    case 3:  // interleaved with exactly one match
      for (std::size_t i = 0; i < na; ++i) a.push_back(2 * i);
      for (std::size_t i = 0; i < nb; ++i) b.push_back(2 * i + 1);
      if (shape == 3 && na > 0 && nb > 0) {
        const std::size_t p = std::min(na, nb) / 2;
        b[p] = a[p];
      }
      break;
    default: {  // random partial overlap
      const std::size_t span = std::max(na, nb) + (na + nb) / 2 + 1;
      const auto draw = [&rng, span](std::size_t n) {
        std::vector<std::size_t> pool(span);
        for (std::size_t i = 0; i < span; ++i) pool[i] = i;
        for (std::size_t i = 0; i < n; ++i) {
          std::swap(pool[i], pool[i + rng.below(span - i)]);
        }
        pool.resize(n);
        std::sort(pool.begin(), pool.end());
        return pool;
      };
      a = draw(na);
      b = draw(nb);
    }
  }
  return {a, b};
}

/// Maps indices to tids in one of three ranges: multiples of 3 from tid
/// 0, straddling the signed-compare trap 0x7FFFFFFF/0x80000000, or
/// ending at 0xFFFFFFFE.
TidList to_tids(const std::vector<std::size_t>& indices, int range,
                std::size_t top) {
  TidList tids;
  for (const std::size_t i : indices) {
    switch (range) {
      case 0:
        tids.push_back(static_cast<Tid>(3 * i));
        break;
      case 1:
        tids.push_back(static_cast<Tid>(0x80000000U - top / 2 + i));
        break;
      default:
        tids.push_back(static_cast<Tid>(0xFFFFFFFEU - (top - i)));
    }
  }
  return tids;
}

TEST(MergeKernel, EveryIsaLevelMatchesTheThreeWayMerge) {
  const simd::IsaLevel levels[] = {simd::IsaLevel::kScalar,
                                   simd::IsaLevel::kAvx2,
                                   simd::IsaLevel::kAvx512};
  Rng rng(1997);
  std::size_t checked = 0;
  for (std::size_t na = 0; na <= 40; ++na) {
    for (std::size_t nb = 0; nb <= 40; ++nb) {
      for (int shape = 0; shape < 5; ++shape) {
        const auto [ia, ib] = shaped_indices(shape, na, nb, rng);
        std::size_t top = 0;
        for (const std::size_t i : ia) top = std::max(top, i);
        for (const std::size_t i : ib) top = std::max(top, i);
        for (int range = 0; range < 3; ++range) {
          const TidList a = to_tids(ia, range, top);
          const TidList b = to_tids(ib, range, top);
          ASSERT_TRUE(is_valid_tidlist(a) && is_valid_tidlist(b));
          TidList full;
          std::size_t unused = 0;
          const std::size_t exact =
              three_way_merge(a, b, 0, full, unused).count;
          std::vector<std::size_t> minsups = {0, 1, exact, exact + 1,
                                              std::min(na, nb) + 1};
          if (exact > 0) minsups.push_back(exact - 1);
          for (const std::size_t minsup : minsups) {
            TidList want;
            std::size_t want_visited = 0;
            const simd::MergeResult oracle =
                three_way_merge(a, b, minsup, want, want_visited);
            for (const simd::IsaLevel level : levels) {
              const simd::KernelTable& kt = simd::kernels_for(level);
              // Exactly min(na, nb) elements: ASan reports any store past
              // them.
              TidList got(std::min(na, nb));
              std::size_t got_visited = 0;
              const simd::MergeResult r =
                  kt.merge_u32(a.data(), na, b.data(), nb, minsup,
                               got.data(), &got_visited);
              const auto where = [&] {
                return ::testing::Message()
                       << simd::isa_name(kt.level) << " na=" << na
                       << " nb=" << nb << " shape=" << shape
                       << " range=" << range << " minsup=" << minsup;
              };
              ASSERT_EQ(r.count, oracle.count) << where();
              ASSERT_EQ(r.aborted, oracle.aborted) << where();
              ASSERT_EQ(got_visited, want_visited) << where();
              got.resize(r.count);
              ASSERT_EQ(got, want) << where();
              std::size_t count_visited = 0;
              const simd::MergeResult counted = kt.merge_u32(
                  a.data(), na, b.data(), nb, minsup, nullptr,
                  &count_visited);
              ASSERT_EQ(counted.count, oracle.count) << where();
              ASSERT_EQ(counted.aborted, oracle.aborted) << where();
              ASSERT_EQ(count_visited, want_visited) << where();
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 41u * 41 * 5 * 3 * 5 * 3);
}

TEST(MergeKernel, MiningStatsAreEqualAtEveryIsaLevel) {
  // Quest baskets renumbered 2048 tids apart: every tid-list stays far
  // below the dense threshold (n·128 < U), so `auto` takes its
  // sparse∩sparse path too, and at minsup 30 no pair is skewed enough
  // (32×) to gallop, whose probe counts differ per level.
  gen::QuestConfig quest;
  quest.num_transactions = 3000;
  quest.num_items = 100;
  quest.num_patterns = 30;
  quest.avg_pattern_length = 4;
  quest.avg_transaction_length = 8;
  quest.seed = 15;
  const HorizontalDatabase generated = gen::QuestGenerator(quest).generate();
  std::vector<Transaction> baskets = generated.transactions();
  for (std::size_t i = 0; i < baskets.size(); ++i) {
    baskets[i].tid = static_cast<Tid>(i * 2048);
  }
  const HorizontalDatabase db(std::move(baskets), quest.num_items);
  const simd::IsaLevel levels[] = {simd::IsaLevel::kScalar,
                                   simd::IsaLevel::kAvx2,
                                   simd::IsaLevel::kAvx512};
  for (const IntersectKernel kernel :
       {IntersectKernel::kMerge, IntersectKernel::kMergeShortCircuit,
        IntersectKernel::kAuto}) {
    EclatConfig config;
    config.minsup = 30;
    config.kernel = kernel;
    std::optional<MiningResult> first_result;
    std::optional<IntersectStats> first;
    for (const simd::IsaLevel level : levels) {
      simd::override_isa_level(level);
      IntersectStats stats;
      const MiningResult result = eclat_sequential(db, config, &stats);
      if (!first) {
        EXPECT_GT(stats.merge_calls, 0u) << kernel_name(kernel);
        // Only the plain merge never aborts.
        EXPECT_EQ(stats.short_circuited > 0, kernel != IntersectKernel::kMerge)
            << kernel_name(kernel);
        EXPECT_EQ(stats.merge_calls, stats.intersections)
            << kernel_name(kernel);
        first_result = result;
        first = stats;
        continue;
      }
      const std::string where = std::string(kernel_name(kernel)) + " at " +
                                simd::isa_name(simd::active_level());
      EXPECT_EQ(result.itemsets, first_result->itemsets) << where;
      EXPECT_EQ(stats.intersections, first->intersections) << where;
      EXPECT_EQ(stats.tids_scanned, first->tids_scanned) << where;
      EXPECT_EQ(stats.short_circuited, first->short_circuited) << where;
      EXPECT_EQ(stats.merge_calls, first->merge_calls) << where;
    }
  }
  simd::override_isa_level(std::nullopt);
}

}  // namespace
}  // namespace eclat
