// libFuzzer harness for the ECLATRES binary result reader: arbitrary bytes
// fed through read_result must either parse into a result that satisfies
// the reader's own invariants or raise std::runtime_error — never crash,
// never allocate unbounded memory from a forged itemset count or length.
//
// Under ECLAT_SANITIZE=fuzzer (Clang) this links the libFuzzer driver and
// runs open-ended:   ./fuzz_result -max_total_time=60 corpus/
// Everywhere else the seeded main() below serializes valid results,
// mutates the bytes and replays them through the same entry point.
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/check.hpp"
#include "common/result.hpp"
#include "data/result_io.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  std::istringstream in(bytes, std::ios::binary);
  try {
    const eclat::MiningResult result = eclat::read_result(in);
    // Input that survives parsing must still satisfy the reader's own
    // invariants: sorted itemsets, and one level per size whose counts
    // cover every non-empty itemset.
    std::size_t non_empty = 0;
    for (const eclat::FrequentItemset& f : result.itemsets) {
      ECLAT_CHECK(eclat::is_sorted_itemset(f.items));
      if (!f.items.empty()) ++non_empty;
    }
    ECLAT_CHECK(result.levels.size() == result.max_size());
    std::size_t counted = 0;
    for (const eclat::LevelStats& level : result.levels) {
      counted += level.frequent;
    }
    ECLAT_CHECK(counted == non_empty);
  } catch (const std::runtime_error&) {
    // Malformed input detected and rejected: exactly the contract.
  }
  return 0;
}

#ifndef ECLAT_FUZZ_LIBFUZZER
// Seeded standalone driver: serialize valid results, mutate the bytes, and
// feed the libFuzzer entry point. Deterministic in (seed, iterations).
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/rng.hpp"
#include "mutate.hpp"

namespace {

/// Small random result with the invariants write_result expects: every
/// itemset strictly increasing.
eclat::MiningResult valid_result(eclat::Rng& rng) {
  eclat::MiningResult result;
  const std::size_t itemsets = rng.below(10);
  for (std::size_t i = 0; i < itemsets; ++i) {
    eclat::FrequentItemset f;
    for (eclat::Item item = 0; item < 40; ++item) {
      if (rng.below(8) == 0) f.items.push_back(item);
    }
    f.support = 1 + rng.below(1000);
    result.itemsets.push_back(std::move(f));
  }
  return result;
}

std::string serialize(const eclat::MiningResult& result) {
  std::ostringstream out(std::ios::binary);
  eclat::write_result(result, out);
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const int iterations = argc > 1 ? std::atoi(argv[1]) : 2000;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 0xEC5E;
  eclat::Rng rng(seed);
  for (int i = 0; i < iterations; ++i) {
    const std::string bytes =
        eclat::fuzz::mutate(serialize(valid_result(rng)), rng);
    LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                           bytes.size());
  }
  std::printf("fuzz_result: %d seeded inputs, seed=0x%llx, no crashes\n",
              iterations, static_cast<unsigned long long>(seed));
  return 0;
}
#endif  // ECLAT_FUZZ_LIBFUZZER
