// libFuzzer harness for the ECLATHDB binary reader: arbitrary bytes fed
// through read_binary must either parse into a database that satisfies the
// reader's own invariants or raise std::runtime_error — never crash, never
// allocate unbounded memory from a forged header count.
//
// Under ECLAT_SANITIZE=fuzzer (Clang) this links the libFuzzer driver and
// runs open-ended:   ./fuzz_io -max_total_time=60 corpus/
// Everywhere else the seeded main() below replays the deterministic
// mutation model from tests/test_io_fuzz.cpp through the same entry point.
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "data/horizontal.hpp"
#include "data/io.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  std::istringstream in(bytes, std::ios::binary);
  try {
    const eclat::HorizontalDatabase db = eclat::read_binary(in);
    // Input that survives parsing must still satisfy the reader's own
    // invariants: items in range, tids strictly increasing and in range.
    const std::vector<eclat::Transaction>& rows = db.transactions();
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (const eclat::Item item : rows[r].items) {
        ECLAT_CHECK(item < db.num_items());
      }
      ECLAT_CHECK(rows[r].tid < eclat::kTidLimit);
      ECLAT_CHECK(r == 0 || rows[r - 1].tid < rows[r].tid);
    }
  } catch (const std::runtime_error&) {
    // Malformed input detected and rejected: exactly the contract.
  }
  return 0;
}

#ifndef ECLAT_FUZZ_LIBFUZZER
// Seeded standalone driver: serialize valid databases, mutate the bytes,
// and feed the libFuzzer entry point. Deterministic in (seed, iterations).
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/rng.hpp"
#include "mutate.hpp"

namespace {

/// Small random database with the invariants write_binary expects:
/// strictly increasing duplicate-free items in [0, num_items).
eclat::HorizontalDatabase valid_db(eclat::Rng& rng) {
  const eclat::Item num_items = static_cast<eclat::Item>(4 + rng.below(60));
  eclat::DatabaseBuilder builder;
  const std::size_t rows = rng.below(12);
  for (std::size_t i = 0; i < rows; ++i) {
    eclat::Itemset items;
    for (eclat::Item item = 0; item < num_items; ++item) {
      if (rng.below(4) == 0) items.push_back(item);
    }
    builder.add(static_cast<eclat::Tid>(i), items);
  }
  return std::move(builder).finish(num_items);
}

std::string serialize(const eclat::HorizontalDatabase& db) {
  std::ostringstream out(std::ios::binary);
  eclat::write_binary(db, out);
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const int iterations = argc > 1 ? std::atoi(argv[1]) : 2000;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 0xECDB;
  eclat::Rng rng(seed);
  for (int i = 0; i < iterations; ++i) {
    const std::string bytes =
        eclat::fuzz::mutate(serialize(valid_db(rng)), rng);
    LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                           bytes.size());
  }
  std::printf("fuzz_io: %d seeded inputs, seed=0x%llx, no crashes\n",
              iterations, static_cast<unsigned long long>(seed));
  return 0;
}
#endif  // ECLAT_FUZZ_LIBFUZZER
