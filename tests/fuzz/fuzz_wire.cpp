// libFuzzer harness for wire::Reader: arbitrary bytes are drained through
// both record shapes par_eclat ships over the wire. Any outcome other than
// "parsed" or "wire::Error thrown" — an out-of-bounds read, a forged-length
// allocation, a non-Error exception — is a finding.
//
// Under ECLAT_SANITIZE=fuzzer (Clang) this links the libFuzzer driver and
// runs open-ended:   ./fuzz_wire -max_total_time=60 corpus/
// Everywhere else the seeded main() below replays the deterministic
// mutation model from tests/test_wire_fuzz.cpp through the very same entry
// point, so the harness stays built and exercised on every toolchain.
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "parallel/wire.hpp"
#include "vertical/vertical_db.hpp"

namespace {

using eclat::Count;
using eclat::Item;
using eclat::PairKey;
using eclat::Tid;

// Mirror of the par_eclat transformation-phase payload: a sequence of
// (PairKey, tid-vector) records, drained until the blob is exhausted.
void drain_pair_records(const eclat::mc::Blob& blob) {
  eclat::wire::Reader reader(blob);
  while (!reader.done()) {
    (void)reader.get<PairKey>();
    (void)reader.get_vector<Tid>();
  }
}

// Mirror of the reduction-phase payload: a count-prefixed sequence of
// (itemset-vector, support) records.
void drain_itemset_records(const eclat::mc::Blob& blob) {
  eclat::wire::Reader reader(blob);
  const auto count = reader.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < count; ++i) {
    (void)reader.get_vector<Item>();
    (void)reader.get<Count>();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const eclat::mc::Blob blob(data, data + size);
  try {
    drain_pair_records(blob);
  } catch (const eclat::wire::Error&) {
    // Malformed input detected and rejected: exactly the contract.
  }
  try {
    drain_itemset_records(blob);
  } catch (const eclat::wire::Error&) {
  }
  return 0;
}

#ifndef ECLAT_FUZZ_LIBFUZZER
// Seeded standalone driver: generate valid blobs, mutate them, and feed the
// libFuzzer entry point. Deterministic in (seed, iterations).
#include <cstdio>
#include <cstdlib>

#include "common/rng.hpp"
#include "mutate.hpp"

namespace {

eclat::mc::Blob valid_pair_blob(eclat::Rng& rng) {
  eclat::wire::Writer writer;
  const std::size_t records = rng.below(8);
  for (std::size_t r = 0; r < records; ++r) {
    writer.put(eclat::make_pair_key(static_cast<Item>(rng.below(100)),
                                    static_cast<Item>(rng.below(100))));
    std::vector<Tid> tids(rng.below(32));
    for (Tid& tid : tids) tid = static_cast<Tid>(rng.below(1 << 20));
    writer.put_vector(tids);
  }
  return writer.take();
}

eclat::mc::Blob valid_itemset_blob(eclat::Rng& rng) {
  eclat::wire::Writer writer;
  const std::uint64_t records = rng.below(8);
  writer.put(records);
  for (std::uint64_t r = 0; r < records; ++r) {
    std::vector<Item> items(1 + rng.below(6));
    for (Item& item : items) item = static_cast<Item>(rng.below(1000));
    writer.put_vector(items);
    writer.put<Count>(rng.below(10000));
  }
  return writer.take();
}

}  // namespace

int main(int argc, char** argv) {
  const int iterations = argc > 1 ? std::atoi(argv[1]) : 2000;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 0xA11CE;
  eclat::Rng rng(seed);
  for (int i = 0; i < iterations; ++i) {
    const eclat::mc::Blob blob = eclat::fuzz::mutate(
        (i % 2 == 0) ? valid_pair_blob(rng) : valid_itemset_blob(rng), rng);
    LLVMFuzzerTestOneInput(blob.data(), blob.size());
  }
  std::printf("fuzz_wire: %d seeded inputs, seed=0x%llx, no crashes\n",
              iterations, static_cast<unsigned long long>(seed));
  return 0;
}
#endif  // ECLAT_FUZZ_LIBFUZZER
