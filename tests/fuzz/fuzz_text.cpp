// libFuzzer harness for the text database reader: arbitrary bytes fed
// through read_text must either parse into a database that satisfies the
// reader's invariants or raise std::runtime_error — never crash, and never
// load a line it could not read in full.
//
// Under ECLAT_SANITIZE=fuzzer (Clang) this links the libFuzzer driver and
// runs open-ended:   ./fuzz_text -max_total_time=60 corpus/
// Everywhere else the seeded main() below mutates well-formed text
// databases with the model in mutate.hpp and feeds them to the same entry
// point.
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
  const std::string text(reinterpret_cast<const char*>(data), size);
  std::istringstream in(text);
  try {
    const eclat::HorizontalDatabase db = eclat::read_text(in);
    // Tids number the non-empty lines 0..n-1, and every row is a sorted,
    // duplicate-free itemset inside the inferred id space.
    const std::vector<eclat::Transaction>& rows = db.transactions();
    for (std::size_t r = 0; r < rows.size(); ++r) {
      ECLAT_CHECK(rows[r].tid == r);
      ECLAT_CHECK(!rows[r].items.empty());
      ECLAT_CHECK(eclat::is_sorted_itemset(rows[r].items));
      ECLAT_CHECK(rows[r].items.back() < db.num_items());
    }
  } catch (const std::runtime_error&) {
    // Malformed input detected and rejected: exactly the contract.
  }
  return 0;
}

#ifndef ECLAT_FUZZ_LIBFUZZER
// Seeded standalone driver: write well-formed text databases (unsorted
// lines with repeats, blank lines, mixed whitespace), mutate the bytes,
// and feed the libFuzzer entry point. Deterministic in (seed, iterations).
#include <cstdio>
#include <cstdlib>

#include "common/rng.hpp"
#include "mutate.hpp"

namespace {

std::string valid_text(eclat::Rng& rng) {
  static const char* const kSeparators[] = {" ", "  ", "\t", " \t"};
  const std::uint64_t max_item = 1 + rng.below(rng.below(4) == 0 ? 5000 : 60);
  std::string text;
  const std::size_t lines = rng.below(12);
  for (std::size_t line = 0; line < lines; ++line) {
    const std::size_t items = rng.below(8);
    for (std::size_t i = 0; i < items; ++i) {
      if (i != 0) text += kSeparators[rng.below(4)];
      text += std::to_string(rng.below(max_item));
    }
    text += rng.below(8) == 0 ? "\r\n" : "\n";
  }
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  const int iterations = argc > 1 ? std::atoi(argv[1]) : 2000;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 0x7E47;
  eclat::Rng rng(seed);
  for (int i = 0; i < iterations; ++i) {
    const std::string text = eclat::fuzz::mutate(valid_text(rng), rng);
    LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(text.data()),
                           text.size());
  }
  std::printf("fuzz_text: %d seeded inputs, seed=0x%llx, no crashes\n",
              iterations, static_cast<unsigned long long>(seed));
  return 0;
}
#endif  // ECLAT_FUZZ_LIBFUZZER
