// libFuzzer harness for the fault-plan reader (read_plan_text in
// common/parse.hpp), through both of its dialects: the exec one
// (exec_plan_from_text) and the mc one (chaos::plan_from_text), on the
// whole input and on each plan split_plan_text cuts from it. Plan files
// are outside input (`chaos --plan-file`), so arbitrary bytes fed to
// either dialect must parse or raise std::invalid_argument — no other
// exception and no crash — and an accepted plan's text form must parse
// back to the same text.
//
// Under ECLAT_SANITIZE=fuzzer (Clang) this links the libFuzzer driver and
// runs open-ended:   ./fuzz_plan -max_total_time=60 corpus/
// Everywhere else the seeded main() below mutates the text forms of
// generated plans (generate_exec_plan, generate_plan) with the model in
// mutate.hpp and feeds them to the same entry point.
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "chaos.hpp"
#include "common/check.hpp"
#include "common/parse.hpp"
#include "exec/exec_fault.hpp"

namespace {

template <typename Parse, typename Print>
void check_parser(const std::string& text, Parse parse, Print print) {
  std::string printed;
  try {
    printed = print(parse(text));
  } catch (const std::invalid_argument&) {
    return;  // Malformed input detected and rejected: exactly the contract.
  }
  ECLAT_CHECK(print(parse(printed)) == printed);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  const auto exec_parse = [](const std::string& plan) {
    return eclat::exec::exec_plan_from_text(plan);
  };
  const auto mc_parse = [](const std::string& plan) {
    return eclat::chaos::plan_from_text(plan);
  };
  check_parser(text, exec_parse, eclat::exec::exec_plan_to_text);
  check_parser(text, mc_parse, eclat::chaos::plan_to_text);
  // A plan file is first cut at its seed lines; each part goes to the
  // dialect its seed line names.
  for (const eclat::PlanPart& part :
       eclat::split_plan_text(text, {"", "exec-"})) {
    if (part.prefix == "exec-") {
      check_parser(part.text, exec_parse, eclat::exec::exec_plan_to_text);
    } else {
      check_parser(part.text, mc_parse, eclat::chaos::plan_to_text);
    }
  }
  return 0;
}

#ifndef ECLAT_FUZZ_LIBFUZZER
// Seeded standalone driver: draw a plan of either dialect from a fresh
// seed, mutate its text form, and feed the libFuzzer entry point.
// Deterministic in (seed, iterations).
#include <cstdio>
#include <cstdlib>

#include "common/rng.hpp"
#include "mutate.hpp"

int main(int argc, char** argv) {
  const int iterations = argc > 1 ? std::atoi(argv[1]) : 2000;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 0x91A7;
  eclat::Rng rng(seed);
  const eclat::chaos::ExecChaosKnobs exec_knobs;
  const eclat::chaos::ChaosKnobs mc_knobs;
  for (int i = 0; i < iterations; ++i) {
    const std::uint64_t plan_seed = rng.next();
    const std::string valid =
        rng.below(2) == 0
            ? eclat::exec::exec_plan_to_text(
                  eclat::chaos::generate_exec_plan(plan_seed, exec_knobs))
            : eclat::chaos::plan_to_text(
                  eclat::chaos::generate_plan(plan_seed, mc_knobs));
    const std::string text = eclat::fuzz::mutate(valid, rng);
    LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(text.data()),
                           text.size());
  }
  std::printf("fuzz_plan: %d seeded inputs, seed=0x%llx, no crashes\n",
              iterations, static_cast<unsigned long long>(seed));
  return 0;
}
#endif  // ECLAT_FUZZ_LIBFUZZER
