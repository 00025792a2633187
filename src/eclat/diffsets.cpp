#include "eclat/diffsets.hpp"

namespace eclat {

std::optional<TidList> difference_bounded(std::span<const Tid> a,
                                          std::span<const Tid> b,
                                          std::size_t max_size) {
  TidList out;
  if (!difference_bounded_into(a, b, max_size, out)) return std::nullopt;
  return out;
}

void compute_frequent_diffsets(const std::vector<Atom>& class_atoms,
                               Count minsup,
                               std::vector<FrequentItemset>& out,
                               std::vector<std::size_t>& size_histogram,
                               IntersectStats* stats) {
  TidArena arena;
  compute_frequent_diffsets(class_atoms, minsup,
                            IntersectKernel::kMergeShortCircuit, arena, out,
                            size_histogram, stats);
}

}  // namespace eclat
