#include "eclat/diffsets.hpp"

namespace eclat {

std::optional<TidList> difference_bounded(std::span<const Tid> a,
                                          std::span<const Tid> b,
                                          std::size_t max_size) {
  TidList out;
  if (!difference_bounded_into(a, b, max_size, out)) return std::nullopt;
  return out;
}

}  // namespace eclat
