#include "vertical/tidlist.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "vertical/simd/dispatch.hpp"

namespace eclat {

bool is_valid_tidlist(std::span<const Tid> tids) {
  for (std::size_t i = 1; i < tids.size(); ++i) {
    if (tids[i - 1] >= tids[i]) return false;
  }
  return true;
}

std::optional<Count> merge_bounded(std::span<const Tid> a,
                                   std::span<const Tid> b, Count minsup,
                                   TidList* out, std::size_t* visited) {
  ECLAT_DCHECK(is_valid_tidlist(a));
  ECLAT_DCHECK(is_valid_tidlist(b));
  // Result support <= min(|a|, |b|): the bound fails before the first
  // step, so skip the kernel and sizing `out`.
  const std::size_t bound = std::min(a.size(), b.size());
  if (bound < minsup) return std::nullopt;
  // The kernel writes up to min(|a|, |b|) matches; shrink to the result.
  if (out != nullptr) out->resize(bound);
  const simd::MergeResult result = simd::kernels().merge_u32(
      a.data(), a.size(), b.data(), b.size(), minsup,
      out != nullptr ? out->data() : nullptr, visited);
  if (out != nullptr) out->resize(result.count);
  if (result.aborted || result.count < minsup) return std::nullopt;
  return result.count;
}

TidList intersect(std::span<const Tid> a, std::span<const Tid> b) {
  TidList out;
  merge_bounded(a, b, 0, &out);
  return out;
}

std::size_t intersection_size(std::span<const Tid> a, std::span<const Tid> b) {
  return *merge_bounded(a, b, 0, nullptr);
}

std::optional<TidList> intersect_short_circuit(std::span<const Tid> a,
                                               std::span<const Tid> b,
                                               Count minsup) {
  TidList out;
  if (!merge_bounded(a, b, minsup, &out)) return std::nullopt;
  return out;
}

bool difference_bounded_into(std::span<const Tid> a, std::span<const Tid> b,
                             std::size_t max_size, TidList& out,
                             std::size_t* visited) {
  ECLAT_DCHECK(is_valid_tidlist(a));
  ECLAT_DCHECK(is_valid_tidlist(b));
  out.clear();
  out.reserve(std::min(a.size(), max_size + 1));
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size()) {
    if (j == b.size() || a[i] < b[j]) {
      if (out.size() == max_size) {
        if (visited != nullptr) *visited += i + j;
        return false;
      }
      out.push_back(a[i]);
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  if (visited != nullptr) *visited += i + j;
  return true;
}

TidList difference(std::span<const Tid> a, std::span<const Tid> b) {
  ECLAT_DCHECK(is_valid_tidlist(a));
  ECLAT_DCHECK(is_valid_tidlist(b));
  TidList out;
  out.reserve(a.size());
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

TidList unite(std::span<const Tid> a, std::span<const Tid> b) {
  ECLAT_DCHECK(is_valid_tidlist(a));
  ECLAT_DCHECK(is_valid_tidlist(b));
  TidList out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  ECLAT_DCHECK(is_valid_tidlist(out));
  return out;
}

}  // namespace eclat
