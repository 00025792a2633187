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

namespace {

/// a ∩ b through the dispatched merge kernel under the §5.3 bound
/// (minsup 0 never stops). With `out`, the matches are written to it:
/// sized to min(|a|, |b|) for the kernel, then shrunk to the result.
simd::MergeResult merge(std::span<const Tid> a, std::span<const Tid> b,
                        Count minsup, TidList* out, std::size_t* visited) {
  ECLAT_DCHECK(is_valid_tidlist(a));
  ECLAT_DCHECK(is_valid_tidlist(b));
  const simd::KernelTable& kt = simd::kernels();
  if (out == nullptr) {
    return kt.merge_u32(a.data(), a.size(), b.data(), b.size(), minsup,
                        nullptr, visited);
  }
  out->resize(std::min(a.size(), b.size()));
  const simd::MergeResult result = kt.merge_u32(
      a.data(), a.size(), b.data(), b.size(), minsup, out->data(), visited);
  out->resize(result.count);
  return result;
}

}  // namespace

TidList intersect(std::span<const Tid> a, std::span<const Tid> b) {
  TidList out;
  intersect_into(a, b, out);
  return out;
}

void intersect_into(std::span<const Tid> a, std::span<const Tid> b,
                    TidList& out, std::size_t* visited) {
  merge(a, b, 0, &out, visited);
}

std::size_t intersection_size(std::span<const Tid> a, std::span<const Tid> b) {
  return merge(a, b, 0, nullptr, nullptr).count;
}

std::optional<TidList> intersect_short_circuit(std::span<const Tid> a,
                                               std::span<const Tid> b,
                                               Count minsup) {
  TidList out;
  if (!intersect_short_circuit_into(a, b, minsup, out)) return std::nullopt;
  return out;
}

bool intersect_short_circuit_into(std::span<const Tid> a,
                                  std::span<const Tid> b, Count minsup,
                                  TidList& out, std::size_t* visited) {
  // Result support <= min(|a|, |b|): the bound fails before the first
  // step, so skip sizing `out`.
  if (std::min(a.size(), b.size()) < minsup) return false;
  const simd::MergeResult result = merge(a, b, minsup, &out, visited);
  return !result.aborted && result.count >= minsup;
}

std::optional<Count> intersect_count_bounded(std::span<const Tid> a,
                                             std::span<const Tid> b,
                                             Count minsup,
                                             std::size_t* visited) {
  const simd::MergeResult result = merge(a, b, minsup, nullptr, visited);
  if (result.aborted || result.count < minsup) return std::nullopt;
  return result.count;
}

namespace {

/// First index in [lo, span.size()) with span[index] >= target, found by
/// doubling probes from `lo` then binary search within the bracket.
/// `probes`, when non-null, accumulates the elements compared against.
std::size_t gallop_lower_bound(std::span<const Tid> span, std::size_t lo,
                               Tid target, std::size_t* probes) {
  std::size_t step = 1;
  std::size_t hi = lo;
  while (hi < span.size() && span[hi] < target) {
    if (probes != nullptr) ++*probes;
    lo = hi + 1;
    hi += step;
    step *= 2;
  }
  hi = std::min(hi, span.size());
  std::size_t width = hi - lo;
  while (width > 0) {
    if (probes != nullptr) ++*probes;
    const std::size_t half = width / 2;
    if (span[lo + half] < target) {
      lo += half + 1;
      width -= half + 1;
    } else {
      width = half;
    }
  }
  return lo;
}

}  // namespace

TidList intersect_gallop(std::span<const Tid> a, std::span<const Tid> b) {
  TidList out;
  intersect_gallop_into(a, b, out);
  return out;
}

void intersect_gallop_into(std::span<const Tid> a, std::span<const Tid> b,
                           TidList& out, std::size_t* visited) {
  ECLAT_DCHECK(is_valid_tidlist(a));
  ECLAT_DCHECK(is_valid_tidlist(b));
  if (a.size() > b.size()) {
    intersect_gallop_into(b, a, out, visited);
    return;
  }
  out.clear();
  out.reserve(a.size());
  std::size_t j = 0;
  std::size_t scanned = 0;
  for (const Tid target : a) {
    ++scanned;
    j = gallop_lower_bound(b, j, target, visited != nullptr ? &scanned
                                                            : nullptr);
    if (j == b.size()) break;
    if (b[j] == target) {
      out.push_back(target);
      ++j;
    }
  }
  if (visited != nullptr) *visited += scanned;
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
