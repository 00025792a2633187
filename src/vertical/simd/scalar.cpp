// Portable reference kernels: always compiled, always in the binary.
// Every vector kernel must compute bit-identical results to these — the
// dispatcher's self_check() and the forced-scalar differential tests
// enforce it.
#include <algorithm>
#include <bit>

#include "vertical/simd/kernels_internal.hpp"

namespace eclat::simd::detail {

std::uint64_t scalar_and_words(const std::uint64_t* a, const std::uint64_t* b,
                               std::uint64_t* out, std::size_t n) {
  std::uint64_t count = 0;
  if (out != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t v = a[i] & b[i];
      out[i] = v;
      count += static_cast<std::uint64_t>(std::popcount(v));
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      count += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
    }
  }
  return count;
}

std::uint64_t scalar_andnot_words(const std::uint64_t* a,
                                  const std::uint64_t* b, std::uint64_t* out,
                                  std::size_t n) {
  std::uint64_t count = 0;
  if (out != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t v = a[i] & ~b[i];
      out[i] = v;
      count += static_cast<std::uint64_t>(std::popcount(v));
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      count += static_cast<std::uint64_t>(std::popcount(a[i] & ~b[i]));
    }
  }
  return count;
}

namespace {

/// Branchless merge step: consume the smaller head, or both on a match.
/// `out[k]` is written on every step (k < min(na, nb) while both lists
/// last) and kept only when k advances. The bound is checked before each
/// step, exactly where the three-way merge it replaces checked it.
template <bool kWrite>
MergeResult merge_from(const std::uint32_t* a, std::size_t na,
                       const std::uint32_t* b, std::size_t nb,
                       std::size_t minsup, std::uint32_t* out,
                       std::size_t* visited, std::size_t i, std::size_t j,
                       std::size_t k) {
  bool aborted = false;
  while (i < na && j < nb) {
    if (k + std::min(na - i, nb - j) < minsup) {
      aborted = true;
      break;
    }
    const std::uint32_t x = a[i];
    const std::uint32_t y = b[j];
    if constexpr (kWrite) out[k] = x;
    k += static_cast<std::size_t>(x == y);
    i += static_cast<std::size_t>(x <= y);
    j += static_cast<std::size_t>(y <= x);
  }
  if (visited != nullptr) *visited += i + j;
  return {k, aborted};
}

/// First index in [lo, nl) with large[index] >= target: doubling probes
/// from lo, then binary search within the bracket. Mirrors
/// gallop_lower_bound in tidlist.cpp, including probe accounting.
std::size_t gallop_lower_bound_u32(const std::uint32_t* large, std::size_t nl,
                                   std::size_t lo, std::uint32_t target,
                                   std::size_t* probes) {
  std::size_t step = 1;
  std::size_t hi = lo;
  while (hi < nl && large[hi] < target) {
    if (probes != nullptr) ++*probes;
    lo = hi + 1;
    hi += step;
    step *= 2;
  }
  hi = std::min(hi, nl);
  std::size_t width = hi - lo;
  while (width > 0) {
    if (probes != nullptr) ++*probes;
    const std::size_t half = width / 2;
    if (large[lo + half] < target) {
      lo += half + 1;
      width -= half + 1;
    } else {
      width = half;
    }
  }
  return lo;
}

}  // namespace

MergeResult scalar_merge_u32_from(const std::uint32_t* a, std::size_t na,
                                  const std::uint32_t* b, std::size_t nb,
                                  std::size_t minsup, std::uint32_t* out,
                                  std::size_t* visited, std::size_t i,
                                  std::size_t j, std::size_t k) {
  return out != nullptr
             ? merge_from<true>(a, na, b, nb, minsup, out, visited, i, j, k)
             : merge_from<false>(a, na, b, nb, minsup, out, visited, i, j,
                                 k);
}

MergeResult scalar_merge_u32(const std::uint32_t* a, std::size_t na,
                             const std::uint32_t* b, std::size_t nb,
                             std::size_t minsup, std::uint32_t* out,
                             std::size_t* visited) {
  return scalar_merge_u32_from(a, na, b, nb, minsup, out, visited, 0, 0, 0);
}

std::size_t scalar_gallop_u32(const std::uint32_t* small, std::size_t ns,
                              const std::uint32_t* large, std::size_t nl,
                              std::uint32_t* out, std::size_t* visited) {
  std::size_t j = 0;
  std::size_t k = 0;
  std::size_t scanned = 0;
  std::size_t* probes = visited != nullptr ? &scanned : nullptr;
  for (std::size_t i = 0; i < ns; ++i) {
    ++scanned;
    j = gallop_lower_bound_u32(large, nl, j, small[i], probes);
    if (j == nl) break;
    if (large[j] == small[i]) {
      out[k++] = small[i];
      ++j;
    }
  }
  if (visited != nullptr) *visited += scanned;
  return k;
}

std::size_t scalar_gallop_u32_count(const std::uint32_t* small, std::size_t ns,
                                    const std::uint32_t* large, std::size_t nl,
                                    std::size_t* visited) {
  std::size_t j = 0;
  std::size_t k = 0;
  std::size_t scanned = 0;
  std::size_t* probes = visited != nullptr ? &scanned : nullptr;
  for (std::size_t i = 0; i < ns; ++i) {
    ++scanned;
    j = gallop_lower_bound_u32(large, nl, j, small[i], probes);
    if (j == nl) break;
    if (large[j] == small[i]) {
      ++k;
      ++j;
    }
  }
  if (visited != nullptr) *visited += scanned;
  return k;
}

std::size_t scalar_decode_words(const std::uint64_t* words, std::size_t n,
                                std::uint32_t base, std::uint32_t* out) {
  std::size_t k = 0;
  for (std::size_t w = 0; w < n; ++w) {
    if (words[w] == 0) {
      // Decode cost on sparse bitmaps is dominated by empty space: skip
      // zero words eight at a time before falling back per word.
      while (w + 8 <= n &&
             (words[w] | words[w + 1] | words[w + 2] | words[w + 3] |
              words[w + 4] | words[w + 5] | words[w + 6] |
              words[w + 7]) == 0) {
        w += 8;
      }
      if (w == n) break;  // skipped to the end (n divisible by 8)
      if (words[w] == 0) continue;
    }
    std::uint64_t word = words[w];
    const std::uint32_t word_base =
        base + static_cast<std::uint32_t>(w * 64);
    while (word != 0) {
      const auto bit = static_cast<std::uint32_t>(std::countr_zero(word));
      out[k++] = word_base + bit;
      word &= word - 1;  // clear lowest set bit
    }
  }
  return k;
}

const KernelTable& scalar_table() {
  static const KernelTable table = {
      .level = IsaLevel::kScalar,
      .and_words = &scalar_and_words,
      .andnot_words = &scalar_andnot_words,
      .merge_u32 = &scalar_merge_u32,
      .gallop_u32 = &scalar_gallop_u32,
      .gallop_u32_count = &scalar_gallop_u32_count,
      .decode_words = &scalar_decode_words,
  };
  return table;
}

}  // namespace eclat::simd::detail
