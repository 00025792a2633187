// AVX2 kernels. This translation unit is compiled with -mavx2 (see
// src/vertical/CMakeLists.txt) when the compiler supports it; the
// dispatcher only installs this table after CPUID confirms the host
// executes AVX2, so the binary stays runnable on older machines.
//
// Word kernels: 256-bit AND / ANDNOT with the Mula nibble-LUT popcount
// (no hardware VPOPCNT below AVX-512, so popcount via PSHUFB is the
// fastest portable-AVX2 reduction). Sparse kernels: the u32 merge
// compares 8×u32 blocks through eight broadcast compares and compresses
// with a 256-entry vpermd table; it keeps the scalar merge's exact
// state between blocks (see merge_u32_impl).
#if defined(__AVX2__)
#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#endif

#include "vertical/simd/kernels_internal.hpp"

namespace eclat::simd::detail {

#if defined(__AVX2__)

namespace {

std::uint64_t hsum_epi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<std::uint64_t>(_mm_extract_epi64(sum, 0)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(sum, 1));
}

/// Per-byte popcount of v via two 16-entry nibble lookups (Mula).
__m256i popcount_epu8(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

template <bool kNot>
std::uint64_t and_words_impl(const std::uint64_t* a, const std::uint64_t* b,
                             std::uint64_t* out, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    // andnot computes (~first) & second, so the operand order flips.
    const __m256i v =
        kNot ? _mm256_andnot_si256(vb, va) : _mm256_and_si256(va, vb);
    if (out != nullptr) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), v);
    }
    // Byte counts fit u8 (max 8 per byte); SAD against zero folds each
    // 8-byte lane into a u64 without overflow at any n.
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(popcount_epu8(v), zero));
  }
  std::uint64_t count = hsum_epi64(acc);
  for (; i < n; ++i) {
    const std::uint64_t v = kNot ? (a[i] & ~b[i]) : (a[i] & b[i]);
    if (out != nullptr) out[i] = v;
    count += static_cast<std::uint64_t>(std::popcount(v));
  }
  return count;
}

std::uint64_t avx2_and_words(const std::uint64_t* a, const std::uint64_t* b,
                             std::uint64_t* out, std::size_t n) {
  return and_words_impl<false>(a, b, out, n);
}

std::uint64_t avx2_andnot_words(const std::uint64_t* a, const std::uint64_t* b,
                                std::uint64_t* out, std::size_t n) {
  return and_words_impl<true>(a, b, out, n);
}

/// mask (8 bits, one per u32 lane) -> vpermd control moving the selected
/// lanes to the front in order; the slots past them are don't-cares.
constexpr std::array<std::array<std::uint32_t, 8>, 256>
make_compress_u32_table() {
  std::array<std::array<std::uint32_t, 8>, 256> table{};
  for (std::size_t mask = 0; mask < 256; ++mask) {
    std::size_t pos = 0;
    for (std::uint32_t lane = 0; lane < 8; ++lane) {
      if ((mask >> lane & 1U) != 0) table[mask][pos++] = lane;
    }
  }
  return table;
}

constexpr auto kCompressU32 = make_compress_u32_table();

/// Bit per lane of v <= m, unsigned: max_epu32(v, m) == m. The signed
/// epi32 compares would order 0x80000000 below 0x7FFFFFFF.
unsigned lanes_at_most(__m256i v, __m256i m) {
  return static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(
      _mm256_cmpeq_epi32(_mm256_max_epu32(v, m), m))));
}

/// Block merge with the scalar reference's exact accounting. (i, j, k)
/// is always a state the scalar merge passes through. A block step
/// compares a[i..i+8) with b[j..j+8) and moves to the state after every
/// element <= m = min(a[i+7], b[j+7]) is consumed: all matches <= m lie
/// in both blocks, and everything left is > m. The bound
/// k + min(na - i, nb - j) never increases along the scalar's steps (a
/// mismatch lowers min(...) by at most one; a match raises k by one and
/// lowers min(...) by one), so if it holds at the new state it held at
/// every step in between. If it fails there, the scalar loop replays
/// from the old state and stops exactly where the reference does; it
/// also runs the tail once either side has under 8 elements left.
/// k <= min(i, j) on entry to a step, so the 8-lane store at out + k
/// stays inside min(na, nb).
template <bool kWrite>
MergeResult merge_u32_impl(const std::uint32_t* a, std::size_t na,
                           const std::uint32_t* b, std::size_t nb,
                           std::size_t minsup, std::uint32_t* out,
                           std::size_t* visited) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t k = 0;
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    // Lanes of va equal to some b[j..j+8): eight independent compares
    // against broadcasts, ORed as a tree (a chain of lane rotations
    // would serialize them).
    const auto eq = [va, b, j](std::size_t lane) {
      return _mm256_cmpeq_epi32(
          va, _mm256_set1_epi32(static_cast<int>(b[j + lane])));
    };
    const __m256i any = _mm256_or_si256(
        _mm256_or_si256(_mm256_or_si256(eq(0), eq(1)),
                        _mm256_or_si256(eq(2), eq(3))),
        _mm256_or_si256(_mm256_or_si256(eq(4), eq(5)),
                        _mm256_or_si256(eq(6), eq(7))));
    const auto match = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(any)));
    if constexpr (kWrite) {
      const __m256i perm = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(kCompressU32[match].data()));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k),
                          _mm256_permutevar8x32_epi32(va, perm));
    }
    const __m256i m =
        _mm256_set1_epi32(static_cast<int>(std::min(a[i + 7], b[j + 7])));
    const std::size_t next_i =
        i + static_cast<std::size_t>(std::popcount(lanes_at_most(va, m)));
    const std::size_t next_j =
        j + static_cast<std::size_t>(std::popcount(lanes_at_most(vb, m)));
    const std::size_t next_k =
        k + static_cast<std::size_t>(std::popcount(match));
    if (next_k + std::min(na - next_i, nb - next_j) < minsup) break;
    i = next_i;
    j = next_j;
    k = next_k;
  }
  return scalar_merge_u32_from(a, na, b, nb, minsup, out, visited, i, j, k);
}

MergeResult avx2_merge_u32(const std::uint32_t* a, std::size_t na,
                           const std::uint32_t* b, std::size_t nb,
                           std::size_t minsup, std::uint32_t* out,
                           std::size_t* visited) {
  return out != nullptr
             ? merge_u32_impl<true>(a, na, b, nb, minsup, out, visited)
             : merge_u32_impl<false>(a, na, b, nb, minsup, out, visited);
}

/// First index in [lo, nl) with large[index] >= target. Doubling probes
/// bracket the gap, binary search narrows it to <= 32 elements, and an
/// 8-wide compare scan finds the boundary inside the final window. The
/// sign-bit flip turns the signed epi32 compare into an unsigned one.
std::size_t avx2_lower_bound_u32(const std::uint32_t* large, std::size_t nl,
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
  while (width > 32) {
    if (probes != nullptr) ++*probes;
    const std::size_t half = width / 2;
    if (large[lo + half] < target) {
      lo += half + 1;
      width -= half + 1;
    } else {
      width = half;
    }
  }
  const __m256i sign = _mm256_set1_epi32(static_cast<int>(0x80000000U));
  const __m256i vt = _mm256_xor_si256(
      _mm256_set1_epi32(static_cast<int>(target)), sign);
  while (width >= 8) {
    if (probes != nullptr) ++*probes;
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(large + lo)),
        sign);
    // Lane mask of large[lo + lane] < target; sortedness makes it a
    // prefix of ones, so countr_one is the in-window lower bound.
    const unsigned less = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(vt, v))));
    if (less != 0xffU) return lo + std::countr_one(less);
    lo += 8;
    width -= 8;
  }
  while (width > 0 && large[lo] < target) {
    if (probes != nullptr) ++*probes;
    ++lo;
    --width;
  }
  return lo;
}

std::size_t avx2_gallop_u32(const std::uint32_t* small, std::size_t ns,
                            const std::uint32_t* large, std::size_t nl,
                            std::uint32_t* out, std::size_t* visited) {
  std::size_t j = 0;
  std::size_t k = 0;
  std::size_t scanned = 0;
  std::size_t* probes = visited != nullptr ? &scanned : nullptr;
  for (std::size_t i = 0; i < ns; ++i) {
    ++scanned;
    j = avx2_lower_bound_u32(large, nl, j, small[i], probes);
    if (j == nl) break;
    if (large[j] == small[i]) {
      if (out != nullptr) out[k] = small[i];
      ++k;
      ++j;
    }
  }
  if (visited != nullptr) *visited += scanned;
  return k;
}

}  // namespace

const KernelTable& avx2_table() {
  static const KernelTable table = {
      .level = IsaLevel::kAvx2,
      .and_words = &avx2_and_words,
      .andnot_words = &avx2_andnot_words,
      .merge_u32 = &avx2_merge_u32,
      .gallop_u32 = &avx2_gallop_u32,
      // No AVX2 bit-position compress instruction exists (vpcompressd is
      // AVX-512); the zero-skipping scalar decode is the best fit here.
      .decode_words = &scalar_decode_words,
  };
  return table;
}

#else  // !__AVX2__

// Compiled without AVX2 codegen support: serve the scalar table (its
// level field tells the dispatcher the vector path is unavailable).
const KernelTable& avx2_table() { return scalar_table(); }

#endif

}  // namespace eclat::simd::detail
