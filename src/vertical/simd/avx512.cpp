// AVX-512 word kernels: 512-bit AND / ANDNOT with the hardware
// VPOPCNTDQ per-word popcount — the reduction the Mula LUT approximates
// in one instruction. The sparse kernels are taken over from the AVX2
// table unchanged: the gallop is latency- not width-bound, and the u32
// merge reuses the AVX2 8-lane block step. Compiled with
// -mavx512f -mavx512bw -mavx512vpopcntdq when available; installed only
// after CPUID confirms all three features.
#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512VPOPCNTDQ__)
// GCC's AVX-512 intrinsic headers build unmasked ops on top of
// _mm512_undefined_epi32(), which -Wmaybe-uninitialized flags at every
// inline expansion point (GCC PR105593). Suppress for this TU only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>

#include <bit>
#endif

#include "vertical/simd/kernels_internal.hpp"

namespace eclat::simd::detail {

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512VPOPCNTDQ__)

namespace {

template <bool kNot>
std::uint64_t and_words_impl(const std::uint64_t* a, const std::uint64_t* b,
                             std::uint64_t* out, std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    // andnot computes (~first) & second, so the operand order flips.
    const __m512i v =
        kNot ? _mm512_andnot_si512(vb, va) : _mm512_and_si512(va, vb);
    if (out != nullptr) _mm512_storeu_si512(out + i, v);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  // GCC 12's _mm512_reduce_add_epi64 header expands through
  // _mm512_undefined_epi32 and trips -Wmaybe-uninitialized under
  // -Werror, so reduce through memory instead (one store outside the
  // hot loop).
  alignas(64) std::uint64_t lanes[8];
  _mm512_store_si512(lanes, acc);
  std::uint64_t count = lanes[0] + lanes[1] + lanes[2] + lanes[3] +
                        lanes[4] + lanes[5] + lanes[6] + lanes[7];
  for (; i < n; ++i) {
    const std::uint64_t v = kNot ? (a[i] & ~b[i]) : (a[i] & b[i]);
    if (out != nullptr) out[i] = v;
    count += static_cast<std::uint64_t>(std::popcount(v));
  }
  return count;
}

std::uint64_t avx512_and_words(const std::uint64_t* a, const std::uint64_t* b,
                               std::uint64_t* out, std::size_t n) {
  return and_words_impl<false>(a, b, out, n);
}

std::uint64_t avx512_andnot_words(const std::uint64_t* a,
                                  const std::uint64_t* b, std::uint64_t* out,
                                  std::size_t n) {
  return and_words_impl<true>(a, b, out, n);
}

std::size_t avx512_decode_words(const std::uint64_t* words, std::size_t n,
                                std::uint32_t base, std::uint32_t* out) {
  // Empty space is skipped a 512-bit load at a time and the nonzero-word
  // mask steers straight to the populated words (no per-word scan inside
  // a group). A sparse word decodes through the two-op countr_zero loop;
  // only words dense enough to amortize the vector setup go through
  // vpcompressd on four 16-bit sub-masks. Output is ascending either
  // way — same bytes as the scalar reference.
  constexpr int kCompressMinBits = 16;
  const __m512i iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                         11, 12, 13, 14, 15);
  const __m512i sixteen = _mm512_set1_epi32(16);
  std::size_t k = 0;
  std::size_t w = 0;
  for (; w + 8 <= n; w += 8) {
    const __m512i v = _mm512_loadu_si512(words + w);
    auto nz = static_cast<unsigned>(_mm512_test_epi64_mask(v, v));
    while (nz != 0) {
      const auto j = static_cast<std::size_t>(std::countr_zero(nz));
      nz &= nz - 1;
      std::uint64_t word = words[w + j];
      const auto word_base =
          base + static_cast<std::uint32_t>((w + j) * 64);
      if (std::popcount(word) < kCompressMinBits) {
        while (word != 0) {
          const auto bit =
              static_cast<std::uint32_t>(std::countr_zero(word));
          out[k++] = word_base + bit;
          word &= word - 1;
        }
        continue;
      }
      __m512i idx = _mm512_add_epi32(_mm512_set1_epi32(
                                         static_cast<int>(word_base)),
                                     iota);
      for (unsigned quarter = 0; quarter < 4; ++quarter) {
        const auto m =
            static_cast<__mmask16>(word >> (16 * quarter) & 0xffff);
        if (m != 0) {
          _mm512_mask_compressstoreu_epi32(out + k, m, idx);
          k += static_cast<std::size_t>(
              std::popcount(static_cast<std::uint32_t>(m)));
        }
        idx = _mm512_add_epi32(idx, sixteen);
      }
    }
  }
  if (w < n) k += scalar_decode_words(words + w, n - w,
                                      base + static_cast<std::uint32_t>(
                                                 w * 64),
                                      out + k);
  return k;
}

}  // namespace

const KernelTable& avx512_table() {
  static const KernelTable table = {
      .level = IsaLevel::kAvx512,
      .and_words = &avx512_and_words,
      .andnot_words = &avx512_andnot_words,
      .merge_u32 = avx2_table().merge_u32,
      .gallop_u32 = avx2_table().gallop_u32,
      .gallop_u32_count = avx2_table().gallop_u32_count,
      .decode_words = &avx512_decode_words,
  };
  return table;
}

#else  // AVX-512 codegen unavailable in this build

const KernelTable& avx512_table() { return avx2_table(); }

#endif

}  // namespace eclat::simd::detail
