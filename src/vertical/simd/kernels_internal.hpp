// Internal wiring between the per-ISA translation units and the
// dispatcher. Each ISA level exports its table through one accessor; a
// level whose translation unit was compiled without the matching -m
// flags returns the next lower table (level field tells the dispatcher
// what it actually got). Nothing outside src/vertical/simd/ includes
// this header — external code goes through dispatch.hpp.
#pragma once

#include "dispatch.hpp"

namespace eclat::simd::detail {

const KernelTable& scalar_table();
const KernelTable& avx2_table();    // scalar_table() if not compiled
const KernelTable& avx512_table();  // avx2_table() if not compiled

// Scalar reference implementations, exported so the vector tables can
// fall back per-entry (e.g. the AVX-512 table reuses the AVX2 sparse
// kernels) and so self_check() always has the ground truth.
std::uint64_t scalar_and_words(const std::uint64_t* a, const std::uint64_t* b,
                               std::uint64_t* out, std::size_t n);
std::uint64_t scalar_andnot_words(const std::uint64_t* a,
                                  const std::uint64_t* b, std::uint64_t* out,
                                  std::size_t n);
MergeResult scalar_merge_u32(const std::uint32_t* a, std::size_t na,
                             const std::uint32_t* b, std::size_t nb,
                             std::size_t minsup, std::uint32_t* out,
                             std::size_t* visited);
/// The scalar merge started from a state (i, j, k) that it passes
/// through itself. The vector merges call it to finish their tails and
/// to replay a block whose end state fails the bound.
MergeResult scalar_merge_u32_from(const std::uint32_t* a, std::size_t na,
                                  const std::uint32_t* b, std::size_t nb,
                                  std::size_t minsup, std::uint32_t* out,
                                  std::size_t* visited, std::size_t i,
                                  std::size_t j, std::size_t k);
std::size_t scalar_gallop_u32(const std::uint32_t* small, std::size_t ns,
                              const std::uint32_t* large, std::size_t nl,
                              std::uint32_t* out, std::size_t* visited);
std::size_t scalar_gallop_u32_count(const std::uint32_t* small, std::size_t ns,
                                    const std::uint32_t* large, std::size_t nl,
                                    std::size_t* visited);
std::size_t scalar_decode_words(const std::uint64_t* words, std::size_t n,
                                std::uint32_t base, std::uint32_t* out);

}  // namespace eclat::simd::detail
