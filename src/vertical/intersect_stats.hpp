// Counters the kernel layer reports and the ablation benchmarks read
// back. Split out of tidset.hpp so any representation can record into
// the same struct without an include cycle. Scan counters record work
// actually performed: a short-circuited abort adds only the elements (or
// words) inspected before the bound fired, never the full input sizes.
#pragma once

#include <cstdint>

namespace eclat {

struct IntersectStats {
  std::uint64_t intersections = 0;    ///< kernel invocations
  std::uint64_t short_circuited = 0;  ///< aborted early by the bound
  std::uint64_t tids_scanned = 0;     ///< sparse elements actually visited
  std::uint64_t words_scanned = 0;    ///< bitset words actually ANDed
  std::uint64_t merge_calls = 0;      ///< sparse∩sparse merges
  std::uint64_t gallop_calls = 0;     ///< sparse∩sparse gallops
  std::uint64_t bitset_calls = 0;     ///< dense∩dense word kernels
  std::uint64_t probe_calls = 0;      ///< sparse∩dense bit probes
  /// Always 0: the chunked representation it counted is gone. Kept
  /// because bench_e2e reads it (same_stats, vertical.calls.chunked).
  std::uint64_t chunked_calls = 0;
  std::uint64_t count_only = 0;       ///< support-only evaluations

  // Representation conversions between sparse and dense.
  std::uint64_t densified = 0;         ///< conversions to dense (seeding
                                       ///< a list dense included)
  std::uint64_t sparsified = 0;        ///< dense → sparse conversions
  std::uint64_t rep_flipflops = 0;     ///< conversions reversing the slot's
                                       ///< previous conversion direction
  std::uint64_t hysteresis_holds = 0;  ///< conversions skipped because the
                                       ///< size sat inside the stay band

  // SIMD dispatch hits: calls that ran through a vector kernel from the
  // runtime-dispatched table (scalar fallback calls are not counted).
  std::uint64_t simd_word_calls = 0;    ///< word AND/ANDNOT block kernels
  std::uint64_t simd_sparse_calls = 0;  ///< u32 merge and gallop kernels
};

}  // namespace eclat
