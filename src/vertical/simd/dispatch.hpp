// Runtime-dispatched SIMD kernel table for the tid-list layer.
//
// One binary carries every code path: the scalar kernels are always
// compiled, the AVX2 and AVX-512 translation units are compiled with
// their own -m flags (see src/vertical/CMakeLists.txt), and the host's
// CPUID decides — once, at first use — which function pointers the
// active table holds. `ECLAT_NATIVE` therefore stops being the only way
// to get vector code: a portable build dispatches to AVX-512 on a
// machine that has it and falls back to scalar anywhere else.
//
// Dispatch contract (DESIGN.md §5): every kernel in every table computes
// the exact same mathematical result — the ISA level changes throughput
// only, never bytes. The differential tests pin this by re-mining under
// `override_isa_level` at every level the host supports. Each kernel that
// can store a result takes a nullable output and counts only without one,
// so no join keeps a separate count-only entry.
//
// The table is resolved once per process and immutable afterwards, so a
// per-worker "copy" is one pointer load; `self_check()` lets each
// execution-backend worker validate its dispatched table against the
// scalar reference before mining (cheap, and catches a miscompiled or
// misdetected vector path at startup instead of in a diff).
//
// `ECLAT_FORCE_SCALAR=1` in the environment pins the scalar table — the
// CI sanitizer matrix runs a forced-scalar leg so the fallback path
// stays exercised on hosts where it would otherwise never run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

namespace eclat::simd {

enum class IsaLevel : std::uint8_t {
  kScalar,  ///< portable C++ (always available)
  kAvx2,    ///< AVX2 word AND + vectorized popcount, u32 merge and gallop
  kAvx512,  ///< AVX-512BW + VPOPCNTDQ word kernels
};

/// Canonical lowercase name ("scalar", "avx2", "avx512").
const char* isa_name(IsaLevel level);

/// What merge_u32 reports: the matches it found and whether the support
/// bound stopped it before either list ran out.
struct MergeResult {
  std::size_t count = 0;
  bool aborted = false;
};

/// The kernel table: raw loops over unowned memory. All pointers are
/// non-null in every table (unsupported levels fall back to the next
/// lower implementation), so call sites never branch on availability.
struct KernelTable {
  IsaLevel level = IsaLevel::kScalar;

  /// popcount(a & b) over n words; when out != nullptr also stores a & b.
  std::uint64_t (*and_words)(const std::uint64_t* a, const std::uint64_t* b,
                             std::uint64_t* out, std::size_t n);

  /// popcount(a & ~b) over n words; when out != nullptr stores a & ~b.
  std::uint64_t (*andnot_words)(const std::uint64_t* a,
                                const std::uint64_t* b, std::uint64_t* out,
                                std::size_t n);

  /// Sorted-u32 merge a ∩ b under the paper's §5.3 support bound: with k
  /// matches after consuming a[0..i) and b[0..j), the merge stops once
  /// k + min(na - i, nb - j) < minsup. minsup 0 never stops (the plain
  /// merge). When out != nullptr the matches go to out (capacity
  /// >= min(na, nb)); nullptr counts only. `visited` accumulates i + j at
  /// the stop. Every level returns exactly the scalar reference's count,
  /// abort decision, `visited` and out[0..count), aborted or not.
  MergeResult (*merge_u32)(const std::uint32_t* a, std::size_t na,
                           const std::uint32_t* b, std::size_t nb,
                           std::size_t minsup, std::uint32_t* out,
                           std::size_t* visited);

  /// Galloping membership intersection for heavily skewed sorted u32
  /// pairs: every element of `small` is searched in `large` (exponential
  /// probe, then a vectorized window scan). Returns the result size. As
  /// for merge_u32, out != nullptr receives the matches (capacity >= ns)
  /// and nullptr counts only. `visited` counts small elements plus
  /// search probes; the probe count differs by level, the result never.
  std::size_t (*gallop_u32)(const std::uint32_t* small, std::size_t ns,
                            const std::uint32_t* large, std::size_t nl,
                            std::uint32_t* out, std::size_t* visited);

  /// Decode the set-bit positions of words[0..n) in ascending order into
  /// out (capacity >= popcount of the range), each offset by `base`.
  /// Returns the number decoded. This is the dense→sparse conversion
  /// workhorse: sparsifying a list costs one pass of this kernel, so it
  /// must not be slower than the AND that produced the words.
  std::size_t (*decode_words)(const std::uint64_t* words, std::size_t n,
                              std::uint32_t base, std::uint32_t* out);
};

/// Raw CPUID feature bits (independent of what this build compiled or
/// what dispatch selected) — stamped into BENCH_*.json headers so perf
/// trajectories are comparable across machines.
bool cpu_has_avx2();
bool cpu_has_avx512bw();

/// The ISA level CPUID + build flags + ECLAT_FORCE_SCALAR resolve to.
/// Computed once; subsequent calls are a load.
IsaLevel detected_isa_level();

/// The level kernels() currently serves: the override when set, else the
/// detected level.
IsaLevel active_level();

/// The active kernel table (function pointers for active_level()).
const KernelTable& kernels();

/// The table for a specific level, clamped to what this build + host can
/// actually run (asking for kAvx512 on an AVX2-only host returns the
/// AVX2 table; on a non-x86 build, the scalar table).
const KernelTable& kernels_for(IsaLevel level);

/// Test/bench hook: pin dispatch to `level` (clamped to the supported
/// maximum), or nullopt to return to the detected level. Not thread-safe
/// — call only while no mining workers are running; workers re-read the
/// table at their next kernel call.
void override_isa_level(std::optional<IsaLevel> level);

/// Run every kernel of the active table against the scalar reference on
/// a small fixed input; aborts via contract check on divergence. Each
/// execution-backend worker calls this once before mining.
void self_check();

}  // namespace eclat::simd
