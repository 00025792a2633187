#include "vertical/simd/dispatch.hpp"

#include <cstdlib>
#include <cstring>

#include "common/check.hpp"
#include "vertical/simd/kernels_internal.hpp"

namespace eclat::simd {

namespace {

bool force_scalar_env() {
  const char* value = std::getenv("ECLAT_FORCE_SCALAR");
  return value != nullptr && value[0] != '\0' &&
         std::strcmp(value, "0") != 0;
}

bool cpuid_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool cpuid_avx512() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vpopcntdq");
#else
  return false;
#endif
}

/// Highest level both compiled into this binary and executable on this
/// host. The *_table() accessors report through their level field what
/// the build actually contains.
IsaLevel supported_max() {
  if (cpuid_avx512() &&
      detail::avx512_table().level == IsaLevel::kAvx512) {
    return IsaLevel::kAvx512;
  }
  if (cpuid_avx2() && detail::avx2_table().level == IsaLevel::kAvx2) {
    return IsaLevel::kAvx2;
  }
  return IsaLevel::kScalar;
}

IsaLevel clamp_to_supported(IsaLevel level) {
  const IsaLevel max = supported_max();
  return level < max ? level : max;
}

// Dispatch state. Resolved once via magic static; the override is a
// plain pointer-sized global written only from the single-threaded
// test/bench hook (override_isa_level documents it must not race with
// mining workers). Deliberately not std::atomic: src/vertical is
// covered by the det-thread lint rule — all cross-thread coordination
// lives in src/exec, and workers only ever read the immutable tables.
struct OverrideSlot {
  bool set = false;
  IsaLevel level = IsaLevel::kScalar;
};
OverrideSlot g_override;

}  // namespace

const char* isa_name(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar:
      return "scalar";
    case IsaLevel::kAvx2:
      return "avx2";
    case IsaLevel::kAvx512:
      return "avx512";
  }
  ECLAT_UNREACHABLE("invalid IsaLevel");
}

bool cpu_has_avx2() {
  static const bool value = cpuid_avx2();
  return value;
}

bool cpu_has_avx512bw() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool value = __builtin_cpu_supports("avx512bw") != 0;
  return value;
#else
  return false;
#endif
}

IsaLevel detected_isa_level() {
  static const IsaLevel level =
      force_scalar_env() ? IsaLevel::kScalar : supported_max();
  return level;
}

IsaLevel active_level() {
  return g_override.set ? clamp_to_supported(g_override.level)
                        : detected_isa_level();
}

const KernelTable& kernels_for(IsaLevel level) {
  switch (clamp_to_supported(level)) {
    case IsaLevel::kScalar:
      return detail::scalar_table();
    case IsaLevel::kAvx2:
      return detail::avx2_table();
    case IsaLevel::kAvx512:
      return detail::avx512_table();
  }
  ECLAT_UNREACHABLE("invalid IsaLevel");
}

const KernelTable& kernels() {
  // Hot path: every sparse merge asks once. The detected table resolves
  // through CPUID and the build probes a single time; afterwards this is
  // one flag test and one load.
  static const KernelTable& detected = kernels_for(detected_isa_level());
  return g_override.set ? kernels_for(g_override.level) : detected;
}

void override_isa_level(std::optional<IsaLevel> level) {
  g_override.set = level.has_value();
  if (level.has_value()) g_override.level = *level;
}

void self_check() {
  const KernelTable& table = kernels();
  if (table.level == IsaLevel::kScalar) return;

  // Word kernels: 67 words (not a multiple of any vector width) with
  // asymmetric bit patterns so AND and ANDNOT differ.
  constexpr std::size_t kWords = 67;
  std::uint64_t a[kWords];
  std::uint64_t b[kWords];
  for (std::size_t i = 0; i < kWords; ++i) {
    a[i] = 0x9e3779b97f4a7c15ULL * (i + 1);
    b[i] = (a[i] >> 3) ^ 0x0123456789abcdefULL;
  }
  std::uint64_t got_words[kWords];
  std::uint64_t want_words[kWords];
  ECLAT_CHECK(table.and_words(a, b, got_words, kWords) ==
              detail::scalar_and_words(a, b, want_words, kWords));
  ECLAT_CHECK(std::memcmp(got_words, want_words, sizeof(got_words)) == 0);
  ECLAT_CHECK(table.andnot_words(a, b, got_words, kWords) ==
              detail::scalar_andnot_words(a, b, want_words, kWords));
  ECLAT_CHECK(std::memcmp(got_words, want_words, sizeof(got_words)) == 0);
  ECLAT_CHECK(table.and_words(a, b, nullptr, kWords) ==
              detail::scalar_and_words(a, b, nullptr, kWords));

  // Decode: the same asymmetric words plus an all-zero prefix (exercises
  // the zero-skip) and a nonzero base offset.
  std::uint64_t sparse_words[kWords] = {};
  for (std::size_t i = 20; i < kWords; i += 7) sparse_words[i] = a[i];
  std::uint32_t got_decoded[512];  // 7 nonzero words = at most 448 bits
  std::uint32_t want_decoded[512];
  const std::size_t got_d =
      table.decode_words(sparse_words, kWords, 1u << 16, got_decoded);
  const std::size_t want_d = detail::scalar_decode_words(
      sparse_words, kWords, 1u << 16, want_decoded);
  ECLAT_CHECK(got_d == want_d);
  ECLAT_CHECK(std::memcmp(got_decoded, want_decoded,
                          got_d * sizeof(std::uint32_t)) == 0);

  // u32 merge: count, abort decision, visited and bytes against the
  // scalar reference. Below the high tids a holds 0, 3, 6, ... and b
  // 0, 5, 10, ..., so they match on multiples of 15 from tid 0; both
  // end in the signed-compare trap 0x7FFFFFFF/0x80000000 and 0xFFFFFFFE.
  std::uint32_t ma[40];
  std::uint32_t mb[30];
  for (std::size_t i = 0; i < 36; ++i) {
    ma[i] = static_cast<std::uint32_t>(i * 3);
  }
  for (std::size_t i = 0; i < 26; ++i) {
    mb[i] = static_cast<std::uint32_t>(i * 5);
  }
  const std::uint32_t high[4] = {0x7FFFFFFFU, 0x80000000U, 0x80000001U,
                                 0xFFFFFFFEU};
  std::memcpy(ma + 36, high, sizeof(high));
  mb[26] = high[0];
  mb[27] = high[1];
  mb[28] = 0x90000000U;
  mb[29] = high[3];
  struct MergeCase {
    std::size_t na;
    std::size_t nb;
    std::size_t minsup;
  };
  // Exact support 11, three of it in the high tids: minsup 0 and 11 run
  // to the end; 12 aborts in the tail; 40 and 22 abort in the first and
  // in a later block.
  const MergeCase merge_cases[] = {
      {40, 30, 0}, {40, 30, 11}, {40, 30, 12}, {40, 30, 40}, {40, 30, 22},
      {7, 30, 0},  {40, 9, 2}};
  for (const MergeCase& c : merge_cases) {
    std::uint32_t got_m[40];
    std::uint32_t want_m[40];
    std::size_t got_visited = 0;
    std::size_t want_visited = 0;
    const MergeResult got = table.merge_u32(ma, c.na, mb, c.nb, c.minsup,
                                            got_m, &got_visited);
    const MergeResult want = detail::scalar_merge_u32(
        ma, c.na, mb, c.nb, c.minsup, want_m, &want_visited);
    ECLAT_CHECK(got.count == want.count && got.aborted == want.aborted);
    ECLAT_CHECK(got_visited == want_visited);
    ECLAT_CHECK(std::memcmp(got_m, want_m,
                            got.count * sizeof(std::uint32_t)) == 0);
    const MergeResult counted =
        table.merge_u32(ma, c.na, mb, c.nb, c.minsup, nullptr, nullptr);
    ECLAT_CHECK(counted.count == want.count &&
                counted.aborted == want.aborted);
  }

  // Gallop: a short probe list against a long run with scattered hits.
  std::uint32_t small[9];
  std::uint32_t large[400];
  for (std::size_t i = 0; i < 9; ++i) {
    small[i] = static_cast<std::uint32_t>(i * i * 17);
  }
  for (std::size_t i = 0; i < 400; ++i) {
    large[i] = static_cast<std::uint32_t>(i * 2);
  }
  std::uint32_t got_u32[9];
  std::uint32_t want_u32[9];
  const std::size_t got_g = table.gallop_u32(small, 9, large, 400, got_u32,
                                             nullptr);
  const std::size_t want_g =
      detail::scalar_gallop_u32(small, 9, large, 400, want_u32, nullptr);
  ECLAT_CHECK(got_g == want_g);
  ECLAT_CHECK(std::memcmp(got_u32, want_u32,
                          got_g * sizeof(std::uint32_t)) == 0);
  ECLAT_CHECK(table.gallop_u32_count(small, 9, large, 400, nullptr) ==
              want_g);
}

}  // namespace eclat::simd
