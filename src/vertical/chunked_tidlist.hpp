// Roaring-style hybrid tid container: the tid universe is split into
// 2^16-tid chunks and each populated chunk independently picks the
// container that intersects fastest at its own local density —
//
//   array   sorted u16 list            (sparse chunks, STTNI intersect)
//   bitset  1024 words, one bit/tid    (dense chunks, SIMD word-AND)
//
// so a mid-density tid-list no longer pays the all-or-nothing 1/64
// cliff of the flat sparse/dense split: its hot chunks go bitset, its
// cold ones stay array, and each chunk pair dispatches to the cheapest
// pairwise kernel (thresholds and derivation in DESIGN.md §5).
//
// Chunk-local threshold (speed-oriented, not Roaring's space-oriented
// 4096): a chunk holding c of its 65536 tids is a bitset at c >= 1024
// (local density 1/64 — where 8-words-per-iteration SIMD AND beats the
// 8-lane STTNI block merge) and an array below. Every assign and every
// kernel output picks the container by this one rule.
//
// Storage is pooled (one u16 pool, one word pool, one chunk-meta
// vector), and every assign/intersect reuses pool capacity, so a
// ChunkedTidList held in a TidArena slot stops allocating once warmed
// up — the same lifetime rule as TidList and BitsetTidList.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "vertical/bitset_tidlist.hpp"
#include "vertical/intersect_stats.hpp"
#include "vertical/tidlist.hpp"

namespace eclat {

class ChunkedTidList {
 public:
  enum class ContainerType : std::uint8_t { kArray, kBitset };

  /// Chunk counts by container type (bench reporting).
  struct ContainerHistogram {
    std::size_t array = 0;
    std::size_t bitset = 0;
  };

  ChunkedTidList() = default;

  /// Rebuild in place from a sorted tid-list over [0, universe),
  /// choosing each chunk's container by the local threshold above.
  void assign(std::span<const Tid> tids, Tid universe);

  /// Rebuild from a flat word bitmap (count = its popcount) — the
  /// dense→chunked conversion path.
  void assign_from_words(std::span<const std::uint64_t> words, Tid universe,
                         std::size_t count);

  /// Empty container over `universe` (kernel output staging).
  void reset(Tid universe);

  Tid universe() const { return universe_; }
  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  std::size_t chunk_count() const { return chunks_.size(); }
  ContainerHistogram histogram() const;
  /// Bytes held by the chunk directory and payload pools (capacities, for
  /// the exec memory budget).
  std::size_t memory_bytes() const {
    return chunks_.capacity() * sizeof(Chunk) +
           u16_pool_.capacity() * sizeof(std::uint16_t) +
           word_pool_.capacity() * sizeof(std::uint64_t);
  }

  bool test(Tid t) const;

  /// Decode to a sorted tid-list, appending to `out`.
  void append_to(TidList& out) const;
  TidList to_tidlist() const;

  /// OR this container's bits into a flat word bitmap (caller zeroes it
  /// first) — the chunked→dense conversion path.
  void write_words(std::span<std::uint64_t> words) const;

  /// Clear this container's bits from a flat word bitmap; returns how
  /// many set bits were cleared — the dense \ chunked kernel.
  std::size_t clear_words(std::span<std::uint64_t> words) const;

  /// this = a & b, short-circuiting (at chunk granularity) once the
  /// running count plus Σ min(|a_k|,|b_k|) over the remaining common
  /// chunks provably stays below `minsup`. Returns false iff aborted or
  /// below minsup (contents then unspecified). Requires matching
  /// universes; `this` must not alias a or b.
  bool assign_and_bounded(const ChunkedTidList& a, const ChunkedTidList& b,
                          Count minsup, IntersectStats* stats);

  /// Support-only AND with the same chunk-granular bound.
  static std::optional<std::size_t> and_count(const ChunkedTidList& a,
                                              const ChunkedTidList& b,
                                              Count minsup,
                                              IntersectStats* stats);

  /// this = a & ~b, aborting (at chunk granularity) once the running
  /// count exceeds `budget` (the diffset pruning bound). Returns false
  /// iff aborted.
  bool assign_andnot_bounded(const ChunkedTidList& a,
                             const ChunkedTidList& b, std::size_t budget,
                             IntersectStats* stats);

  // ---- Mixed-representation kernels (kAuto pairs a chunked operand
  // with the flat dense bitmap without converting either side; the
  // BitsetTidList's words are addressed per chunk key as a virtual
  // bitset chunk). ----

  /// this = a & b where b is a flat dense bitmap over the same universe.
  bool assign_and_bits_bounded(const ChunkedTidList& a,
                               const BitsetTidList& b, Count minsup,
                               IntersectStats* stats);

  /// Support-only variant of assign_and_bits_bounded.
  static std::optional<std::size_t> and_count_bits(const ChunkedTidList& a,
                                                   const BitsetTidList& b,
                                                   Count minsup,
                                                   IntersectStats* stats);

  /// this = a & ~b where b is a flat dense bitmap.
  bool assign_andnot_bits_bounded(const ChunkedTidList& a,
                                  const BitsetTidList& b, std::size_t budget,
                                  IntersectStats* stats);

  /// this = a \ b where b is a sorted tid-list.
  bool assign_minus_sparse(const ChunkedTidList& a, std::span<const Tid> b,
                           std::size_t budget, IntersectStats* stats);

  // ---- Sparse-list kernels (kAuto pairs a sorted tid-list with a
  // chunked operand without converting either side; the list is walked
  // chunk-slice by chunk-slice, so comparable-size pairs run a linear
  // merge per chunk instead of paying a per-element container search).
  // The result is at most as large as the sparse side, so it lands in a
  // TidList, not a chunked container. ----

  /// out = b ∩ a where b is a sorted tid-list. Short-circuits (at chunk
  /// granularity) once the running count plus the unscanned tail of b
  /// provably stays below `minsup`; returns false iff aborted or below
  /// minsup (out then unspecified).
  static bool and_sparse(const ChunkedTidList& a, std::span<const Tid> b,
                         Count minsup, TidList& out, IntersectStats* stats);

  /// Support-only variant of and_sparse.
  static std::optional<std::size_t> and_sparse_count(const ChunkedTidList& a,
                                                     std::span<const Tid> b,
                                                     Count minsup,
                                                     IntersectStats* stats);

  /// out = b \ a where b is a sorted tid-list (sparse minuend over a
  /// chunked subtrahend). Aborts (at chunk granularity) once out grows
  /// past `budget`; returns false iff aborted.
  static bool sparse_minus(std::span<const Tid> b, const ChunkedTidList& a,
                           std::size_t budget, TidList& out,
                           IntersectStats* stats);

  friend bool operator==(const ChunkedTidList& a, const ChunkedTidList& b) {
    return a.universe_ == b.universe_ && a.count_ == b.count_ &&
           a.to_tidlist() == b.to_tidlist();
  }

 private:
  struct Chunk {
    std::uint16_t key = 0;  ///< tid >> 16
    ContainerType type = ContainerType::kArray;
    std::uint32_t offset = 0;       ///< u16 pool (array elements) or word
                                    ///< pool (bitset: kChunkWords words)
    std::uint32_t cardinality = 0;  ///< tids in this chunk
  };

  static constexpr std::size_t kChunkSpan = 1U << 16;
  static constexpr std::size_t kChunkWords = kChunkSpan / 64;
  /// Local-density 1/64 crossover: array→bitset at this cardinality.
  static constexpr std::size_t kBitsetChunkMin = 1024;
  /// STTNI compress stores 8 u16 lanes past the true result.
  static constexpr std::size_t kU16Slack = 8;

  std::span<const std::uint16_t> array_of(const Chunk& c) const;
  std::span<const std::uint64_t> words_of(const Chunk& c) const;

  // Output staging: stage_* grows the pool and returns the offset;
  // emit_* trims the pool to the true cardinality, converts the staged
  // payload to the other container when it crossed the threshold,
  // appends the chunk, and accumulates count_. A staged region must be
  // emitted before the next stage_* call (the pools may reallocate).
  std::uint32_t stage_u16(std::size_t capacity);
  void emit_array(std::uint16_t key, std::uint32_t offset, std::size_t card);
  std::uint32_t stage_words();
  void emit_words(std::uint16_t key, std::uint32_t offset, std::size_t card);

  /// Copy one chunk of another container verbatim into this one.
  void copy_chunk(const ChunkedTidList& src, const Chunk& c);

  // Pairwise chunk kernels (ca from a, cb from b, same key): intersect /
  // subtract into a freshly staged+emitted chunk of *this.
  void and_pair(const Chunk& ca, const ChunkedTidList& a, const Chunk& cb,
                const ChunkedTidList& b, IntersectStats* stats);
  static std::size_t and_pair_count(const Chunk& ca, const ChunkedTidList& a,
                                    const Chunk& cb, const ChunkedTidList& b,
                                    IntersectStats* stats);
  void andnot_pair(const Chunk& ca, const ChunkedTidList& a, const Chunk& cb,
                   const ChunkedTidList& b, IntersectStats* stats);

  // Chunk ∩/\ a raw word slice (a bitset chunk's payload or the
  // matching kChunkWords-slice of a flat dense bitmap).
  void and_chunk_words(const Chunk& ca, const ChunkedTidList& a,
                       std::span<const std::uint64_t> bw,
                       IntersectStats* stats);
  static std::size_t and_chunk_words_count(const Chunk& ca,
                                           const ChunkedTidList& a,
                                           std::span<const std::uint64_t> bw,
                                           IntersectStats* stats);
  void andnot_chunk_words(const Chunk& ca, const ChunkedTidList& a,
                          std::span<const std::uint64_t> bw,
                          IntersectStats* stats);

  /// ca \ {bn sorted in-chunk u16 values, get(i) yielding the i-th} into
  /// a staged+emitted chunk. Templated on the accessor so the subtrahend
  /// can be an array chunk (u16) or a slice of a flat tid-list (u32)
  /// without a conversion buffer. Defined in the .cpp (only used there).
  template <typename Get>
  void andnot_chunk_sparse(const Chunk& ca, const ChunkedTidList& a,
                           std::size_t bn, const Get& get,
                           IntersectStats* stats);

  std::vector<Chunk> chunks_;            // sorted by key
  std::vector<std::uint16_t> u16_pool_;  // array chunk elements
  std::vector<std::uint64_t> word_pool_;  // bitset chunk payloads
  Tid universe_ = 0;
  std::size_t count_ = 0;
};

}  // namespace eclat
