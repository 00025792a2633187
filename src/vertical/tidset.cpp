#include "vertical/tidset.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "vertical/simd/dispatch.hpp"

namespace eclat {

namespace {

/// kAuto hands a sparse∩sparse pair to the galloping kernel when one side
/// is this many times shorter than the other.
constexpr std::size_t kGallopSkew = 32;

bool sparse_pair_skewed(std::size_t a, std::size_t b) {
  return std::min(a, b) * kGallopSkew < std::max(a, b);
}

void count_simd_words(IntersectStats* stats) {
  if (stats != nullptr &&
      simd::kernels().level != simd::IsaLevel::kScalar) {
    ++stats->simd_word_calls;
  }
}

void count_simd_sparse(IntersectStats* stats) {
  if (stats != nullptr &&
      simd::kernels().level != simd::IsaLevel::kScalar) {
    ++stats->simd_sparse_calls;
  }
}

/// Records one sparse∩sparse merge (the dispatched merge_u32 kernel):
/// `visited` tids scanned, and an abort when `short_circuited`.
void count_merge(IntersectStats* stats, std::size_t visited,
                 bool short_circuited) {
  if (stats == nullptr) return;
  ++stats->merge_calls;
  stats->tids_scanned += visited;
  if (short_circuited) ++stats->short_circuited;
  count_simd_sparse(stats);
}

/// Galloping sparse∩sparse through the dispatched kernel table.
void gallop_into_dispatch(std::span<const Tid> a, std::span<const Tid> b,
                          TidList& out, std::size_t* visited,
                          IntersectStats* stats) {
  const std::span<const Tid> small = a.size() <= b.size() ? a : b;
  const std::span<const Tid> large = a.size() <= b.size() ? b : a;
  out.clear();
  out.resize(small.size());
  const std::size_t k =
      simd::kernels().gallop_u32(small.data(), small.size(), large.data(),
                                 large.size(), out.data(), visited);
  out.resize(k);
  count_simd_sparse(stats);
}

/// Support-only gallop through the dispatched kernel table.
Count gallop_count_dispatch(std::span<const Tid> a, std::span<const Tid> b,
                            std::size_t* visited, IntersectStats* stats) {
  const std::span<const Tid> small = a.size() <= b.size() ? a : b;
  const std::span<const Tid> large = a.size() <= b.size() ? b : a;
  count_simd_sparse(stats);
  return simd::kernels().gallop_u32_count(small.data(), small.size(),
                                          large.data(), large.size(),
                                          visited);
}

/// sparse ∩ dense by probing the flat bitmap per sparse element (O(1)
/// per lookup), with the support bound |result| <= matched + sparse
/// elements remaining. Returns false iff provably below minsup.
bool probe_into(std::span<const Tid> sparse, const BitsetTidList& dense,
                Count minsup, TidList& out, IntersectStats* stats) {
  if (std::min<std::size_t>(sparse.size(), dense.count()) < minsup) {
    if (stats != nullptr) {
      ++stats->probe_calls;
      ++stats->short_circuited;
    }
    return false;
  }
  out.clear();
  out.reserve(sparse.size());
  const std::size_t n = sparse.size();
  std::size_t i = 0;
  bool aborted = false;
  for (; i < n; ++i) {
    if (out.size() + (n - i) < minsup) {
      aborted = true;
      break;
    }
    if (dense.test(sparse[i])) out.push_back(sparse[i]);
  }
  if (stats != nullptr) {
    ++stats->probe_calls;
    stats->tids_scanned += i;
    if (aborted) ++stats->short_circuited;
  }
  return !aborted && out.size() >= minsup;
}

/// Support-only probe.
std::optional<Count> probe_count(std::span<const Tid> sparse,
                                 const BitsetTidList& dense, Count minsup,
                                 IntersectStats* stats) {
  if (std::min<std::size_t>(sparse.size(), dense.count()) < minsup) {
    if (stats != nullptr) {
      ++stats->probe_calls;
      ++stats->short_circuited;
    }
    return std::nullopt;
  }
  const std::size_t n = sparse.size();
  std::size_t count = 0;
  std::size_t i = 0;
  bool aborted = false;
  for (; i < n; ++i) {
    if (count + (n - i) < minsup) {
      aborted = true;
      break;
    }
    count += static_cast<std::size_t>(dense.test(sparse[i]));
  }
  if (stats != nullptr) {
    ++stats->probe_calls;
    stats->tids_scanned += i;
    if (aborted) ++stats->short_circuited;
  }
  if (aborted || count < minsup) return std::nullopt;
  return count;
}

/// sparse \ dense with the diffset budget bound.
bool probe_minus_into(std::span<const Tid> sparse,
                      const BitsetTidList& dense, std::size_t budget,
                      TidList& out, IntersectStats* stats) {
  out.clear();
  out.reserve(std::min(sparse.size(), budget + 1));
  std::size_t i = 0;
  bool ok = true;
  for (; i < sparse.size(); ++i) {
    if (!dense.test(sparse[i])) {
      if (out.size() == budget) {
        ok = false;
        break;
      }
      out.push_back(sparse[i]);
    }
  }
  if (stats != nullptr) {
    ++stats->probe_calls;
    stats->tids_scanned += i;
  }
  return ok;
}

}  // namespace

const char* kernel_name(IntersectKernel kernel) {
  switch (kernel) {
    case IntersectKernel::kMerge:
      return "merge";
    case IntersectKernel::kMergeShortCircuit:
      return "short-circuit";
    case IntersectKernel::kGallop:
      return "gallop";
    case IntersectKernel::kBitset:
      return "bitset";
    case IntersectKernel::kAuto:
      return "auto";
  }
  ECLAT_UNREACHABLE("unknown IntersectKernel");
}

std::optional<IntersectKernel> kernel_from_name(std::string_view name) {
  if (name == "merge") return IntersectKernel::kMerge;
  if (name == "short-circuit") return IntersectKernel::kMergeShortCircuit;
  if (name == "gallop") return IntersectKernel::kGallop;
  if (name == "bitset") return IntersectKernel::kBitset;
  if (name == "auto") return IntersectKernel::kAuto;
  return std::nullopt;
}

std::span<const Tid> TidSet::tids() const {
  ECLAT_DCHECK(rep_ == TidRep::kSparse);
  return tids_;
}

const BitsetTidList& TidSet::bits() const {
  ECLAT_DCHECK(rep_ == TidRep::kDense);
  return bits_;
}

void TidSet::assign_sparse(std::span<const Tid> tids) {
  ECLAT_DCHECK(is_valid_tidlist(tids));
  tids_.assign(tids.begin(), tids.end());
  rep_ = TidRep::kSparse;
}

void TidSet::assign_dense(std::span<const Tid> tids, Tid universe) {
  bits_.assign(tids, universe);
  rep_ = TidRep::kDense;
}

void TidSet::release() {
  tids_ = TidList();
  bits_ = BitsetTidList();
  rep_ = TidRep::kSparse;
  last_conv_ = 0;
}

bool TidSet::prefers_dense(std::size_t size, Tid universe) {
  return size > 0 && (static_cast<std::uint64_t>(size) << 7) >= universe;
}

TidRep TidSet::preferred_rep(std::size_t size, Tid universe) {
  return prefers_dense(size, universe) ? TidRep::kDense : TidRep::kSparse;
}

void TidSet::set_rep(TidRep rep, IntersectStats* stats) {
  if (rep == rep_) return;
  const std::int8_t dir = rep > rep_ ? 1 : -1;
  if (stats != nullptr) {
    if (dir > 0) {
      ++stats->densified;
    } else {
      ++stats->sparsified;
    }
    if (last_conv_ != 0 && dir != last_conv_) ++stats->rep_flipflops;
  }
  last_conv_ = dir;
  rep_ = rep;
}

void TidSet::normalize(Tid universe, IntersectStats* stats) {
  const auto n = static_cast<std::size_t>(support());
  const TidRep target = preferred_rep(n, universe);
  if (target == rep_) return;
  if (target == TidRep::kSparse) {
    // Sparsify only past the stay band: 8x below the entry threshold.
    // Sparsifying costs a full decode pass of the bitmap, so it has to
    // be rare relative to the intersections it speeds up.
    if (n > 0 && (static_cast<std::uint64_t>(n) << 10) >= universe) {
      if (stats != nullptr) ++stats->hysteresis_holds;
      return;
    }
    tids_.clear();
    tids_.reserve(n);
    bits_.append_to(tids_);
  } else {
    bits_.assign(tids_, universe);
  }
  set_rep(target, stats);
}

void TidSet::append_to(TidList& out) const {
  if (rep_ == TidRep::kDense) {
    bits_.append_to(out);
  } else {
    out.insert(out.end(), tids_.begin(), tids_.end());
  }
}

TidList TidSet::to_tidlist() const {
  TidList out;
  out.reserve(support());
  append_to(out);
  return out;
}

void seed_tidset(std::span<const Tid> tids, Tid universe,
                 IntersectKernel kernel, TidSet& out,
                 IntersectStats* stats) {
  TidRep rep = TidRep::kSparse;
  if (kernel == IntersectKernel::kBitset) {
    rep = TidRep::kDense;
  } else if (kernel == IntersectKernel::kAuto) {
    rep = TidSet::preferred_rep(tids.size(), universe);
  }
  if (rep == TidRep::kDense) {
    out.bits_.assign(tids, universe);
  } else {
    out.tids_.assign(tids.begin(), tids.end());
  }
  out.rep_ = rep;
  out.last_conv_ = 0;
  if (stats != nullptr && rep != TidRep::kSparse) ++stats->densified;
}

bool intersect_into(const TidSet& a, const TidSet& b, Count minsup,
                    IntersectKernel kernel, Tid universe, TidSet& out,
                    IntersectStats* stats) {
  ECLAT_DCHECK(&out != &a && &out != &b);
  if (stats != nullptr) ++stats->intersections;
  std::size_t visited = 0;
  std::size_t* const vp = stats != nullptr ? &visited : nullptr;
  bool ok = false;
  switch (kernel) {
    case IntersectKernel::kMerge: {
      ECLAT_DCHECK(a.rep_ == TidRep::kSparse && b.rep_ == TidRep::kSparse);
      intersect_into(a.tids_, b.tids_, out.tids_, vp);
      out.rep_ = TidRep::kSparse;
      count_merge(stats, visited, false);
      return out.tids_.size() >= minsup;
    }
    case IntersectKernel::kMergeShortCircuit: {
      ECLAT_DCHECK(a.rep_ == TidRep::kSparse && b.rep_ == TidRep::kSparse);
      ok = intersect_short_circuit_into(a.tids_, b.tids_, minsup, out.tids_,
                                        vp);
      out.rep_ = TidRep::kSparse;
      count_merge(stats, visited, !ok);
      return ok;
    }
    case IntersectKernel::kGallop: {
      ECLAT_DCHECK(a.rep_ == TidRep::kSparse && b.rep_ == TidRep::kSparse);
      gallop_into_dispatch(a.tids_, b.tids_, out.tids_, vp, stats);
      out.rep_ = TidRep::kSparse;
      ok = out.tids_.size() >= minsup;
      if (stats != nullptr) {
        ++stats->gallop_calls;
        stats->tids_scanned += visited;
      }
      return ok;
    }
    case IntersectKernel::kBitset: {
      ECLAT_DCHECK(a.rep_ == TidRep::kDense && b.rep_ == TidRep::kDense);
      std::uint64_t words = 0;
      ok = out.bits_.assign_and_bounded(
          a.bits_, b.bits_, minsup, stats != nullptr ? &words : nullptr);
      out.rep_ = TidRep::kDense;
      count_simd_words(stats);
      if (stats != nullptr) {
        ++stats->bitset_calls;
        stats->words_scanned += words;
        if (!ok) ++stats->short_circuited;
      }
      return ok;
    }
    case IntersectKernel::kAuto:
      break;  // dispatched below
  }

  // kAuto: dispatch on the operands' representations, then normalize the
  // result's representation by the density thresholds (hysteretically).
  const bool a_dense = a.rep_ == TidRep::kDense;
  const bool b_dense = b.rep_ == TidRep::kDense;
  if (a_dense && b_dense) {
    std::uint64_t words = 0;
    ok = out.bits_.assign_and_bounded(a.bits_, b.bits_, minsup,
                                      stats != nullptr ? &words : nullptr);
    out.rep_ = TidRep::kDense;
    count_simd_words(stats);
    if (stats != nullptr) {
      ++stats->bitset_calls;
      stats->words_scanned += words;
      if (!ok) ++stats->short_circuited;
    }
  } else if (a_dense != b_dense) {
    // Exactly one sparse operand: flat-bitmap lookups are O(1), so probe
    // the dense side per sparse element.
    const TidSet& sparse = a_dense ? b : a;
    const TidSet& dense = a_dense ? a : b;
    ok = probe_into(sparse.tids_, dense.bits_, minsup, out.tids_, stats);
    out.rep_ = TidRep::kSparse;
  } else if (sparse_pair_skewed(a.tids_.size(), b.tids_.size())) {
    if (std::min(a.tids_.size(), b.tids_.size()) < minsup) {
      if (stats != nullptr) {
        ++stats->gallop_calls;
        ++stats->short_circuited;
      }
      return false;
    }
    gallop_into_dispatch(a.tids_, b.tids_, out.tids_, vp, stats);
    out.rep_ = TidRep::kSparse;
    ok = out.tids_.size() >= minsup;
    if (stats != nullptr) {
      ++stats->gallop_calls;
      stats->tids_scanned += visited;
    }
  } else if (minsup > 1) {
    ok = intersect_short_circuit_into(a.tids_, b.tids_, minsup, out.tids_,
                                      vp);
    out.rep_ = TidRep::kSparse;
    count_merge(stats, visited, !ok);
  } else {
    // The bound cannot fire at minsup <= 1: the plain merge, which
    // never counts as short-circuited.
    intersect_into(a.tids_, b.tids_, out.tids_, vp);
    out.rep_ = TidRep::kSparse;
    ok = out.tids_.size() >= minsup;
    count_merge(stats, visited, false);
  }
  if (ok) out.normalize(universe, stats);
  return ok;
}

std::optional<Count> intersect_support(const TidSet& a, const TidSet& b,
                                       Count minsup, IntersectKernel kernel,
                                       IntersectStats* stats) {
  if (stats != nullptr) {
    ++stats->intersections;
    ++stats->count_only;
  }
  std::size_t visited = 0;
  std::size_t* const vp = stats != nullptr ? &visited : nullptr;
  std::optional<Count> result;
  switch (kernel) {
    case IntersectKernel::kMerge: {
      ECLAT_DCHECK(a.rep_ == TidRep::kSparse && b.rep_ == TidRep::kSparse);
      // minsup 0 disarms the bound: a full scan, checked afterwards.
      const std::optional<Count> count =
          intersect_count_bounded(a.tids_, b.tids_, 0, vp);
      count_merge(stats, visited, false);
      return (count && *count >= minsup) ? count : std::nullopt;
    }
    case IntersectKernel::kMergeShortCircuit: {
      ECLAT_DCHECK(a.rep_ == TidRep::kSparse && b.rep_ == TidRep::kSparse);
      result = intersect_count_bounded(a.tids_, b.tids_, minsup, vp);
      count_merge(stats, visited, !result);
      return result;
    }
    case IntersectKernel::kGallop: {
      ECLAT_DCHECK(a.rep_ == TidRep::kSparse && b.rep_ == TidRep::kSparse);
      const Count count = gallop_count_dispatch(a.tids_, b.tids_, vp, stats);
      result = count >= minsup ? std::optional<Count>(count) : std::nullopt;
      if (stats != nullptr) {
        ++stats->gallop_calls;
        stats->tids_scanned += visited;
      }
      return result;
    }
    case IntersectKernel::kBitset: {
      ECLAT_DCHECK(a.rep_ == TidRep::kDense && b.rep_ == TidRep::kDense);
      std::uint64_t words = 0;
      const std::optional<std::size_t> count = BitsetTidList::and_count(
          a.bits_, b.bits_, minsup, stats != nullptr ? &words : nullptr);
      count_simd_words(stats);
      if (stats != nullptr) {
        ++stats->bitset_calls;
        stats->words_scanned += words;
        if (!count) ++stats->short_circuited;
      }
      if (!count) return std::nullopt;
      return static_cast<Count>(*count);
    }
    case IntersectKernel::kAuto:
      break;  // dispatched below
  }

  const bool a_dense = a.rep_ == TidRep::kDense;
  const bool b_dense = b.rep_ == TidRep::kDense;
  if (a_dense && b_dense) {
    std::uint64_t words = 0;
    const std::optional<std::size_t> count = BitsetTidList::and_count(
        a.bits_, b.bits_, minsup, stats != nullptr ? &words : nullptr);
    count_simd_words(stats);
    if (stats != nullptr) {
      ++stats->bitset_calls;
      stats->words_scanned += words;
      if (!count) ++stats->short_circuited;
    }
    if (!count) return std::nullopt;
    return static_cast<Count>(*count);
  }
  if (a_dense != b_dense) {
    return probe_count(a_dense ? b.tids_ : a.tids_,
                       a_dense ? a.bits_ : b.bits_, minsup, stats);
  }
  if (sparse_pair_skewed(a.tids_.size(), b.tids_.size())) {
    if (std::min(a.tids_.size(), b.tids_.size()) < minsup) {
      if (stats != nullptr) {
        ++stats->gallop_calls;
        ++stats->short_circuited;
      }
      return std::nullopt;
    }
    const Count count = gallop_count_dispatch(a.tids_, b.tids_, vp, stats);
    result = count >= minsup ? std::optional<Count>(count) : std::nullopt;
    if (stats != nullptr) {
      ++stats->gallop_calls;
      stats->tids_scanned += visited;
    }
    return result;
  }
  result = intersect_count_bounded(a.tids_, b.tids_, minsup, vp);
  count_merge(stats, visited, !result);
  return result;
}

bool difference_into(const TidSet& a, const TidSet& b, std::size_t budget,
                     IntersectKernel kernel, Tid universe, TidSet& out,
                     IntersectStats* stats) {
  ECLAT_DCHECK(&out != &a && &out != &b);
  std::size_t visited = 0;
  std::size_t* const vp = stats != nullptr ? &visited : nullptr;
  bool ok = false;
  switch (kernel) {
    case IntersectKernel::kMerge:
    case IntersectKernel::kMergeShortCircuit:
    case IntersectKernel::kGallop: {
      // The budget bound is dEclat's algorithmic pruning rule, not an
      // optional optimization, so every sparse kernel keeps it (galloping
      // has no difference analogue and falls back to the merge).
      ECLAT_DCHECK(a.rep_ == TidRep::kSparse && b.rep_ == TidRep::kSparse);
      ok = difference_bounded_into(a.tids_, b.tids_, budget, out.tids_, vp);
      out.rep_ = TidRep::kSparse;
      if (stats != nullptr) {
        ++stats->merge_calls;
        stats->tids_scanned += visited;
      }
      return ok;
    }
    case IntersectKernel::kBitset: {
      ECLAT_DCHECK(a.rep_ == TidRep::kDense && b.rep_ == TidRep::kDense);
      std::uint64_t words = 0;
      ok = out.bits_.assign_andnot_bounded(
          a.bits_, b.bits_, budget, stats != nullptr ? &words : nullptr);
      out.rep_ = TidRep::kDense;
      count_simd_words(stats);
      if (stats != nullptr) {
        ++stats->bitset_calls;
        stats->words_scanned += words;
      }
      return ok;
    }
    case IntersectKernel::kAuto:
      break;  // dispatched below
  }

  const TidRep ar = a.rep_;
  const TidRep br = b.rep_;
  if (ar == TidRep::kDense && br == TidRep::kDense) {
    std::uint64_t words = 0;
    ok = out.bits_.assign_andnot_bounded(a.bits_, b.bits_, budget,
                                         stats != nullptr ? &words : nullptr);
    out.rep_ = TidRep::kDense;
    count_simd_words(stats);
    if (stats != nullptr) {
      ++stats->bitset_calls;
      stats->words_scanned += words;
    }
  } else if (ar == TidRep::kSparse && br == TidRep::kDense) {
    ok = probe_minus_into(a.tids_, b.bits_, budget, out.tids_, stats);
    out.rep_ = TidRep::kSparse;
  } else if (ar == TidRep::kDense && br == TidRep::kSparse) {
    std::uint64_t words = 0;
    ok = out.bits_.assign_minus_sparse(a.bits_, b.tids_, budget,
                                       stats != nullptr ? &words : nullptr);
    out.rep_ = TidRep::kDense;
    if (stats != nullptr) {
      ++stats->probe_calls;
      stats->words_scanned += words;
      stats->tids_scanned += b.tids_.size();
    }
  } else {
    ok = difference_bounded_into(a.tids_, b.tids_, budget, out.tids_, vp);
    out.rep_ = TidRep::kSparse;
    if (stats != nullptr) {
      ++stats->merge_calls;
      stats->tids_scanned += visited;
    }
  }
  if (ok) out.normalize(universe, stats);
  return ok;
}

}  // namespace eclat
