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

/// The representation seed_tidset gives a list of `size` tids: sparse
/// under the paper's kernels, threshold-chosen under kAuto.
TidRep seed_rep(std::size_t size, Tid universe, IntersectKernel kernel) {
  return kernel == IntersectKernel::kAuto
             ? TidSet::preferred_rep(size, universe)
             : TidRep::kSparse;
}

std::optional<Count> at_least(std::size_t count, Count minsup) {
  if (count < minsup) return std::nullopt;
  return count;
}

/// dense ∩ dense: the blocked word-AND under its support bound.
std::optional<Count> and_join(const BitsetTidList& a, const BitsetTidList& b,
                              Count minsup, BitsetTidList* out,
                              IntersectStats* stats) {
  std::uint64_t words = 0;
  const std::optional<std::size_t> count = BitsetTidList::and_bounded(
      a, b, minsup, out, stats != nullptr ? &words : nullptr);
  count_simd_words(stats);
  if (stats != nullptr) {
    ++stats->bitset_calls;
    stats->words_scanned += words;
  }
  if (!count) return std::nullopt;
  return *count;
}

/// sparse ∩ dense by probing the flat bitmap per sparse element (O(1)
/// per lookup), with the support bound |result| <= matched + sparse
/// elements remaining.
std::optional<Count> probe(std::span<const Tid> sparse,
                           const BitsetTidList& dense, Count minsup,
                           TidList* out, IntersectStats* stats) {
  if (stats != nullptr) ++stats->probe_calls;
  if (std::min<std::size_t>(sparse.size(), dense.count()) < minsup) {
    return std::nullopt;
  }
  const std::size_t n = sparse.size();
  // Every probed tid is stored at out[count] and kept only on a hit, as
  // the merge kernel writes; shrunk to the result below.
  Tid* dst = nullptr;
  if (out != nullptr) {
    out->resize(n);
    dst = out->data();
  }
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i < n && count + (n - i) >= minsup; ++i) {
    if (dst != nullptr) dst[count] = sparse[i];
    count += static_cast<std::size_t>(dense.test(sparse[i]));
  }
  if (out != nullptr) out->resize(count);
  if (stats != nullptr) stats->tids_scanned += i;
  if (i < n) return std::nullopt;
  return at_least(count, minsup);
}

/// sparse ∩ sparse at kGallopSkew or more: each element of the shorter
/// list is searched in the longer one by the dispatched gallop kernel.
std::optional<Count> gallop(std::span<const Tid> a, std::span<const Tid> b,
                            Count minsup, TidList* out,
                            IntersectStats* stats) {
  const std::span<const Tid> small = a.size() <= b.size() ? a : b;
  const std::span<const Tid> large = a.size() <= b.size() ? b : a;
  if (stats != nullptr) ++stats->gallop_calls;
  if (small.size() < minsup) return std::nullopt;
  if (out != nullptr) out->resize(small.size());
  std::size_t visited = 0;
  const std::size_t count = simd::kernels().gallop_u32(
      small.data(), small.size(), large.data(), large.size(),
      out != nullptr ? out->data() : nullptr,
      stats != nullptr ? &visited : nullptr);
  if (out != nullptr) out->resize(count);
  count_simd_sparse(stats);
  if (stats != nullptr) stats->tids_scanned += visited;
  return at_least(count, minsup);
}

/// sparse ∩ sparse through the dispatched merge_u32 kernel: the §5.3
/// short-circuited merge when `bounded`, else the plain merge, which
/// scans both lists in full.
std::optional<Count> merge(std::span<const Tid> a, std::span<const Tid> b,
                           Count minsup, bool bounded, TidList* out,
                           IntersectStats* stats) {
  std::size_t visited = 0;
  std::optional<Count> support =
      merge_bounded(a, b, bounded ? minsup : 0, out,
                    stats != nullptr ? &visited : nullptr);
  if (!bounded) support = at_least(*support, minsup);
  if (stats != nullptr) {
    ++stats->merge_calls;
    stats->tids_scanned += visited;
  }
  count_simd_sparse(stats);
  return support;
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
    case IntersectKernel::kAuto:
      return "auto";
  }
  ECLAT_UNREACHABLE("unknown IntersectKernel");
}

std::optional<IntersectKernel> kernel_from_name(std::string_view name) {
  if (name == "merge") return IntersectKernel::kMerge;
  if (name == "short-circuit") return IntersectKernel::kMergeShortCircuit;
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
  const TidRep rep = seed_rep(tids.size(), universe, kernel);
  if (rep == TidRep::kDense) {
    out.bits_.assign(tids, universe);
  } else {
    out.tids_.assign(tids.begin(), tids.end());
  }
  out.rep_ = rep;
  out.last_conv_ = 0;
  if (stats != nullptr && rep != TidRep::kSparse) ++stats->densified;
}

void seed_tidset(TidList&& tids, Tid universe, IntersectKernel kernel,
                 TidSet& out, IntersectStats* stats) {
  TidList taken = std::move(tids);
  if (seed_rep(taken.size(), universe, kernel) == TidRep::kDense) {
    seed_tidset(std::span<const Tid>(taken), universe, kernel, out, stats);
    return;
  }
  out.tids_ = std::move(taken);
  out.rep_ = TidRep::kSparse;
  out.last_conv_ = 0;
}

std::optional<Count> intersect(const TidSet& a, const TidSet& b, Count minsup,
                               IntersectKernel kernel, Tid universe,
                               TidSet* out, IntersectStats* stats) {
  ECLAT_DCHECK(out != &a && out != &b);
  // The paper's kernels seed every list sparse and never normalize, so
  // only kAuto meets a dense operand.
  ECLAT_DCHECK(kernel == IntersectKernel::kAuto ||
               (a.rep_ == TidRep::kSparse && b.rep_ == TidRep::kSparse));
  if (stats != nullptr) {
    ++stats->intersections;
    if (out == nullptr) ++stats->count_only;
  }
  TidList* const tids = out != nullptr ? &out->tids_ : nullptr;
  const bool a_dense = a.rep_ == TidRep::kDense;
  const bool b_dense = b.rep_ == TidRep::kDense;
  std::optional<Count> support;
  if (a_dense && b_dense) {
    support = and_join(a.bits_, b.bits_, minsup,
                       out != nullptr ? &out->bits_ : nullptr, stats);
  } else if (a_dense != b_dense) {
    // Exactly one sparse operand: flat-bitmap lookups are O(1), so probe
    // the dense side per sparse element.
    support = probe(a_dense ? b.tids_ : a.tids_, a_dense ? a.bits_ : b.bits_,
                    minsup, tids, stats);
  } else if (kernel == IntersectKernel::kAuto &&
             sparse_pair_skewed(a.tids_.size(), b.tids_.size())) {
    support = gallop(a.tids_, b.tids_, minsup, tids, stats);
  } else {
    support = merge(a.tids_, b.tids_, minsup,
                    kernel != IntersectKernel::kMerge, tids, stats);
  }
  if (stats != nullptr && !support && kernel != IntersectKernel::kMerge) {
    ++stats->short_circuited;
  }
  if (out != nullptr) {
    out->rep_ = a_dense && b_dense ? TidRep::kDense : TidRep::kSparse;
    if (support && kernel == IntersectKernel::kAuto) {
      out->normalize(universe, stats);
    }
  }
  return support;
}

bool difference_into(const TidSet& a, const TidSet& b, std::size_t budget,
                     IntersectKernel kernel, Tid universe, TidSet& out,
                     IntersectStats* stats) {
  ECLAT_DCHECK(&out != &a && &out != &b);
  ECLAT_DCHECK(kernel == IntersectKernel::kAuto ||
               (a.rep_ == TidRep::kSparse && b.rep_ == TidRep::kSparse));
  if (stats != nullptr) ++stats->intersections;
  std::uint64_t words = 0;
  std::uint64_t* const wp = stats != nullptr ? &words : nullptr;
  const bool a_dense = a.rep_ == TidRep::kDense;
  const bool b_dense = b.rep_ == TidRep::kDense;
  bool ok = false;
  if (a_dense && b_dense) {
    ok = out.bits_.assign_andnot_bounded(a.bits_, b.bits_, budget, wp);
    out.rep_ = TidRep::kDense;
    count_simd_words(stats);
    if (stats != nullptr) {
      ++stats->bitset_calls;
      stats->words_scanned += words;
    }
  } else if (b_dense) {
    ok = probe_minus_into(a.tids_, b.bits_, budget, out.tids_, stats);
    out.rep_ = TidRep::kSparse;
  } else if (a_dense) {
    ok = out.bits_.assign_minus_sparse(a.bits_, b.tids_, budget, wp);
    out.rep_ = TidRep::kDense;
    if (stats != nullptr) {
      ++stats->probe_calls;
      stats->words_scanned += words;
      stats->tids_scanned += b.tids_.size();
    }
  } else {
    // The budget bound is dEclat's algorithmic pruning rule, not an
    // optional optimization, so every kernel keeps it.
    std::size_t visited = 0;
    ok = difference_bounded_into(a.tids_, b.tids_, budget, out.tids_,
                                 stats != nullptr ? &visited : nullptr);
    out.rep_ = TidRep::kSparse;
    if (stats != nullptr) {
      ++stats->merge_calls;
      stats->tids_scanned += visited;
    }
  }
  if (!ok) {
    if (stats != nullptr) ++stats->short_circuited;
    return false;
  }
  if (kernel == IntersectKernel::kAuto) out.normalize(universe, stats);
  return true;
}

}  // namespace eclat
