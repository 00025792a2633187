// External-memory vertical transformation (paper §7): the in-paper
// implementation inverts the database through memory-mapped regions sized
// for the whole vertical partition — its acknowledged weakness ("the one
// disadvantage of our algorithm is the virtual memory it requires...
// we are currently implementing an external memory transformation,
// keeping only small buffers in main memory"). This module is that
// external transformation.
//
// The pair set is split into groups whose tid-lists fit the memory
// budget (group sizes are known exactly from the 2-itemset counts). One
// horizontal scan per group collects only that group's tid-lists and
// appends them to the output file, so peak memory is bounded by the
// budget no matter how large the database is.
//
// On-disk format ("ECLATVDB"):
//   magic            8 bytes
//   num_pairs        u64
//   repeated: pair key u64, count u64, tids count*u32
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "data/horizontal.hpp"
#include "vertical/vertical_db.hpp"

namespace eclat {

struct ExternalTransformConfig {
  /// Peak bytes of tid-list storage held in memory at once. Must admit at
  /// least the largest single tid-list; the transform rounds up per group.
  std::size_t memory_budget = 4 << 20;
};

struct ExternalTransformStats {
  std::size_t passes = 0;            ///< horizontal scans performed
  std::size_t peak_memory_bytes = 0; ///< largest group actually held
  std::size_t pairs_written = 0;
  std::size_t tids_written = 0;
};

/// Invert `transactions` into the vertical format for exactly the pairs in
/// `pairs` (sorted and duplicate-free, with their known support counts,
/// used to plan the groups), in memory-budgeted passes, writing to `out`.
ExternalTransformStats external_transform(
    std::span<const Transaction> transactions,
    const std::vector<PairKey>& pairs, const std::vector<Count>& pair_counts,
    std::ostream& out, const ExternalTransformConfig& config = {});

ExternalTransformStats external_transform_file(
    std::span<const Transaction> transactions,
    const std::vector<PairKey>& pairs, const std::vector<Count>& pair_counts,
    const std::string& path, const ExternalTransformConfig& config = {});

/// Stream-read a vertical file produced by external_transform. Lists come
/// back in the order they were written (pair order).
std::vector<std::pair<PairKey, TidList>> read_vertical(std::istream& in);
std::vector<std::pair<PairKey, TidList>> read_vertical_file(
    const std::string& path);

}  // namespace eclat
