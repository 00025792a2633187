// On-disk formats for horizontal databases.
//
// Binary format (one file per database or per partition):
//   magic "ECLATHDB"           8 bytes
//   version                    u32
//   num_items                  u32
//   num_transactions           u64
//   repeated per transaction:
//     tid                      u32, strictly increasing, < 0xFFFFFFFF
//     item_count               u32
//     items                    item_count * u32, strictly increasing
//
// Text format (for interoperability with SPMF/Borgelt-style tools): one
// transaction per line, items as whitespace-separated decimal integers.
// Lines holding no item are skipped, and tids number the other lines
// 0..n-1 in order.
#pragma once

#include <iosfwd>
#include <string>

#include "data/horizontal.hpp"

namespace eclat {

/// Serialize `db` to `stream` in the binary format above.
void write_binary(const HorizontalDatabase& db, std::ostream& stream);

/// Parse a database from the binary format in one pass over fixed-size
/// chunks, checking every row once; throws std::runtime_error on a
/// malformed stream, including tids out of order or out of range. Header
/// counts never size an allocation: a stream that can seek is measured
/// first, and one that claims more transactions than its bytes can hold
/// throws before anything is allocated. Bytes after the last declared
/// transaction are ignored.
HorizontalDatabase read_binary(std::istream& stream);

void write_binary_file(const HorizontalDatabase& db, const std::string& path);
HorizontalDatabase read_binary_file(const std::string& path);

/// One transaction per line, space-separated item ids.
void write_text(const HorizontalDatabase& db, std::ostream& stream);

/// Parse the text format. Items on a line are sorted and deduplicated;
/// `num_items` is inferred as max item id + 1 unless a larger floor is given.
/// A token that is not a decimal below 0xFFFFFFFF throws std::runtime_error
/// naming its 1-based line.
HorizontalDatabase read_text(std::istream& stream, Item min_num_items = 0);

void write_text_file(const HorizontalDatabase& db, const std::string& path);
HorizontalDatabase read_text_file(const std::string& path,
                                  Item min_num_items = 0);

}  // namespace eclat
