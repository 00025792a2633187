// Byte-level serialization helpers for payloads exchanged between simulated
// processors (tid-lists, itemsets, counts). Little-endian, fixed-width —
// all simulated processors share one address space, so no byte-swapping.
//
// The Reader treats its blob as untrusted input: every length prefix and
// every read is validated against the remaining bytes (overflow-safely)
// before any memcpy, and a malformed blob raises wire::Error instead of
// reading out of bounds. tests/test_wire_fuzz.cpp drives mutated and
// truncated blobs through it under ASan to keep that promise honest.
#pragma once

#include <cstdint>
#include <cstring>
#include <ranges>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.hpp"
#include "mc/cluster.hpp"

namespace eclat::wire {

/// Raised when a blob is too short or a length prefix is inconsistent with
/// the bytes that follow. Derives from std::runtime_error so pre-existing
/// callers catching that type keep working.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only writer over a growable byte buffer.
class Writer {
 public:
  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t offset = blob_.size();
    blob_.resize(offset + sizeof(T));
    // eclat-lint: allow(contract-memcpy) destination was resized to exactly offset + sizeof(T) on the preceding line
    std::memcpy(blob_.data() + offset, &value, sizeof(T));
  }

  template <std::ranges::contiguous_range Values>
  void put_vector(const Values& values) {
    using T = std::ranges::range_value_t<Values>;
    static_assert(std::is_trivially_copyable_v<T>);
    put<std::uint64_t>(values.size());
    if (values.empty()) return;  // data() may be null; memcpy(_, null, 0) is UB
    const std::size_t offset = blob_.size();
    blob_.resize(offset + values.size() * sizeof(T));
    // eclat-lint: allow(contract-memcpy) destination was resized to exactly offset + count bytes on the preceding line
    std::memcpy(blob_.data() + offset, values.data(),
                values.size() * sizeof(T));
  }

  mc::Blob take() { return std::move(blob_); }

  std::size_t size() const { return blob_.size(); }

 private:
  mc::Blob blob_;
};

/// Sequential reader over a received byte range; throws wire::Error on
/// underrun or on a length prefix that exceeds the remaining payload. Does
/// not own the bytes — the blob (or frame) must outlive the Reader.
class Reader {
 public:
  explicit Reader(const mc::Blob& blob) : blob_(blob.data(), blob.size()) {}
  explicit Reader(std::span<const std::uint8_t> bytes) : blob_(bytes) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (sizeof(T) > remaining()) {
      throw Error("wire payload underrun: need " +
                  std::to_string(sizeof(T)) + " bytes, have " +
                  std::to_string(remaining()));
    }
    T value;
    std::memcpy(&value, blob_.data() + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return value;
  }

  template <typename T>
  std::vector<T> get_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t count = get<std::uint64_t>();
    // Validate the untrusted count against the bytes actually present
    // before sizing anything: `count * sizeof(T)` may overflow, so compare
    // in the division domain instead.
    if (count > remaining() / sizeof(T)) {
      throw Error("wire vector length " + std::to_string(count) +
                  " exceeds remaining payload of " +
                  std::to_string(remaining()) + " bytes");
    }
    std::vector<T> values(static_cast<std::size_t>(count));
    if (count > 0) {
      std::memcpy(values.data(), blob_.data() + cursor_,
                  values.size() * sizeof(T));
    }
    cursor_ += values.size() * sizeof(T);
    return values;
  }

  /// Bytes not yet consumed.
  std::size_t remaining() const { return blob_.size() - cursor_; }

  bool done() const { return cursor_ == blob_.size(); }

 private:
  std::span<const std::uint8_t> blob_;
  std::size_t cursor_ = 0;
};

// --- CRC32-checked framing -------------------------------------------------
//
// Payloads that cross the simulated Memory Channel can be corrupted by the
// fault injector (bit flips, truncation), and retransmission after hub
// degradation or straggler re-execution can deliver the *same* frame more
// than once. A sealed frame carries enough redundancy to detect any
// mutation before a decoder touches the payload, plus a sender-assigned
// sequence number so receivers can suppress duplicate deliveries:
//
//   [magic u32] [seq u32] [payload length u64] [crc u32] [payload bytes]
//
// The CRC covers seq || payload, so a flipped sequence number is caught
// exactly like a flipped payload byte — a duplicate can't be smuggled past
// the ReplayFilter by corrupting its seq field.
//
// open_frame() is non-throwing by design: a CRC mismatch is an expected
// runtime event under fault injection (the receiver recovers via
// Processor::retransmit), not a programming error.

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `bytes`.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

/// Chaining form: continue a CRC computation across discontiguous spans.
/// `crc32(b)` == `crc32(b2, crc32(b1))` when b = b1 || b2.
std::uint32_t crc32(std::span<const std::uint8_t> bytes, std::uint32_t seed);

inline constexpr std::uint32_t kFrameMagic = 0x45434C54;  // "ECLT"
inline constexpr std::size_t kFrameHeaderBytes =
    sizeof(std::uint32_t) + sizeof(std::uint32_t) + sizeof(std::uint64_t) +
    sizeof(std::uint32_t);

/// Wrap a payload in a checksummed frame stamped with `seq`. Senders that
/// may retransmit (exchange redo rounds, speculative re-sends) stamp each
/// logical send attempt so receivers can drop duplicates; 0 is fine for
/// point payloads that are never replayed.
mc::Blob seal_frame(const mc::Blob& payload, std::uint32_t seq = 0);

/// Outcome of open_frame. On success `payload` views into the frame blob
/// (which must outlive it) and `seq` is the sender's sequence number; on
/// failure `error` says what was wrong.
struct FrameResult {
  bool ok = false;
  std::string error;
  std::uint32_t seq = 0;
  std::span<const std::uint8_t> payload;

  explicit operator bool() const { return ok; }
};

/// Validate a sealed frame: magic, declared length vs actual bytes, CRC
/// over seq || payload. Never throws; corrupted input (truncated, flipped,
/// foreign) yields ok == false with a diagnostic.
FrameResult open_frame(const mc::Blob& frame);

/// Per-receiver duplicate-delivery suppression. accept(src, seq) returns
/// true the first time a (sender, sequence) pair is seen and false on
/// every replay — the receiver processes a logical message exactly once
/// no matter how many times retransmission delivers it. Sized for the
/// simulator (a few senders, small bounded seq ranges), so it simply
/// remembers every accepted pair.
class ReplayFilter {
 public:
  bool accept(std::size_t src, std::uint32_t seq) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(src) << 32) | static_cast<std::uint64_t>(seq);
    return seen_.insert(key).second;
  }

  /// Pairs accepted so far.
  std::size_t size() const { return seen_.size(); }

 private:
  std::set<std::uint64_t> seen_;  // ordered: no hash-order iteration anywhere
};

}  // namespace eclat::wire
