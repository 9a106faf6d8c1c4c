// The byte-level wire format shared by snapshots and draw logs: explicit
// little-endian integers, doubles as IEEE-754 bit patterns, every read
// bounds-checked.
//
// Two rules make the persist layer safe to point at arbitrary bytes:
//
//   * Nothing is ever memcpy'd into a struct — every field is assembled
//     byte by byte, so layout, padding, and endianness are pinned by this
//     file, not by the compiler, and no read is ever misaligned (the
//     ASan/UBSan corruption-fuzz tests exercise every truncation offset).
//   * A ByteReader knows which domain it is deserializing for (snapshot or
//     draw log) and throws that domain's typed corruption error on any
//     overrun — a short buffer can surface only as CorruptSnapshotError /
//     CorruptLogError, never as UB.
//
// Doubles round-trip through std::bit_cast to uint64: bit-exact for every
// value including -0.0, subnormals, and NaN payloads — value-level
// serialization could canonicalize them, and the restore contract needs
// every fitness value back bit for bit.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace lrb::persist {

/// Appends fixed-width fields to a growing byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Adopts `buf` and appends after its existing bytes — a caller that
  /// keeps one buffer across records moves it in and take()s it back, so a
  /// warm buffer encodes without reallocating.
  explicit ByteWriter(std::vector<std::uint8_t> buf) noexcept
      : buf_(std::move(buf)) {}

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u32(std::uint32_t v) { put_le<4>(v); }

  void u64(std::uint64_t v) { put_le<8>(v); }

  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buf_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  /// The low N bytes of `v`, least significant first, in one insert.
  template <int N>
  void put_le(std::uint64_t v) {
    std::uint8_t b[N];
    for (int i = 0; i < N; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    buf_.insert(buf_.end(), b, b + N);
  }

  std::vector<std::uint8_t> buf_;
};

/// Which typed corruption error a ByteReader overrun surfaces as.
enum class WireDomain { kSnapshot, kLog };

/// Bounds-checked sequential reads over a borrowed byte span.
class ByteReader {
 public:
  ByteReader(std::span<const std::uint8_t> data, WireDomain domain,
             std::string context)
      : data_(data), domain_(domain), context_(std::move(context)) {}

  [[nodiscard]] std::uint8_t u8(const char* field) {
    need(1, field);
    return data_[pos_++];
  }

  [[nodiscard]] std::uint32_t u32(const char* field) {
    need(4, field);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_ + i]} << (8 * i);
    pos_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t u64(const char* field) {
    need(8, field);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_ + i]} << (8 * i);
    pos_ += 8;
    return v;
  }

  [[nodiscard]] double f64(const char* field) {
    return std::bit_cast<double>(u64(field));
  }

  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t len,
                                                    const char* field) {
    need(len, field);
    const auto out = data_.subspan(pos_, len);
    pos_ += len;
    return out;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

  /// True when every byte has been consumed — decoders call this to reject
  /// payloads with trailing garbage.
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }

  /// Throws this reader's domain error — decoders use it for semantic
  /// failures (bad magic, impossible counts) so every corruption path
  /// funnels through one typed surface.
  [[noreturn]] void fail(const std::string& why) const {
    const std::string what =
        context_ + ": " + why + " (offset " + std::to_string(pos_) + " of " +
        std::to_string(data_.size()) + " bytes)";
    if (domain_ == WireDomain::kSnapshot) throw CorruptSnapshotError(what);
    throw CorruptLogError(what);
  }

 private:
  void need(std::size_t n, const char* field) const {
    if (remaining() < n) [[unlikely]] {
      fail(std::string("truncated while reading ") + field);
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  WireDomain domain_;
  std::string context_;
};

}  // namespace lrb::persist
