// Binary serialization for inter-rank messages.
//
// Every remote call in the communicator serializes its arguments into a
// flat byte buffer. This is what a real MPI transport would put on the
// wire, and it is what makes the paper's Figure-4 byte counts meaningful:
// message volume is measured as serialized bytes, not as sizeof() of
// in-memory structs.
//
// Wire format: little-endian fixed-width primitives; sequence lengths as
// LEB128 varints (so a k=10 neighbor list doesn't pay 8 bytes per count).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace dnnd::serial {

/// Thrown when an InArchive runs out of bytes or a varint is malformed.
class ArchiveError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends an unsigned LEB128 varint to `out`.
void write_varint(std::vector<std::byte>& out, std::uint64_t value);

/// Reads an unsigned LEB128 varint from [cursor, end); advances cursor.
std::uint64_t read_varint(const std::byte*& cursor, const std::byte* end);

class OutArchive;
class InArchive;

/// A type is wire-trivial if its object representation can be memcpy'd.
/// Pointers are deliberately excluded: they never survive rank boundaries.
template <typename T>
concept WireTrivial = std::is_trivially_copyable_v<T> &&
                      !std::is_pointer_v<std::remove_cvref_t<T>>;

/// Growable output buffer with typed append operations.
class OutArchive {
 public:
  OutArchive() = default;

  /// Reserve to avoid regrowth when the caller knows the payload size.
  void reserve(std::size_t bytes) { buffer_.reserve(bytes); }

  template <WireTrivial T>
  void write(const T& value) {
    const auto* src = reinterpret_cast<const std::byte*>(&value);
    buffer_.insert(buffer_.end(), src, src + sizeof(T));
  }

  void write_bytes(std::span<const std::byte> bytes) {
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  }

  void write_size(std::uint64_t n) { write_varint(buffer_, n); }

  template <WireTrivial T>
  void write_span(std::span<const T> values) {
    write_size(values.size());
    write_bytes(std::as_bytes(values));
  }

  template <WireTrivial T>
  void write_vector(const std::vector<T>& values) {
    write_span(std::span<const T>(values));
  }

  void write_string(std::string_view s) {
    write_size(s.size());
    const auto* src = reinterpret_cast<const std::byte*>(s.data());
    buffer_.insert(buffer_.end(), src, src + s.size());
  }

  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return buffer_;
  }
  [[nodiscard]] std::vector<std::byte> release() noexcept {
    return std::move(buffer_);
  }
  void clear() noexcept { buffer_.clear(); }

 private:
  std::vector<std::byte> buffer_;
};

/// Non-owning reader over a serialized buffer.
class InArchive {
 public:
  explicit InArchive(std::span<const std::byte> bytes)
      : cursor_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  template <WireTrivial T>
  T read() {
    require(sizeof(T));
    T value;
    std::memcpy(&value, cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return value;
  }

  std::uint64_t read_size() { return read_varint(cursor_, end_); }

  template <WireTrivial T>
  std::vector<T> read_vector() {
    const std::uint64_t n = read_size();
    require_elements<T>(n);
    std::vector<T> values(n);
    // An empty vector's data() may be null, and memcpy to null is UB.
    if (n != 0) std::memcpy(values.data(), cursor_, n * sizeof(T));
    cursor_ += n * sizeof(T);
    return values;
  }

  /// Reads a serialized span into `scratch` (resized to fit, capacity
  /// reused across calls — the allocation-free hot path for handlers that
  /// deserialize one feature vector per message).
  template <WireTrivial T>
  void read_into(std::vector<T>& scratch) {
    const std::uint64_t n = read_size();
    require_elements<T>(n);
    scratch.resize(n);
    if (n != 0) std::memcpy(scratch.data(), cursor_, n * sizeof(T));
    cursor_ += n * sizeof(T);
  }

  std::string read_string() {
    const std::uint64_t n = read_size();
    require(n);
    std::string s(reinterpret_cast<const char*>(cursor_), n);
    cursor_ += n;
    return s;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - cursor_);
  }
  [[nodiscard]] bool empty() const noexcept { return cursor_ == end_; }

 private:
  void require(std::uint64_t bytes) const {
    if (bytes > static_cast<std::uint64_t>(end_ - cursor_)) {
      throw ArchiveError("archive underflow");
    }
  }

  /// require() for `n` elements of T. Divides instead of multiplying, so
  /// a malformed length cannot wrap n * sizeof(T) to a small byte count.
  template <typename T>
  void require_elements(std::uint64_t n) const {
    if (n > remaining() / sizeof(T)) throw ArchiveError("archive underflow");
  }

  const std::byte* cursor_;
  const std::byte* end_;
};

// ---- Generic pack/unpack over argument lists -------------------------------
//
// The communicator serializes handler arguments with pack(); handlers get
// them back with unpack<Args...>(). Supported argument types: WireTrivial
// values, std::vector<WireTrivial>, and std::string.

namespace detail {

template <typename T>
struct Codec;

template <WireTrivial T>
struct Codec<T> {
  static void encode(OutArchive& ar, const T& v) { ar.write(v); }
  static T decode(InArchive& ar) { return ar.template read<T>(); }
};

template <WireTrivial T>
struct Codec<std::vector<T>> {
  static void encode(OutArchive& ar, const std::vector<T>& v) {
    ar.write_vector(v);
  }
  static std::vector<T> decode(InArchive& ar) {
    return ar.template read_vector<T>();
  }
};

template <>
struct Codec<std::string> {
  static void encode(OutArchive& ar, const std::string& v) {
    ar.write_string(v);
  }
  static std::string decode(InArchive& ar) { return ar.read_string(); }
};

}  // namespace detail

template <typename... Args>
void pack(OutArchive& ar, const Args&... args) {
  (detail::Codec<std::remove_cvref_t<Args>>::encode(ar, args), ...);
}

template <typename... Args>
std::tuple<Args...> unpack(InArchive& ar) {
  // Braced init-list guarantees left-to-right evaluation of the decodes.
  return std::tuple<Args...>{
      detail::Codec<std::remove_cvref_t<Args>>::decode(ar)...};
}

}  // namespace dnnd::serial
