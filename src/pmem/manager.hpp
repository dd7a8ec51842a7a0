// Datastore manager (the Metall substitution, DESIGN.md §2).
//
// A Manager owns one file-backed mmap(2) region formatted as a pmem arena
// and exposes Metall's essential API surface:
//
//   Manager::create(path, capacity)     fresh datastore
//   Manager::open(path)                 reopen an existing one (read/write)
//   find_or_construct<T>(name, args...) named root objects
//   find<T>(name) / destroy<T>(name)
//   snapshot(path)                      point-in-time copy
//   seal()                              trim the file to the arena's used
//                                       bytes (write-once datastores)
//
// This is what lets DNND split work across executables exactly as the
// paper does: the construction program builds the k-NNG into a datastore,
// closes it, and the separate optimization and query programs reopen it
// (§5.1.3 "There are two DNND execution files...").
//
// Objects stored in the datastore must be *position independent*: use
// pmem::offset_ptr / pmem::vector / pmem::allocator members, never raw
// pointers. Type safety across executables is best-effort via a hash of
// the type name captured at construct time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "pmem/allocator.hpp"
#include "pmem/arena.hpp"

namespace dnnd::pmem {

/// Directory entry: a singly linked list node allocated inside the arena.
/// Names longer than kMaxNameBytes-1 are rejected.
struct NamedEntry {
  static constexpr std::size_t kMaxNameBytes = 96;
  char name[kMaxNameBytes] = {};
  std::uint64_t type_hash = 0;
  std::uint64_t object_offset = 0;
  std::uint32_t object_bytes = 0;
  std::uint32_t flags = 0;
  std::uint64_t next = 0;  ///< base-relative offset of next entry, 0 = end
};

class Manager {
 public:
  /// Creates (truncating any existing file) a datastore of `capacity` bytes.
  static Manager create(const std::string& path, std::size_t capacity);

  /// Opens an existing datastore read/write.
  /// Throws std::runtime_error if the file is missing or not a datastore.
  static Manager open(const std::string& path);

  Manager(Manager&& other) noexcept;
  Manager& operator=(Manager&& other) noexcept;
  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  /// Flushes dirty pages and unmaps. Implicit in the destructor.
  ~Manager();
  void close();

  [[nodiscard]] bool is_open() const noexcept { return base_ != nullptr; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] ArenaHeader* header() noexcept {
    return static_cast<ArenaHeader*>(base_);
  }

  /// Allocator handle bound to this datastore's arena.
  template <typename T>
  [[nodiscard]] allocator<T> get_allocator() noexcept {
    return allocator<T>(header());
  }

  /// Looks up `name`; constructs T(args...) in the arena if absent.
  /// Returns nullptr only if the arena is exhausted (lookup miss +
  /// allocation failure). Throws std::runtime_error on a type mismatch
  /// with a previously stored object of the same name.
  template <typename T, typename... Args>
  T* find_or_construct(std::string_view name, Args&&... args) {
    if (T* existing = find<T>(name)) return existing;
    void* storage = arena_allocate(header(), sizeof(T));
    if (storage == nullptr) return nullptr;
    T* object = new (storage) T(std::forward<Args>(args)...);
    add_entry(name, type_hash_of<T>(), object, sizeof(T));
    return object;
  }

  /// Returns the named object, or nullptr if absent.
  /// Throws std::runtime_error if the name exists with a different type.
  template <typename T>
  [[nodiscard]] T* find(std::string_view name) {
    std::uint64_t offset = 0;
    if (!lookup(name, type_hash_of<T>(), offset)) return nullptr;
    return static_cast<T*>(arena_pointer_at(header(), offset));
  }

  /// Destroys and deallocates the named object. Returns false if absent.
  template <typename T>
  bool destroy(std::string_view name) {
    std::uint64_t offset = 0;
    if (!remove_entry(name, type_hash_of<T>(), offset)) return false;
    T* object = static_cast<T*>(arena_pointer_at(header(), offset));
    object->~T();
    arena_deallocate(header(), object, sizeof(T));
    return true;
  }

  [[nodiscard]] bool contains(std::string_view name) const;

  /// msync(2) the mapping so the file reflects all stores.
  void flush();

  /// Shrinks the datastore to the bytes its arena has used: sets the
  /// header's capacity to the bump cursor, msyncs, truncates the file to
  /// that length, and fdatasyncs. Afterwards allocation only reuses freed
  /// blocks — anything needing fresh bytes fails as exhausted (nullptr /
  /// ArenaExhausted) instead of writing past EOF — and the file reopens
  /// through open() unchanged. Throws std::system_error on I/O failure.
  void seal();

  /// Point-in-time copy of the datastore to `destination_path` (the
  /// Metall snapshot feature). The manager stays open.
  void snapshot(const std::string& destination_path);

  /// Bytes currently allocated from the arena (diagnostics).
  [[nodiscard]] std::size_t allocated_bytes() const noexcept;
  [[nodiscard]] std::size_t capacity_bytes() const noexcept;
  /// Full byte accounting (live, high-water, bump) for the memory ledger
  /// and the capacity-projection report. Zeros when not open.
  [[nodiscard]] ArenaStats stats() const noexcept;

  template <typename T>
  static std::uint64_t type_hash_of() noexcept;

 private:
  Manager(std::string path, void* base, std::size_t mapped_bytes, int fd)
      : path_(std::move(path)), base_(base), mapped_bytes_(mapped_bytes), fd_(fd) {}

  void add_entry(std::string_view name, std::uint64_t type_hash, void* object,
                 std::size_t bytes);
  bool lookup(std::string_view name, std::uint64_t type_hash,
              std::uint64_t& offset_out) const;
  bool remove_entry(std::string_view name, std::uint64_t type_hash,
                    std::uint64_t& offset_out);

  std::string path_;
  void* base_ = nullptr;
  std::size_t mapped_bytes_ = 0;
  int fd_ = -1;
};

template <typename T>
std::uint64_t Manager::type_hash_of() noexcept {
  // __PRETTY_FUNCTION__ embeds T's name; hashing it gives a stable
  // per-type id within one compiler. Cross-compiler datastore exchange is
  // out of scope (as it is for Metall).
  constexpr std::string_view signature = __PRETTY_FUNCTION__;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : signature) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace dnnd::pmem
