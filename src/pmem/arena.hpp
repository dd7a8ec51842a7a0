// Persistent arena: allocation state that lives inside the mapped file.
//
// Layout of a datastore file:
//
//   offset 0                 ArenaHeader (magic, capacity, bump cursor,
//                            segregated free lists, directory head)
//   sizeof(ArenaHeader)...   allocated blocks
//
// Every link in the arena (free-list next pointers, directory entries) is a
// *base-relative* byte offset, never a raw pointer, so a reopened mapping
// at any address is immediately usable.
//
// Allocation policy: segregated free lists over power-of-two size classes
// (16 B .. capacity), first-fit within a class, bump allocation when the
// class list is empty. Freed blocks return to their class list. There is no
// coalescing; the workloads this heap serves (append-heavy graph
// construction followed by read-only queries) do not fragment.
//
// Thread safety: none — one datastore belongs to one rank, matching the
// paper's one-Metall-store-per-process usage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace dnnd::pmem {

inline constexpr std::uint64_t kArenaMagic = 0x444e4e445f504d00ULL;  // "DNND_PM\0"
// Version 2 added the high_water field (shifting directory/free_lists);
// validation rejects version-1 files rather than misreading them.
inline constexpr std::uint32_t kArenaVersion = 2;
inline constexpr std::size_t kMinBlockBytes = 16;
inline constexpr std::size_t kNumSizeClasses = 44;  // 16 B .. 2^47 B

/// Lives at offset 0 of the mapped file. Trivially copyable on purpose:
/// the file *is* the object.
struct ArenaHeader {
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t reserved = 0;
  /// Bytes the arena may hand out, never more than the file's size: the
  /// create()-time reservation, or — once Manager::seal() has trimmed a
  /// write-once datastore — exactly `bump`, which is then the file size.
  std::uint64_t capacity = 0;
  std::uint64_t bump = 0;         ///< next never-allocated byte (base-relative)
  std::uint64_t allocated = 0;    ///< live bytes (diagnostics)
  std::uint64_t high_water = 0;   ///< max of `allocated` over the file's life
  std::uint64_t directory = 0;    ///< offset of first NamedEntry, 0 = none
  std::uint64_t free_lists[kNumSizeClasses] = {};  ///< head offsets, 0 = empty
};

static_assert(std::is_trivially_copyable_v<ArenaHeader>);

/// Rounds a request up to its size class; returns the class index.
std::size_t size_class_of(std::size_t bytes) noexcept;

/// Block size of a size class.
std::size_t size_class_bytes(std::size_t klass) noexcept;

/// Initializes a fresh header for a mapping of `capacity` bytes.
void arena_format(ArenaHeader* header, std::size_t capacity);

/// Validates magic/version/capacity of an existing mapping.
/// Returns false if the bytes are not a DNND datastore.
bool arena_validate(const ArenaHeader* header, std::size_t mapped_bytes) noexcept;

/// Allocates `bytes` (rounded to a size class). Returns nullptr when the
/// arena is exhausted. Alignment: all blocks are 16-byte aligned.
void* arena_allocate(ArenaHeader* header, std::size_t bytes);

/// Returns a block obtained from arena_allocate(header, bytes).
void arena_deallocate(ArenaHeader* header, void* ptr, std::size_t bytes) noexcept;

/// Point-in-time byte accounting of an arena, for the memory ledger and
/// capacity planning.
struct ArenaStats {
  std::uint64_t capacity_bytes = 0;
  std::uint64_t allocated_bytes = 0;   ///< live block bytes right now
  std::uint64_t high_water_bytes = 0;  ///< lifetime max of allocated_bytes
  std::uint64_t bump_bytes = 0;        ///< bytes ever touched (no reuse)
};

/// Reads the header's accounting. Defensive against torn header writes
/// (a crash between the `allocated` and `high_water` stores): the
/// reported high water is clamped to at least the live allocation, so
/// the invariant high_water >= allocated holds for every reader even
/// when the persisted field lags.
ArenaStats arena_stats(const ArenaHeader* header) noexcept;

/// Base-relative offset of an in-arena pointer (diagnostics, directory).
std::uint64_t arena_offset_of(const ArenaHeader* header, const void* ptr) noexcept;

/// Pointer for a base-relative offset.
void* arena_pointer_at(ArenaHeader* header, std::uint64_t offset) noexcept;

}  // namespace dnnd::pmem
