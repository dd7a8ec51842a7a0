#include "pmem/manager.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <system_error>

namespace dnnd::pmem {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

Manager Manager::create(const std::string& path, std::size_t capacity) {
  if (capacity < sizeof(ArenaHeader) + 4096) {
    throw std::invalid_argument("Manager::create: capacity too small");
  }
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("Manager::create open(" + path + ")");
  if (::ftruncate(fd, static_cast<off_t>(capacity)) != 0) {
    ::close(fd);
    throw_errno("Manager::create ftruncate");
  }
  void* base = ::mmap(nullptr, capacity, PROT_READ | PROT_WRITE, MAP_SHARED,
                      fd, 0);
  if (base == MAP_FAILED) {
    ::close(fd);
    throw_errno("Manager::create mmap");
  }
  arena_format(static_cast<ArenaHeader*>(base), capacity);
  return Manager(path, base, capacity, fd);
}

Manager Manager::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) throw_errno("Manager::open open(" + path + ")");
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw_errno("Manager::open fstat");
  }
  const auto bytes = static_cast<std::size_t>(st.st_size);
  void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    ::close(fd);
    throw_errno("Manager::open mmap");
  }
  if (!arena_validate(static_cast<const ArenaHeader*>(base), bytes)) {
    ::munmap(base, bytes);
    ::close(fd);
    throw std::runtime_error("Manager::open: not a dnnd datastore: " + path);
  }
  return Manager(path, base, bytes, fd);
}

Manager::Manager(Manager&& other) noexcept
    : path_(std::move(other.path_)),
      base_(other.base_),
      mapped_bytes_(other.mapped_bytes_),
      fd_(other.fd_) {
  other.base_ = nullptr;
  other.mapped_bytes_ = 0;
  other.fd_ = -1;
}

Manager& Manager::operator=(Manager&& other) noexcept {
  if (this == &other) return *this;
  close();
  path_ = std::move(other.path_);
  base_ = other.base_;
  mapped_bytes_ = other.mapped_bytes_;
  fd_ = other.fd_;
  other.base_ = nullptr;
  other.mapped_bytes_ = 0;
  other.fd_ = -1;
  return *this;
}

Manager::~Manager() { close(); }

void Manager::close() {
  if (base_ == nullptr) return;
  ::msync(base_, mapped_bytes_, MS_SYNC);
  ::munmap(base_, mapped_bytes_);
  ::close(fd_);
  base_ = nullptr;
  mapped_bytes_ = 0;
  fd_ = -1;
}

void Manager::flush() {
  if (base_ == nullptr) return;
  if (::msync(base_, mapped_bytes_, MS_SYNC) != 0) {
    throw_errno("Manager::flush msync");
  }
}

void Manager::seal() {
  if (base_ == nullptr) throw std::logic_error("Manager::seal: not open");
  ArenaHeader* hdr = header();
  const std::size_t used = hdr->bump;
  hdr->capacity = used;
  if (::msync(base_, mapped_bytes_, MS_SYNC) != 0) {
    throw_errno("Manager::seal msync");
  }
  if (::ftruncate(fd_, static_cast<off_t>(used)) != 0) {
    throw_errno("Manager::seal ftruncate");
  }
  if (::fdatasync(fd_) != 0) throw_errno("Manager::seal fdatasync");
}

void Manager::snapshot(const std::string& destination_path) {
  flush();
  std::ifstream src(path_, std::ios::binary);
  if (!src) throw std::runtime_error("Manager::snapshot: cannot read " + path_);
  std::ofstream dst(destination_path, std::ios::binary | std::ios::trunc);
  if (!dst) {
    throw std::runtime_error("Manager::snapshot: cannot write " +
                             destination_path);
  }
  dst << src.rdbuf();
  if (!dst.good()) {
    throw std::runtime_error("Manager::snapshot: copy failed");
  }
}

std::size_t Manager::allocated_bytes() const noexcept {
  return base_ == nullptr
             ? 0
             : static_cast<const ArenaHeader*>(base_)->allocated;
}

std::size_t Manager::capacity_bytes() const noexcept {
  return base_ == nullptr ? 0
                          : static_cast<const ArenaHeader*>(base_)->capacity;
}

ArenaStats Manager::stats() const noexcept {
  if (base_ == nullptr) return {};
  return arena_stats(static_cast<const ArenaHeader*>(base_));
}

void Manager::add_entry(std::string_view name, std::uint64_t type_hash,
                        void* object, std::size_t bytes) {
  if (name.size() >= NamedEntry::kMaxNameBytes) {
    throw std::invalid_argument("Manager: object name too long");
  }
  auto* entry =
      static_cast<NamedEntry*>(arena_allocate(header(), sizeof(NamedEntry)));
  if (entry == nullptr) throw ArenaExhausted();
  *entry = NamedEntry{};
  std::memcpy(entry->name, name.data(), name.size());
  entry->type_hash = type_hash;
  entry->object_offset = arena_offset_of(header(), object);
  entry->object_bytes = static_cast<std::uint32_t>(bytes);
  entry->next = header()->directory;
  header()->directory = arena_offset_of(header(), entry);
}

bool Manager::lookup(std::string_view name, std::uint64_t type_hash,
                     std::uint64_t& offset_out) const {
  auto* hdr = const_cast<Manager*>(this)->header();
  std::uint64_t cursor = hdr->directory;
  while (cursor != 0) {
    const auto* entry =
        static_cast<const NamedEntry*>(arena_pointer_at(hdr, cursor));
    if (name == entry->name) {
      if (entry->type_hash != type_hash) {
        throw std::runtime_error("Manager: type mismatch for object '" +
                                 std::string(name) + "'");
      }
      offset_out = entry->object_offset;
      return true;
    }
    cursor = entry->next;
  }
  return false;
}

bool Manager::remove_entry(std::string_view name, std::uint64_t type_hash,
                           std::uint64_t& offset_out) {
  std::uint64_t* link = &header()->directory;
  while (*link != 0) {
    auto* entry = static_cast<NamedEntry*>(arena_pointer_at(header(), *link));
    if (name == entry->name) {
      if (entry->type_hash != type_hash) {
        throw std::runtime_error("Manager: type mismatch for object '" +
                                 std::string(name) + "'");
      }
      offset_out = entry->object_offset;
      *link = entry->next;
      arena_deallocate(header(), entry, sizeof(NamedEntry));
      return true;
    }
    link = &entry->next;
  }
  return false;
}

bool Manager::contains(std::string_view name) const {
  auto* hdr = const_cast<Manager*>(this)->header();
  std::uint64_t cursor = hdr->directory;
  while (cursor != 0) {
    const auto* entry =
        static_cast<const NamedEntry*>(arena_pointer_at(hdr, cursor));
    if (name == entry->name) return true;
    cursor = entry->next;
  }
  return false;
}

}  // namespace dnnd::pmem
