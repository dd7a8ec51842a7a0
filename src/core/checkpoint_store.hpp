// Crash-consistent checkpoint directory (generations + CRC manifest).
//
// The per-iteration checkpoints that make crash-stop recovery possible
// (dnnd_checkpoint.hpp) must themselves survive a crash *during* a save —
// otherwise checkpointing converts "lost progress" into "corrupted only
// copy". The store provides that guarantee with a classic
// generation-directory scheme:
//
//   <dir>/gen-<G>.dat      one pmem datastore per checkpoint generation,
//                          written to completion and sealed before it is
//                          mentioned anywhere else: the file is exactly as
//                          long as the arena bytes it uses (header capacity
//                          == bump == file size), so the commit CRC reads
//                          only written bytes, not the reservation's holes
//   <dir>/MANIFEST.json    dnnd.checkpoint.v1 — the list of committed
//                          generations (newest last), each with the file's
//                          byte count and CRC-32; published atomically via
//                          write-to-temp + rename(2)
//
// Invariants:
//   * a generation file is immutable once committed;
//   * the manifest only ever references fully written, CRC-stamped files;
//   * rename(2) makes manifest publication atomic, so a crash at any
//     instant leaves either the old manifest or the new one, never a torn
//     mix;
//   * open_latest() re-validates the CRC of the newest generation and
//     walks backwards past torn/bit-flipped/truncated files, so a corrupt
//     newest generation rolls back to the last good one instead of being
//     loaded.
//
// The two newest committed generations are kept (kKeepGenerations);
// older files are pruned at commit time.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "telemetry/memory.hpp"

namespace dnnd::core {

/// One committed checkpoint generation as recorded in the manifest.
struct GenerationInfo {
  std::uint64_t generation = 0;
  std::string file;  ///< filename relative to the store directory
  std::uint64_t bytes = 0;
  std::uint32_t crc32 = 0;
  /// NN-Descent iterations completed at the cut this generation captured.
  std::uint64_t iteration = 0;
  bool converged = false;
};

class CheckpointStore {
 public:
  /// Number of committed generations retained; older ones are pruned at
  /// commit. Two generations means a torn newest file always leaves a
  /// CRC-valid predecessor to roll back to.
  static constexpr std::size_t kKeepGenerations = 2;

  /// Opens (creating if needed) the checkpoint directory.
  explicit CheckpointStore(std::string directory);

  [[nodiscard]] const std::string& directory() const noexcept { return dir_; }

  /// The generation number a new checkpoint should stage under:
  /// newest committed + 1 (1 for an empty store).
  [[nodiscard]] std::uint64_t next_generation() const;

  /// Absolute path of generation `gen`'s datastore file. The caller writes
  /// the file to completion (e.g. via pmem::Manager) and then commit()s.
  [[nodiscard]] std::string generation_path(std::uint64_t gen) const;

  /// Commits a fully written generation file: stamps its byte count and
  /// CRC-32 into the manifest, publishes the manifest atomically, and
  /// prunes generations beyond kKeepGenerations. Throws std::runtime_error
  /// if the staged file is missing.
  GenerationInfo commit(std::uint64_t gen, std::uint64_t iteration,
                        bool converged);

  /// Newest committed generation whose file still matches its recorded
  /// size and CRC. Torn or corrupted generations are skipped (rolled
  /// back); returns nullopt when no valid generation exists.
  [[nodiscard]] std::optional<GenerationInfo> open_latest() const;

  /// All committed generations (oldest first) as recorded in the manifest;
  /// empty when there is no manifest. No CRC validation.
  [[nodiscard]] std::vector<GenerationInfo> generations() const;

  /// Validates `info`'s file on disk against its recorded size and CRC.
  [[nodiscard]] bool valid(const GenerationInfo& info) const;

  /// Charges the store's CRC staging buffer against a memory-ledger tag
  /// (mem.ckpt.staging when wired by the recovery harness).
  void set_mem_tag(telemetry::MemTag tag) { telemetry::retag(staging_, tag); }

 private:
  void write_manifest(const std::vector<GenerationInfo>& gens) const;
  /// Full-file streaming CRC-32 through the tagged staging buffer; also
  /// reports the byte count. Returns false when the file cannot be read.
  bool crc_of_file(const std::string& path, std::uint32_t& crc_out,
                   std::uint64_t& bytes_out) const;

  std::string dir_;
  /// Reused read buffer for CRC validation — the store's only in-memory
  /// staging; lazily sized on first use, mutable because validation is
  /// logically const.
  mutable std::vector<char, telemetry::CountingAllocator<char>> staging_;
};

}  // namespace dnnd::core
