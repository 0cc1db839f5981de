// Crash-safe profile snapshots.
//
// A profiling run that OOMs, segfaults, or gets killed after hours of
// execution used to yield nothing; with checkpointing every run leaves a
// loadable artifact. The snapshot captures everything the reporting and
// classification stages need — per-region direct matrices with labels and
// nesting structure, aggregate statistics, and the degradation provenance
// log — in a versioned text format with a CRC-32 trailer, written via
// support::write_file_atomic (temp file, fsync, rename) so a crash
// mid-checkpoint can never destroy the previous good snapshot. `commscope
// resume <snapshot>` finishes reporting and classification from one.
//
// Format ("commscope-checkpoint 1"):
//   commscope-checkpoint 1
//   threads <T> backend <signature|exact> slots <S>
//   meta events <N> state <partial|complete> reason <word>
//   stats <accesses> <reads> <writes> <dependencies>
//   degradations <K>
//     degradation <event_index> <mem_before> <mem_after>
//     reason <free text to end of line>
//     action <free text to end of line>            (x K)
//   regions <M>
//     region <id> <parent> <depth> <entries> <nnz>
//     label <free text to end of line>
//     cell <producer> <consumer> <bytes>           (x nnz, x M; preorder,
//                                                   parent id < id)
//   crc32 <8 hex digits over everything above>
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/comm_matrix.hpp"
#include "core/profiler.hpp"

namespace commscope::resilience {

/// Run provenance attached to every snapshot.
struct CheckpointMeta {
  std::uint64_t events = 0;  ///< the event index: always stats.accesses
  std::string state = "partial";   ///< "partial" | "complete"
  std::string reason = "periodic"; ///< periodic|final|signal:SIG*|watchdog|...
};

/// One region-tree node, flattened. Regions appear in preorder and every
/// parent index precedes its children, so aggregates fold bottom-up.
struct CheckpointRegion {
  int id = 0;
  int parent = -1;  ///< -1 for the root
  int depth = 0;
  std::uint64_t entries = 0;
  std::string label;
  core::Matrix direct;
};

/// A parsed snapshot.
struct Checkpoint {
  int threads = 0;
  std::string backend;  ///< "signature" | "exact"
  std::uint64_t slots = 0;
  CheckpointMeta meta;
  core::ProfileStats stats;
  std::vector<core::DegradationEvent> degradations;
  std::vector<CheckpointRegion> regions;

  /// Aggregate matrix of region `i` (its direct plus all descendants').
  [[nodiscard]] core::Matrix aggregate(std::size_t i) const;

  /// Whole-program matrix (the root's aggregate).
  [[nodiscard]] core::Matrix program() const;
};

/// Serializes the profiler's current state (CRC trailer included). Safe to
/// call concurrently with profiling threads: matrices are atomic snapshots
/// and tree traversal takes the per-node child locks; per-thread counters
/// are NOT read (the caller supplies the event counts via `meta` /
/// `stats_override`).
[[nodiscard]] std::string serialize_checkpoint(const core::Profiler& profiler,
                                               const CheckpointMeta& meta,
                                               const core::ProfileStats& stats);

/// Parses a snapshot; throws std::runtime_error on any malformation
/// (hostile-input hardened: capped counts, checked parsing, mandatory CRC).
[[nodiscard]] Checkpoint parse_checkpoint(std::istream& is);
[[nodiscard]] Checkpoint parse_checkpoint_text(std::string_view text);

/// Loads a snapshot file; throws std::runtime_error (with the path) when
/// unreadable or corrupt.
[[nodiscard]] Checkpoint load_checkpoint(const std::string& path);

}  // namespace commscope::resilience
