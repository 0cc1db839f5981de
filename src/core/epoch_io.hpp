// Epoch-timeline (de)serialization — the flight recorder's on-disk form.
//
// Format ("commscope-epochs <v>"), line-oriented like the matrix/checkpoint
// formats and protected by the same "crc32 <hex>" trailer:
//
//   commscope-epochs <1|2>
//   threads <n>
//   sealed <total> dropped <overwritten>
//   loops <count>
//   <count lines: "<id> <label...>">
//   epoch <index> first <a0> last <a1> deps <d> bytes <b> reason <r>
//         ... cells <k> loops <m>                           (version 1)
//         ... cells <k> loops <m> perf <present> <mux>
//             <cycles> <instructions> <llc-misses> <hitm>   (version 2)
//   <k lines: "<producer> <consumer> <bytes>">
//   <m lines: "<loop-id> <bytes>">
//   ... (one block per surviving epoch, oldest first)
//   crc32 <8 hex digits over everything above>
//
// Version 2 extends every epoch with its hardware counter delta: `present`
// is the PerfDelta field bitmask (0..15), `mux` flags multiplexing-scaled
// readings (0/1). The writer emits version 1 whenever no epoch carries a
// counter (present == 0 and mux unset everywhere), so counterless timelines
// stay byte-compatible with pre-counter readers; the reader accepts both
// versions.
//
// The per-epoch block (the "epoch ..." line plus its cell and loop-share
// lines) is exported on its own: the serve daemon's snapshot embeds the
// merged ring as the same blocks, under its own perf-block rule.
//
// The reader treats input as hostile (the loader contract shared by
// matrix_io / trace / checkpoint): every declared count is capped before
// allocation, every number parsed with checked conversion, and any deviation
// throws std::runtime_error.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "core/flight_recorder.hpp"
#include "support/textio.hpp"

namespace commscope::core {

/// Which epoch blocks carry the " perf ..." counter block.
enum class PerfBlock : std::uint8_t {
  kNone,      ///< no block (epoch files, version 1)
  kEvery,     ///< every block (epoch files, version 2)
  kOptional,  ///< exactly the epochs with a counter (serve snapshot)
};

/// Appends one epoch block to `out` under rule `perf`.
void write_epoch_block(std::string& out, const EpochSample& e, PerfBlock perf);

/// Parses one epoch block of a `threads`-wide matrix under rule `perf`,
/// with the hostile-input caps of read_epochs.
[[nodiscard]] EpochSample read_epoch_block(support::TokenScanner& sc,
                                           int threads, PerfBlock perf);

/// Writes `t` in the versioned text format (CRC trailer included).
void write_epochs(std::ostream& os, const EpochTimeline& t);

/// Parses an epoch timeline; throws std::runtime_error on malformed input
/// (bad magic/version, out-of-range counts, truncation, checksum mismatch).
[[nodiscard]] EpochTimeline read_epochs(std::istream& is);

/// In-memory overload — the serve daemon's frame and WAL-replay path, which
/// already hold the document in a buffer. Same hostile-input contract.
[[nodiscard]] EpochTimeline read_epochs(std::string_view text);

}  // namespace commscope::core
