// Per-client session state and the crash-isolated merged aggregate.
//
// Every client of `commscope serve` owns an isolated Session: its own frame
// decoder, its own dedupe ledger, its own drop provenance. Nothing a client
// sends touches the merged aggregate until it has survived frame CRC,
// hostile-input epoch parsing, and per-epoch dedupe — so a crashed, hung or
// malicious client can corrupt at most its own unvalidated bytes, never the
// merge. A session is *logical*, keyed by the client-chosen session id: a
// client that reconnects (shipper retry after a torn frame) reattaches to
// the same ledger, which is what makes redelivery idempotent.
//
// The Aggregate mirrors the flight recorder's data model on the receiving
// side: validated epochs land in a bounded overwrite-and-count ring (so an
// always-on daemon never grows without bound), their cells sum into one
// merged matrix, and their loop shares merge keyed by *label* (loop ids are
// process-local; labels are the cross-process key, per ROADMAP). The merged
// view renders through the existing `commscope report` / timeline pipeline
// unchanged. All session and aggregate storage is charged to the daemon's
// MemoryTracker so the overload ladder sees real memory pressure.
//
// ServeState holds both and implements every transition the write-ahead
// log records (open, dedupe-and-merge, seal/reap/drop) exactly once: the
// live handlers and WAL replay call the same functions, so a recovered
// daemon is rebuilt by the code that built the crashed one. The snapshot
// codec (serialize_serve_state / restore_serve_state) lives here too, next
// to the state it encodes; serve/journal only stores its bytes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/flight_recorder.hpp"
#include "serve/frame.hpp"
#include "support/memtrack.hpp"
#include "support/textio.hpp"

namespace commscope::serve {

/// Fixed accounting charges, shared by the live server and snapshot
/// recovery so a recovered daemon reports the same tracked footprint as the
/// one that crashed.
inline constexpr std::uint64_t kConnBaseCost = 4096;
inline constexpr std::uint64_t kSessionBaseCost = 640;
inline constexpr std::uint64_t kSeenEntryCost = 48;

/// Lifecycle of a logical session.
enum class SessionState : std::uint8_t {
  kActive,   ///< connected, or between connections (reattachable)
  kSealed,   ///< graceful bye — contribution final
  kReaped,   ///< heartbeat timeout — partial contribution sealed
  kDropped,  ///< protocol violation — partial contribution sealed, fd cut
};

[[nodiscard]] const char* to_string(SessionState s) noexcept;
/// Inverse of to_string; throws std::runtime_error on an unknown name (the
/// snapshot loader's hostile-input contract).
[[nodiscard]] SessionState session_state_from_string(std::string_view s);

/// One logical client session. Connection-scoped state (the decoder) lives
/// with the fd in the server; this is the cross-connection ledger.
struct Session {
  std::uint64_t id = 0;
  int threads = 0;          ///< advertised matrix dimension (hello)
  SessionState state = SessionState::kActive;
  std::string drop_reason;  ///< provenance when state is kDropped
  /// Cross-process trace context from the hello trailer (0 = pre-context
  /// client). Echoed on every ack and stamped onto daemon-side trace spans;
  /// deliberately not persisted — a reattach hello re-establishes it.
  std::uint64_t ctx = 0;

  /// Epoch indices already merged — the session-id + epoch-seq dedupe key.
  std::unordered_set<std::uint64_t> seen;

  std::uint64_t epochs_merged = 0;
  std::uint64_t epochs_deduped = 0;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t last_activity_ms = 0;  ///< daemon steady-clock, reap timer
  std::uint64_t charged = 0;           ///< bytes charged to the tracker
};

/// The merged cross-process aggregate (single-writer: the server loop).
class Aggregate {
 public:
  Aggregate(std::uint32_t ring_capacity, support::MemoryTracker* tracker);
  ~Aggregate();

  Aggregate(const Aggregate&) = delete;
  Aggregate& operator=(const Aggregate&) = delete;

  /// Merges one validated, deduped epoch from `src` (which supplies the
  /// sender's loop-id -> label table). Cells sum into the merged matrix;
  /// loop shares are re-keyed by label into the daemon's global table; the
  /// epoch itself joins the bounded ring with a fresh global index.
  void merge(const core::EpochTimeline& src, const core::EpochSample& e);

  /// Merged matrix: sum of every merged epoch's cells, dimension = the
  /// largest thread count any contributor advertised.
  [[nodiscard]] core::Matrix matrix() const;

  /// Merged history in the flight recorder's own shape, renderable by
  /// `commscope report` and diffable by `commscope diff`.
  [[nodiscard]] core::EpochTimeline timeline() const;

  /// Merged per-loop byte totals keyed by label.
  [[nodiscard]] std::map<std::string, std::uint64_t> loop_totals() const;

  [[nodiscard]] std::uint64_t merged() const noexcept { return sealed_; }
  [[nodiscard]] std::uint64_t ring_dropped() const noexcept {
    return dropped_;
  }
  [[nodiscard]] int threads() const noexcept { return threads_; }

  /// Appends the aggregate's complete state (dense cell sums, label table,
  /// merged ring, seal counters) to `out` — the snapshot's inner block.
  /// restore() on a fresh aggregate rebuilds it bit-identically.
  void serialize(std::string& out) const;

  /// Rebuilds state from a serialize() image via `sc`. Treats the input as
  /// hostile: every count is capped before allocation and any deviation
  /// throws std::runtime_error. Must run on a freshly-constructed
  /// aggregate; everything restored is charged to the tracker.
  void restore(support::TokenScanner& sc);

 private:
  [[nodiscard]] std::uint32_t label_id(const std::string& label);
  void charge(std::uint64_t bytes);
  void discharge(std::uint64_t bytes);
  [[nodiscard]] static std::uint64_t epoch_cost(
      const core::EpochSample& e) noexcept;
  /// The `i`-th surviving epoch, oldest first.
  [[nodiscard]] const core::EpochSample& oldest(std::size_t i) const noexcept {
    return ring_.size() < capacity_ ? ring_[i]
                                    : ring_[(ring_head_ + i) % capacity_];
  }

  std::uint32_t capacity_;
  support::MemoryTracker* tracker_;
  std::uint64_t charged_ = 0;

  int threads_ = 0;
  std::vector<std::uint64_t> cells_;  ///< dense threads_ x threads_ sums

  /// Global label table: label -> daemon-local loop id (dense from 0).
  std::map<std::string, std::uint32_t> label_ids_;
  std::vector<std::pair<std::uint32_t, std::string>> labels_;
  std::vector<std::uint64_t> label_bytes_;

  std::vector<core::EpochSample> ring_;
  std::size_t ring_head_ = 0;
  std::uint64_t sealed_ = 0;
  std::uint64_t dropped_ = 0;
};

/// The daemon's durable state and its transitions (single-writer: the
/// server loop, or recovery before the first accept). Each caller adds only
/// its own extras: the live side its stats, journal appends and acks,
/// replay its recovery counts.
struct ServeState {
  ServeState(std::uint32_t ring_capacity, support::MemoryTracker* tracker)
      : aggregate(ring_capacity, tracker), tracker_(tracker) {}

  /// hello: opens session `id`, which must not exist yet.
  Session& open(std::uint64_t id, int threads);

  /// epochs, first pass: claims each epoch of `src` whose index the
  /// session's seen ledger lacks and counts the rest as redelivered.
  /// Returns the claimed epochs in document order.
  [[nodiscard]] std::vector<const core::EpochSample*> dedupe(
      Session& s, const core::EpochTimeline& src);

  /// epochs, second pass: merges what dedupe() claimed into the aggregate.
  void merge(Session& s, const core::EpochTimeline& src,
             const std::vector<const core::EpochSample*>& fresh);

  /// seal, reap or drop: moves an active session to terminal state `to`
  /// (`reason` is a drop's provenance). False, and no change, once the
  /// session has already left kActive.
  static bool end(Session& s, SessionState to, std::string_view reason = {});

  std::map<std::uint64_t, Session> sessions;
  Aggregate aggregate;

 private:
  support::MemoryTracker* tracker_;
};

/// Serializes the daemon's full recoverable state (session ledgers + dense
/// aggregate + merged ring) as the versioned, CRC-trailered
/// "commscope-serve-snapshot 1" text format. `last_lsn` records the WAL
/// position the snapshot covers; replay skips records at or below it.
[[nodiscard]] std::string serialize_serve_state(
    const std::map<std::uint64_t, Session>& sessions, const Aggregate& agg,
    std::uint64_t last_lsn);

/// Inverse of serialize_serve_state. Treats the input as hostile (caps
/// before allocation, checked conversions, CRC) and throws
/// std::runtime_error on any deviation. Restored sessions are charged to
/// `tracker` through the same cost model the live daemon uses.
void restore_serve_state(std::string_view text,
                         std::map<std::uint64_t, Session>& sessions,
                         Aggregate& agg, std::uint64_t& last_lsn,
                         support::MemoryTracker* tracker);

}  // namespace commscope::serve
