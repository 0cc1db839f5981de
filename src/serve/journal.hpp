// Write-ahead journal + snapshot layer for the `commscope serve` daemon.
//
// PR 6 made *clients* fault-tolerant (retry/backoff/spill, ack-gated
// exactly-once merges); this layer removes the daemon itself as the single
// point of data loss. The contract:
//
//   *Nothing is acknowledged before it is journaled.* Every state change
//   that matters — a session joining, sealing, being reaped or dropped, and
//   above all every merged epoch delta — is appended to a CRC32-framed,
//   LSN-sequenced write-ahead log, and the configured fsync barrier runs
//   *before* the ack frame leaves the daemon. A kill -9 at any instant
//   therefore loses at most data the client was never told had landed, and
//   the shipper's retry + the (session, epoch-index) dedupe ledger redeliver
//   exactly that window.
//
//   *Recovery is replay.* On restart the daemon loads the newest snapshot
//   (atomic rename, so a crash mid-snapshot leaves the previous one intact)
//   and replays the WAL tail — records at-or-below the snapshot's LSN are
//   skipped — through the ServeState transitions (serve/session) the live
//   handlers call, so duplicates fall into the same dedupe ledger and the
//   Session / Aggregate state is rebuilt bit-identically. A torn final
//   record (the crash happened mid-write) is tolerated by design: the reader
//   stops cleanly at the damage and the daemon compacts the recovered
//   prefix into a fresh snapshot.
//
//   *Durability degrades before availability does.* Mirroring the overload
//   ladder, the journal walks a durability ladder under pressure: the
//   configured policy (fsync-per-ack -> fsync-per-N -> fdatasync-only-on-
//   compaction) is a floor that memory pressure (the server's MemoryTracker
//   rung) and sustained fsync latency can push down rung by rung, each
//   transition counted and traced (serve.wal.degrade / serve.wal.recover).
//
// Wire format (all integers little-endian), one record:
//
//   u32 magic        "CSJ1" (0x314a5343)
//   u8  type         WalRecordType below
//   u8  reserved     must be 0
//   u16 reserved2    must be 0
//   u64 lsn          strictly increasing per journal
//   u32 payload_len  bytes following the header (<= the reader's cap)
//   u32 payload_crc  CRC32 over header bytes 4..15 then the payload, so a
//                    flipped bit in the type/reserved/lsn fields fails
//                    validation the same way payload damage does
//
// Payloads are the repo's existing hostile-hardened text conventions: an
// epochs record carries "session <id>\n" plus a verbatim `commscope-epochs`
// document (core/epoch_io — already capped + CRC'd), so replay runs through
// the identical validated parser as live ingestion. The journal itself knows
// no serve state: it frames and returns record payloads and stores snapshot
// bytes, whose format and codec (serialize_serve_state) live in
// serve/session next to the state they encode.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "resilience/fault_injector.hpp"
#include "serve/frame.hpp"
#include "support/memtrack.hpp"

namespace commscope::serve {

// --- WAL record framing ------------------------------------------------------

enum class WalRecordType : std::uint8_t {
  kHello = 1,   ///< "session <id> threads <n>" — a new logical session
  kEpochs = 2,  ///< "session <id>\n" + verbatim commscope-epochs document
  kSeal = 3,    ///< "session <id>" — graceful bye
  kReap = 4,    ///< "session <id>" — heartbeat timeout
  kDrop = 5,    ///< "session <id> <reason>" — protocol violation
};

[[nodiscard]] const char* to_string(WalRecordType t) noexcept;

inline constexpr std::uint32_t kWalMagic = 0x314a5343u;  // "CSJ1" LE
inline constexpr std::size_t kWalHeaderBytes = 24;
/// Per-record payload ceiling: one epochs frame plus its session prefix.
inline constexpr std::uint32_t kMaxWalPayload = kMaxFramePayload + 64;
/// Recovery slurp ceiling — a WAL the compactor never truncated must still
/// not be able to buffer without bound.
inline constexpr std::size_t kMaxWalBytes = std::size_t{1} << 30;

struct WalRecord {
  std::uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kHello;
  std::string payload;
};

/// Serializes one record (header + payload) ready for the log.
[[nodiscard]] std::string encode_wal_record(WalRecordType type,
                                            std::uint64_t lsn,
                                            std::string_view payload);

/// Why a WalReader stopped yielding records.
enum class WalStop : std::uint8_t {
  kClean,  ///< end of buffer exactly at a record boundary
  kTorn,   ///< buffer ends mid-record — the classic kill -9 tail
  kBad,    ///< framing violation (magic/type/oversize/CRC) at the cursor
};

[[nodiscard]] const char* to_string(WalStop s) noexcept;

/// Forward-only WAL scanner over an in-memory image. The reader's contract
/// is recover-or-reject: every record it yields passed magic, type,
/// length-cap and CRC checks; the first deviation stops the scan (stop()
/// says why, consumed() says where) and nothing past it is ever yielded.
/// Payload allocation is bounded by the declared cap no matter what a
/// hostile length prefix claims.
class WalReader {
 public:
  explicit WalReader(std::string_view image,
                     std::uint32_t max_payload = kMaxWalPayload)
      : image_(image), max_payload_(max_payload) {}

  /// Next valid record, or nullopt once the scan stopped.
  [[nodiscard]] std::optional<WalRecord> next();

  [[nodiscard]] WalStop stop() const noexcept { return stop_; }
  [[nodiscard]] const char* stop_reason() const noexcept { return reason_; }
  /// Bytes consumed by fully-validated records (the recoverable prefix).
  [[nodiscard]] std::size_t consumed() const noexcept { return consumed_; }
  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }

 private:
  std::string_view image_;
  std::uint32_t max_payload_;
  std::size_t cursor_ = 0;
  std::size_t consumed_ = 0;
  std::uint64_t records_ = 0;
  bool done_ = false;
  WalStop stop_ = WalStop::kClean;
  const char* reason_ = "clean";
};

// --- fsync policy (the durability ladder's rungs) ----------------------------

enum class FsyncPolicy : std::uint8_t {
  kPerAck = 0,        ///< fsync before every ack — maximum durability
  kPerN = 1,          ///< fsync every N records (default; bounded loss = 0
                      ///< for kill -9, one fsync window for power loss)
  kOnCompaction = 2,  ///< fdatasync only when compacting — throughput first
};

[[nodiscard]] const char* to_string(FsyncPolicy p) noexcept;
/// Parses "per-ack" / "per-n" / "on-compaction"; nullopt on anything else.
[[nodiscard]] std::optional<FsyncPolicy> parse_fsync_policy(
    std::string_view s) noexcept;

// --- the journal -------------------------------------------------------------

struct JournalOptions {
  std::string dir;  ///< state directory (created if missing)
  FsyncPolicy policy = FsyncPolicy::kPerN;
  /// Records per barrier at kPerN. The default trades a bounded power-loss
  /// window (N records; kill -9 loses nothing — writes precede every ack)
  /// for keeping the ~0.5ms fdatasync off most acks; per-ack is the strict
  /// rung.
  std::uint32_t fsync_every = 256;
  std::uint64_t compact_every = 4096; ///< appends per compaction; 0 = manual
  resilience::FaultInjector* injector = nullptr;  ///< wal-* fault points
  support::MemoryTracker* tracker = nullptr;      ///< recovery image charge
};

/// Counters mirrored into serve.wal.* / serve.recovery.* metrics.
struct JournalStats {
  std::uint64_t records = 0;        ///< appended this process
  std::uint64_t bytes = 0;          ///< payload+header bytes appended
  std::uint64_t fsyncs = 0;
  std::uint64_t fsync_failures = 0;
  std::uint64_t write_errors = 0;   ///< short/failed appends (journal gave up)
  std::uint64_t compactions = 0;
  std::uint64_t degrade_transitions = 0;
  int policy_rung = 0;              ///< effective rung (>= configured policy)
  bool failed = false;              ///< journal unusable; daemon runs volatile
  // Recovery provenance (set once by recover()).
  bool recovered_snapshot = false;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t wal_bytes_scanned = 0;
  std::uint64_t replay_records = 0;   ///< valid records handed to the server
  bool torn_tail = false;             ///< recovery stopped at a damaged tail
  std::string torn_reason;
};

/// Append-only WAL + snapshot manager. Single-writer (the server's poll
/// loop); the server serializes access under its own mutex.
class Journal {
 public:
  explicit Journal(JournalOptions options);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  [[nodiscard]] std::string wal_path() const;
  [[nodiscard]] std::string snapshot_path() const;

  /// Loads the persisted state for replay: `snapshot` receives the snapshot
  /// file's text (empty when none exists) and `tail` every valid WAL record.
  /// A torn/damaged tail is tolerated (stats().torn_tail); an unreadable
  /// state *directory* or oversized WAL is not. False => `error` explains,
  /// and the daemon should refuse to start rather than silently discard
  /// acknowledged data (--no-recover is the operator's explicit override).
  [[nodiscard]] bool recover(std::string& snapshot,
                             std::vector<WalRecord>& tail, std::string& error);

  /// Deletes any persisted state (the --no-recover path). Best-effort.
  void discard_state() noexcept;

  /// Opens the WAL for appending (creating the directory and file as
  /// needed). Must be called after recover() / discard_state().
  [[nodiscard]] bool open(std::string& error);

  /// Appends one record. When `barrier` is set the configured fsync policy
  /// runs before returning — the caller sends its ack only after this
  /// returns. Returns false once the journal has failed (short write, I/O
  /// error); the caller counts it and continues volatile, by design.
  [[nodiscard]] bool append(WalRecordType type, std::string_view payload,
                            bool barrier);

  /// Two-part append: the record payload is `prefix` immediately followed
  /// by `payload`, encoded straight into a reused scratch buffer — the hot
  /// ingest path ("session <id>\n" + verbatim frame payload) journals with
  /// a single copy and zero steady-state allocations. Byte-identical on
  /// disk to append(type, prefix + payload, barrier).
  [[nodiscard]] bool append(WalRecordType type, std::string_view prefix,
                            std::string_view payload, bool barrier);

  /// Atomically replaces the snapshot with `state` (tmp + fsync + rename +
  /// dir sync) and truncates the WAL. False on I/O failure (old snapshot
  /// and WAL are left intact).
  [[nodiscard]] bool compact(std::string_view state);

  /// True once compact_every appends accumulated since the last compaction.
  [[nodiscard]] bool should_compact() const noexcept;
  /// True when there is anything to compact (appends since last snapshot).
  [[nodiscard]] bool dirty() const noexcept { return dirty_; }

  /// Overload-ladder input: the server's memory-pressure rung (0..2) pushes
  /// the effective fsync policy down the durability ladder.
  void set_pressure(int rung) noexcept;

  [[nodiscard]] const JournalStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t last_lsn() const noexcept { return lsn_; }
  /// Effective policy after ladder degradation.
  [[nodiscard]] FsyncPolicy effective_policy() const noexcept;

 private:
  [[nodiscard]] bool write_all(int fd, std::string_view bytes) noexcept;
  [[nodiscard]] bool run_barrier() noexcept;  ///< policy-driven fsync
  void note_fsync_latency(std::uint64_t micros) noexcept;
  void update_rung() noexcept;
  void fail(const char* what) noexcept;

  JournalOptions options_;
  JournalStats stats_;
  std::string scratch_;  ///< reused record-encode buffer (hot path)
  int fd_ = -1;
  std::uint64_t lsn_ = 0;                ///< last assigned LSN
  std::uint64_t since_fsync_ = 0;        ///< records since the last barrier
  std::uint64_t since_compact_ = 0;      ///< records since the last snapshot
  bool dirty_ = false;
  int pressure_rung_ = 0;                ///< server memory-pressure input
  int latency_rung_ = 0;                 ///< sustained-slow-fsync input
  int consecutive_slow_ = 0;
  int consecutive_fast_ = 0;
  // Deterministic fault-injection positions (1-based, like the injector).
  std::uint64_t appends_seen_ = 0;
  std::uint64_t fsyncs_seen_ = 0;
  std::uint64_t compactions_seen_ = 0;
};

}  // namespace commscope::serve
