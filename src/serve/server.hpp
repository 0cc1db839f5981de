// `commscope serve` — the crash-isolated multi-process aggregation daemon.
//
// One always-on process accepts epoch/matrix streams from many concurrently
// profiled clients over a local Unix-domain socket and merges them into a
// single live aggregate (the Caliper/Benchpark always-on-profiling direction
// from PAPERS.md, transplanted to shared memory). The design priorities, in
// order:
//
//   1. *Crash isolation.* Each client owns a sharded Session; bytes only
//      reach the merge after frame CRC + hostile-input epoch parsing +
//      per-epoch dedupe. A torn, oversized or bad-CRC frame drops exactly
//      one session — counted, with provenance — never the aggregate.
//   2. *Liveness under overload.* Per-session buffers are bounded by the
//      frame cap; all session/aggregate memory is charged to a
//      MemoryTracker; and when tracked memory crosses --mem-budget the
//      daemon walks an accuracy-for-survival ladder mirroring
//      ResourceGuard's rungs: bounded queues (always) -> sampling degrade
//      (merge every other epoch frame) -> shed-newest (refuse new sessions,
//      drop new epoch frames). Every transition is counted and traced.
//   3. *Honest accounting.* Heartbeat timeouts reap dead sessions (their
//      partial contribution stays, sealed); every drop/reap/shed surfaces
//      in serve.* metrics and the scrape endpoint.
//
// The loop is single-threaded (poll-based, non-blocking fds): with local
// clients shipping sealed epochs — not raw access streams — the merge is
// never the bottleneck, and one thread keeps the crash-isolation story
// auditable. Socket-layer fault points (accept-fail, short-read, EAGAIN
// storms) come from the same deterministic COMMSCOPE_FAULT injector as the
// rest of the resilience tree.
#pragma once

#include <atomic>
#include <csignal>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "resilience/fault_injector.hpp"
#include "serve/journal.hpp"
#include "serve/session.hpp"
#include "telemetry/metrics.hpp"

namespace commscope::serve {

struct ServeOptions {
  std::string socket_path;
  std::uint64_t mem_budget_bytes = 0;  ///< 0 = overload ladder disabled
  std::uint32_t reap_ms = 5000;        ///< heartbeat timeout; 0 = never reap
  std::uint32_t max_sessions = 64;     ///< live-connection ceiling (shed past)
  std::uint32_t max_threads = 64;      ///< per-client matrix dimension cap
  std::uint32_t merged_ring = 512;     ///< merged-timeline ring capacity
  std::uint32_t poll_ms = 50;          ///< event-loop tick
  /// Exit once this many sessions have reached a terminal state (sealed,
  /// reaped or dropped; 0 = run until stop()). The test/CI lifecycle hook —
  /// counted on sessions, not connections, so a client that reconnects
  /// after a torn frame still gets its redelivery merged before exit.
  std::uint64_t exit_after_connections = 0;
  /// Exit after this long with zero live connections, once at least one
  /// client was ever seen (0 = never).
  std::uint32_t idle_exit_ms = 0;
  // Durability (the WAL + snapshot layer). Empty state_dir = volatile
  // daemon, exactly the pre-journal behaviour.
  std::string state_dir;
  FsyncPolicy fsync_policy = FsyncPolicy::kPerN;
  std::uint32_t fsync_every = 256;     ///< records per barrier at per-n
  std::uint64_t compact_every = 4096;  ///< appends per snapshot compaction
  bool no_recover = false;  ///< discard persisted state instead of replaying
  /// Signal-safe drain request: when non-null and set (by a SIGTERM/SIGINT
  /// handler), the poll loop seals every active session, takes a final
  /// snapshot, and run() returns — the graceful-shutdown path, exit 0.
  const volatile std::sig_atomic_t* drain_flag = nullptr;
  resilience::FaultInjector* injector = nullptr;  ///< socket-layer faults
  std::ostream* log = nullptr;  ///< event lines (accept/drop/reap/degrade)
};

/// Counters mirrored into the serve.* metrics registry; snapshot() gives
/// tests a race-free local copy.
struct ServeStats {
  std::uint64_t sessions_accepted = 0;  ///< post-hello logical sessions
  std::uint64_t sessions_sealed = 0;    ///< graceful bye
  std::uint64_t sessions_reaped = 0;    ///< heartbeat timeout
  std::uint64_t sessions_dropped = 0;   ///< protocol violation
  std::uint64_t sessions_shed = 0;      ///< refused (overload / cap / dead id)
  std::uint64_t connections = 0;        ///< accepts that produced a conn
  std::uint64_t connections_closed = 0;
  std::uint64_t frames_ok = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t frames_torn = 0;        ///< EOF mid-frame (client crash)
  std::uint64_t drops_bad_magic = 0;
  std::uint64_t drops_bad_type = 0;
  std::uint64_t drops_oversize = 0;
  std::uint64_t drops_empty = 0;
  std::uint64_t drops_bad_crc = 0;
  std::uint64_t drops_bad_payload = 0;  ///< frame ok, epoch document hostile
  std::uint64_t epochs_merged = 0;
  std::uint64_t epochs_deduped = 0;
  std::uint64_t epochs_sampled_out = 0;  ///< ladder rung 1
  std::uint64_t epochs_shed = 0;         ///< ladder rung 2
  std::uint64_t accept_failures = 0;     ///< injected/real accept errors
  std::uint64_t eagain_deferrals = 0;    ///< reads deferred by EAGAIN storm
  std::uint64_t scrapes = 0;
  std::uint64_t bytes_rx = 0;
  int rung = 0;
  std::uint64_t degrade_transitions = 0;
  std::uint64_t sessions_live = 0;  ///< live connections right now
  // Durability mirror (all zero when --state-dir is unset).
  std::uint64_t wal_records = 0;
  std::uint64_t wal_fsyncs = 0;
  std::uint64_t wal_fsync_failures = 0;
  std::uint64_t wal_write_errors = 0;
  std::uint64_t wal_compactions = 0;
  std::uint64_t wal_degrade_transitions = 0;
  int wal_rung = 0;
  bool wal_failed = false;          ///< journal gave up; running volatile
  // Recovery provenance (set once, before the first accept).
  bool recovered = false;           ///< state restored from disk
  bool recovered_torn_tail = false;
  std::uint64_t recovered_sessions = 0;
  std::uint64_t recovered_epochs = 0;   ///< epochs re-merged during replay
  std::uint64_t recovery_records = 0;   ///< WAL records replayed
  std::uint64_t recovery_skipped = 0;   ///< stale/invalid records skipped
  bool drained = false;             ///< graceful signal drain completed
};

class ServeServer {
 public:
  explicit ServeServer(ServeOptions options);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Binds + listens on options.socket_path (a stale socket file is
  /// replaced). False on failure; last_error() carries the diagnostic —
  /// the CLI maps this to exit code 1.
  [[nodiscard]] bool open();

  /// Blocking event loop; returns when stop() is called or an exit
  /// condition (exit_after_connections / idle_exit_ms) fires. Never throws
  /// for anything a client does.
  void run();

  /// Requests run() to return (safe from any thread / signal-adjacent).
  void stop() noexcept { stop_.store(true, std::memory_order_release); }

  [[nodiscard]] const std::string& last_error() const noexcept {
    return error_;
  }

  // Aggregate views — mutex-guarded, callable while run() is live.
  [[nodiscard]] core::EpochTimeline merged_timeline() const;
  [[nodiscard]] core::Matrix merged_matrix() const;
  [[nodiscard]] std::map<std::string, std::uint64_t> merged_loop_totals()
      const;
  [[nodiscard]] ServeStats snapshot() const;

 private:
  struct Conn {
    int fd = -1;
    FrameDecoder decoder;
    std::uint64_t session = 0;  ///< 0 until hello
    std::uint64_t last_activity_ms = 0;
    std::uint64_t charged = 0;
  };

  [[nodiscard]] std::uint64_t now_ms() const noexcept;
  void accept_clients();
  /// Reads + dispatches one connection; returns false when it was closed.
  bool service_conn(Conn& c);
  void handle_frame(Conn& c, Frame&& f);
  void handle_hello(Conn& c, const std::string& payload);
  void handle_epochs(Conn& c, const std::string& payload);
  /// Replies with a metrics snapshot; a "prometheus" payload selects the
  /// Prometheus text exposition format instead of v1 text.
  void handle_scrape(Conn& c, const std::string& payload);
  /// Acknowledges an epochs frame (delivery receipt for the shipper).
  void send_ack(Conn& c, std::uint64_t accepted);
  /// Drops the connection's session with provenance (protocol violation).
  void drop_session(Conn& c, const char* reason);
  void close_conn(Conn& c);
  void reap_idle();
  void update_rung();
  void recharge_conn(Conn& c);
  // --- durability (all no-ops when the journal is disabled) ---------------
  /// Loads snapshot + WAL, rebuilds sessions_/aggregate_, opens the WAL for
  /// appending, and seals the recovered state into a fresh snapshot. False
  /// => error_ explains and the daemon refuses to start.
  [[nodiscard]] bool open_journal();
  /// Decodes one recovered WAL record and applies it through the same
  /// ServeState transition the live handler that journaled it ran.
  void apply_wal_record(const WalRecord& r);
  /// Journals a session lifecycle transition (hello/seal/reap/drop).
  void journal_transition(WalRecordType t, std::uint64_t id,
                          const char* extra = nullptr);
  /// Serializes current state and compacts the WAL into a snapshot.
  void compact_locked();
  /// Signal-requested graceful drain: seal sessions, final snapshot.
  void drain_locked();
  /// Delta-publishes local stats into the global metrics registry.
  void publish_metrics_locked();
  [[nodiscard]] std::vector<telemetry::MetricSnapshot>
  metrics_snapshot_locked();
  [[nodiscard]] bool send_all(int fd, std::string_view bytes);
  void log_line(const std::string& line);

  ServeOptions options_;
  std::atomic<bool> stop_{false};
  std::string error_;
  int listen_fd_ = -1;

  mutable std::mutex mu_;  ///< guards state_/stats_
  std::map<int, Conn> conns_;
  support::MemoryTracker tracker_;
  ServeState state_;  ///< after tracker_, which it charges
  std::unique_ptr<Journal> journal_;  ///< null when state_dir is empty
  ServeStats stats_;
  ServeStats published_;  ///< last values mirrored into the registry

  // Deterministic fault-injection positions (1-based, like the injector).
  std::uint64_t accepts_seen_ = 0;
  std::uint64_t reads_seen_ = 0;
  std::uint64_t eagain_left_ = 0;
  std::uint64_t epoch_frames_seen_ = 0;  ///< rung-1 sampling toggle
  bool ever_connected_ = false;
  std::uint64_t idle_since_ms_ = 0;
};

}  // namespace commscope::serve
