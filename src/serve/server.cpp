#include "serve/server.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <ostream>
#include <sstream>
#include <vector>

#include "core/epoch_io.hpp"
#include "serve/wire_ctx.hpp"
#include "support/textio.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace commscope::serve {

namespace ctl = telemetry;

namespace {

int make_listen_socket(const std::string& path, std::string& error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    error = "serve: socket path empty or longer than sun_path (" + path + ")";
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) {
    error = std::string("serve: socket: ") + std::strerror(errno);
    return -1;
  }
  // A stale socket file from a crashed daemon would make bind fail with
  // EADDRINUSE forever; replacing it is the standard unix-socket idiom.
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    error = "serve: bind " + path + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 64) != 0) {
    error = "serve: listen " + path + ": " + std::strerror(errno);
    ::close(fd);
    ::unlink(path.c_str());
    return -1;
  }
  return fd;
}

}  // namespace

ServeServer::ServeServer(ServeOptions options)
    : options_(std::move(options)), state_(options_.merged_ring, &tracker_) {}

ServeServer::~ServeServer() {
  for (auto& [fd, conn] : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(options_.socket_path.c_str());
  }
}

std::uint64_t ServeServer::now_ms() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool ServeServer::open() {
  // Recovery strictly precedes the socket: no client is accepted until the
  // daemon's state is the crashed daemon's state.
  if (!options_.state_dir.empty() && !open_journal()) return false;
  listen_fd_ = make_listen_socket(options_.socket_path, error_);
  if (listen_fd_ < 0) return false;
  log_line("listening on " + options_.socket_path);
  return true;
}

bool ServeServer::open_journal() {
  JournalOptions jopts;
  jopts.dir = options_.state_dir;
  jopts.policy = options_.fsync_policy;
  jopts.fsync_every = options_.fsync_every;
  jopts.compact_every = options_.compact_every;
  jopts.injector = options_.injector;
  jopts.tracker = &tracker_;
  journal_ = std::make_unique<Journal>(jopts);

  if (options_.no_recover) {
    journal_->discard_state();
    log_line("journal: persisted state discarded (--no-recover)");
  } else {
    std::string snapshot;
    std::vector<WalRecord> tail;
    if (!journal_->recover(snapshot, tail, error_)) {
      // Unreadable state is a refusal, not a silent discard: losing
      // acknowledged data needs the operator's explicit --no-recover.
      journal_.reset();
      return false;
    }
    std::uint64_t snapshot_lsn = 0;
    if (!snapshot.empty()) {
      try {
        restore_serve_state(snapshot, state_.sessions, state_.aggregate,
                            snapshot_lsn, &tracker_);
      } catch (const std::runtime_error& e) {
        error_ = std::string("serve: corrupt snapshot: ") + e.what();
        journal_.reset();
        return false;
      }
      stats_.recovered = true;
    }
    for (const WalRecord& r : tail) {
      if (r.lsn <= snapshot_lsn) {
        ++stats_.recovery_skipped;  // already inside the snapshot
        continue;
      }
      apply_wal_record(r);
      ++stats_.recovery_records;
      stats_.recovered = true;
    }
    const JournalStats& js = journal_->stats();
    stats_.recovered_torn_tail = js.torn_tail;
    if (stats_.recovered) {
      stats_.recovered_sessions = state_.sessions.size();
      const std::uint64_t now = now_ms();
      for (auto& [id, sess] : state_.sessions) {
        // A recovered session's idle clock restarts now — the downtime was
        // the daemon's fault, not the client's missed heartbeat.
        sess.last_activity_ms = now;
      }
      log_line("recovered " + std::to_string(state_.sessions.size()) +
               " session(s), " + std::to_string(stats_.recovery_records) +
               " WAL record(s) replayed" +
               (js.torn_tail
                    ? std::string(", torn tail tolerated (") + js.torn_reason +
                          ")"
                    : std::string()));
      ctl::Tracer::instant("serve.wal.recovered", ctl::SpanCat::kWal);
    }
  }

  if (!journal_->open(error_)) {
    journal_.reset();
    return false;
  }
  // Seal whatever recovery produced into a fresh snapshot: persists the
  // replayed state, truncates the WAL, and cuts off any torn tail so new
  // appends never land after damaged bytes.
  compact_locked();
  return true;
}

void ServeServer::apply_wal_record(const WalRecord& r) {
  try {
    support::TokenScanner sc(r.payload, "serve-wal-replay");
    if (sc.next_token() != "session") sc.fail("expected 'session'");
    const std::uint64_t id = sc.next_uint<std::uint64_t>("session id");
    if (id == 0) sc.fail("session id must be nonzero");
    const auto it = state_.sessions.find(id);
    if (r.type == WalRecordType::kHello) {
      if (sc.next_token() != "threads") sc.fail("expected 'threads'");
      const int threads = sc.next_uint_capped<int>(
          "threads", static_cast<int>(options_.max_threads));
      if (threads < 1) sc.fail("threads must be >= 1");
      // An id that already exists is a replayed duplicate.
      if (it == state_.sessions.end()) state_.open(id, threads);
      return;
    }
    if (it == state_.sessions.end()) sc.fail("record for unknown session");
    Session& sess = it->second;
    if (r.type == WalRecordType::kEpochs) {
      // Payload = "session <id>\n" + the verbatim frame payload, which goes
      // through the parse, dedupe and merge of live ingestion.
      const std::size_t nl = r.payload.find('\n');
      if (nl == std::string::npos) sc.fail("missing epochs document");
      const core::EpochTimeline src =
          core::read_epochs(std::string_view(r.payload).substr(nl + 1));
      const std::vector<const core::EpochSample*> fresh =
          state_.dedupe(sess, src);
      state_.merge(sess, src, fresh);
      stats_.recovered_epochs += fresh.size();
      return;
    }
    const SessionState to = r.type == WalRecordType::kSeal
                                ? SessionState::kSealed
                            : r.type == WalRecordType::kReap
                                ? SessionState::kReaped
                                : SessionState::kDropped;
    (void)ServeState::end(sess, to, sc.rest_of_line());
  } catch (const std::runtime_error& e) {
    // CRC-valid but semantically hostile record (crafted WAL): skip it,
    // counted — a damaged log must never take recovery down.
    ++stats_.recovery_skipped;
    log_line(std::string("replay: skipped record: ") + e.what());
  }
}

void ServeServer::journal_transition(WalRecordType t, std::uint64_t id,
                                     const char* extra) {
  if (!journal_) return;
  std::string payload = "session " + std::to_string(id);
  if (extra != nullptr) {
    payload += ' ';
    payload += extra;
  }
  // Lifecycle records ride the next epoch barrier; only epoch data itself
  // gates an ack.
  (void)journal_->append(t, payload, /*barrier=*/false);
}

void ServeServer::compact_locked() {
  if (!journal_) return;
  const std::string state =
      serialize_serve_state(state_.sessions, state_.aggregate,
                            journal_->last_lsn());
  if (journal_->compact(state)) {
    log_line("journal: compacted into snapshot (" +
             std::to_string(state.size()) + " bytes)");
  } else {
    log_line("journal: compaction failed; WAL retained");
  }
}

void ServeServer::drain_locked() {
  log_line("drain requested (signal): sealing sessions");
  for (auto& [id, sess] : state_.sessions) {
    if (!ServeState::end(sess, SessionState::kSealed)) continue;
    ++stats_.sessions_sealed;
    journal_transition(WalRecordType::kSeal, id);
  }
  for (auto& [fd, conn] : conns_) close_conn(conn);
  compact_locked();
  stats_.drained = true;
  ctl::Tracer::instant("serve.drain", ctl::SpanCat::kServe);
  log_line("drain complete");
}

void ServeServer::log_line(const std::string& line) {
  if (options_.log != nullptr) *options_.log << "[serve] " << line << "\n";
}

void ServeServer::recharge_conn(Conn& c) {
  const std::uint64_t want =
      kConnBaseCost + c.decoder.buffer_capacity() + c.decoder.buffered();
  if (want > c.charged) {
    tracker_.add(want - c.charged);
  } else if (want < c.charged) {
    tracker_.sub(c.charged - want);
  }
  c.charged = want;
}

void ServeServer::update_rung() {
  const std::uint64_t budget = options_.mem_budget_bytes;
  if (budget == 0) return;
  const std::uint64_t cur = tracker_.current();
  int want = 0;
  if (cur > budget) {
    want = 2;
  } else if (cur * 2 > budget) {
    want = 1;
  }
  if (want < stats_.rung) {
    // Recover only once comfortably (10%) below the rung's own threshold,
    // so a daemon hovering at the boundary does not flap.
    const std::uint64_t lower = stats_.rung == 2 ? budget : budget / 2;
    if (cur * 10 > lower * 9) want = stats_.rung;
  }
  if (want != stats_.rung) {
    log_line("degrade rung " + std::to_string(stats_.rung) + " -> " +
             std::to_string(want) + " (tracked " + std::to_string(cur) +
             " bytes, budget " + std::to_string(budget) + ")");
    ctl::Tracer::instant(want > stats_.rung ? "serve.degrade" : "serve.recover",
                         ctl::SpanCat::kServe);
    stats_.rung = want;
    ++stats_.degrade_transitions;
  }
  // Memory pressure pushes the durability ladder too (fsync cost trades
  // against liveness exactly like merge accuracy does).
  if (journal_) journal_->set_pressure(stats_.rung);
}

void ServeServer::close_conn(Conn& c) {
  if (c.fd >= 0) {
    ::close(c.fd);
    c.fd = -1;
    ++stats_.connections_closed;
  }
  if (c.charged > 0) {
    tracker_.sub(c.charged);
    c.charged = 0;
  }
}

void ServeServer::drop_session(Conn& c, const char* reason) {
  if (c.session != 0) {
    const auto it = state_.sessions.find(c.session);
    if (it != state_.sessions.end() &&
        ServeState::end(it->second, SessionState::kDropped, reason)) {
      ++stats_.sessions_dropped;
      journal_transition(WalRecordType::kDrop, c.session, reason);
      ctl::Tracer::instant("serve.drop", ctl::SpanCat::kServe);
    }
    log_line("drop session " + std::to_string(c.session) + ": " + reason);
  } else {
    log_line(std::string("drop pre-hello connection: ") + reason);
  }
  close_conn(c);
}

void ServeServer::handle_hello(Conn& c, const std::string& payload) {
  if (c.session != 0) {
    ++stats_.drops_bad_payload;
    drop_session(c, "duplicate-hello");
    return;
  }
  std::uint64_t id = 0;
  int threads = 0;
  std::uint64_t ctx = 0;
  std::uint64_t tns = 0;
  try {
    support::TokenScanner scan(payload, "serve-hello");
    if (scan.next_token() != "commscope-hello") scan.fail("bad greeting");
    if (scan.next_uint<std::uint32_t>("version") != 1) {
      scan.fail("unsupported version");
    }
    if (scan.next_token() != "session") scan.fail("expected 'session'");
    id = scan.next_uint<std::uint64_t>("session id");
    if (id == 0) scan.fail("session id must be nonzero");
    if (scan.next_token() != "threads") scan.fail("expected 'threads'");
    threads = static_cast<int>(scan.next_uint_capped<std::uint32_t>(
        "threads", options_.max_threads));
    if (threads < 1) scan.fail("threads must be >= 1");
    // Optional trailers from context-aware clients: "ctx <hex>" is the
    // cross-process trace context, "tns <ns>" the client's trace-clock
    // reading when the hello was built (the clock-offset sample `commscope
    // trace --merge` pairs with this daemon's own receive timestamp). The
    // trailer space stays open-ended — an unknown key ends the parse rather
    // than failing it, mirroring how pre-context daemons ignored ours.
    while (!scan.at_end()) {
      const std::string_view key = scan.next_token();
      if (key == "ctx") {
        ctx = ctx_from_hex(scan.next_token());
      } else if (key == "tns") {
        tns = scan.next_uint<std::uint64_t>("tns");
      } else {
        break;
      }
    }
  } catch (const std::runtime_error&) {
    ++stats_.drops_bad_payload;
    drop_session(c, "bad-hello");
    return;
  }
  if (ctx != 0) {
    ctl::counter("serve.ctx.received").add(1);
    // The daemon-side half of the handshake clock-offset pair: args.v holds
    // the client's clock reading, ts holds ours.
    ctl::Tracer::instant("serve.hello", ctl::SpanCat::kServe, -1, ctx, tns);
  }

  const auto it = state_.sessions.find(id);
  if (it != state_.sessions.end()) {
    if (it->second.state != SessionState::kActive) {
      // A sealed/reaped/dropped session's contribution is final; a client
      // presenting its id again is refused, never un-sealed.
      ++stats_.sessions_shed;
      log_line("refuse session " + std::to_string(id) + " (" +
               to_string(it->second.state) + ")");
      close_conn(c);
      return;
    }
    c.session = id;  // reconnect: reattach to the existing dedupe ledger
    it->second.last_activity_ms = now_ms();
    if (ctx != 0) it->second.ctx = ctx;  // re-established, never persisted
    log_line("session " + std::to_string(id) + " reattached");
    return;
  }

  std::uint32_t active = 0;
  for (const auto& [sid, s] : state_.sessions) {
    if (s.state == SessionState::kActive) ++active;
  }
  if (stats_.rung >= 2 || active >= options_.max_sessions) {
    // Shed-newest: existing contributors keep their accuracy, the newcomer
    // is turned away while the daemon is past budget or at capacity.
    ++stats_.sessions_shed;
    log_line("shed session " + std::to_string(id) +
             (stats_.rung >= 2 ? " (overload)" : " (session cap)"));
    close_conn(c);
    return;
  }

  Session& s = state_.open(id, threads);
  s.ctx = ctx;
  s.last_activity_ms = now_ms();
  c.session = id;
  ++stats_.sessions_accepted;
  journal_transition(WalRecordType::kHello, id,
                     ("threads " + std::to_string(threads)).c_str());
  log_line("session " + std::to_string(id) + " (" + std::to_string(threads) +
           " threads) joined");
}

void ServeServer::send_ack(Conn& c, std::uint64_t accepted) {
  // The ack is what upgrades the shipper's at-least-once sends to
  // exactly-once: a client only marks epochs shipped once this lands, so a
  // connection the daemon cut with bytes still in the kernel buffer gets
  // retried and deduped instead of silently losing data. Frames the ladder
  // intentionally sampled out or shed are acked too — that loss is the
  // ladder's documented accuracy trade, not a delivery failure to retry.
  //
  // The "ctx <hex>" echo (only for sessions that announced one) is the
  // version negotiation for trace-context propagation: pre-context clients
  // never parsed the ack payload, context-aware clients take its absence to
  // mean a pre-context daemon.
  std::string ack = std::to_string(accepted) + " accepted";
  if (c.session != 0) {
    const auto it = state_.sessions.find(c.session);
    if (it != state_.sessions.end() && it->second.ctx != 0) {
      ack += " ctx " + ctx_to_hex(it->second.ctx);
    }
  }
  if (!send_all(c.fd, encode_frame(FrameType::kAck, ack))) close_conn(c);
}

void ServeServer::handle_epochs(Conn& c, const std::string& payload) {
  if (c.session == 0) {
    ++stats_.drops_bad_payload;
    drop_session(c, "epochs-before-hello");
    return;
  }
  Session& sess = state_.sessions.at(c.session);
  sess.last_activity_ms = now_ms();
  sess.bytes += payload.size();
  if (stats_.rung >= 2) {
    ++stats_.epochs_shed;  // shed-newest: accept the frame, merge nothing
    send_ack(c, 0);
    return;
  }
  if (stats_.rung >= 1 && (++epoch_frames_seen_ % 2) == 0) {
    ++stats_.epochs_sampled_out;  // sampling degrade: every other frame
    send_ack(c, 0);
    return;
  }

  const std::uint64_t span_t0 = ctl::Tracer::now_ns();
  const std::uint64_t t_start = ctl::mono_us();
  core::EpochTimeline src;
  try {
    src = core::read_epochs(std::string_view(payload));
  } catch (const std::runtime_error& e) {
    // The frame was well-formed but the epoch document inside is hostile
    // (the CRC protects transport, not a lying client).
    ++stats_.drops_bad_payload;
    drop_session(c, e.what());
    return;
  }
  if (src.threads > static_cast<int>(options_.max_threads)) {
    ++stats_.drops_bad_payload;
    drop_session(c, "threads-out-of-range");
    return;
  }
  const std::uint64_t t_decoded = ctl::mono_us();

  // Staged so every leg of the daemon pipeline (decode -> dedupe -> merge ->
  // journal -> ack; fsync is timed inside the journal as serve.wal.fsync_us)
  // owns a latency histogram. Every epoch is acknowledged: a redelivered one
  // is absorbed by the ledger, not refused.
  const std::uint64_t accepted = src.epochs.size();
  const std::vector<const core::EpochSample*> fresh = state_.dedupe(sess, src);
  stats_.epochs_deduped += accepted - fresh.size();
  const std::uint64_t t_deduped = ctl::mono_us();

  const std::uint64_t merge_t0 = ctl::Tracer::now_ns();
  state_.merge(sess, src, fresh);
  stats_.epochs_merged += fresh.size();
  const std::uint64_t t_merged = ctl::mono_us();
  if (!fresh.empty()) {
    ctl::Tracer::complete("serve.merge", ctl::SpanCat::kServe, -1, merge_t0,
                          ctl::Tracer::now_ns() - merge_t0, sess.ctx,
                          fresh.size());
  }

  if (journal_ && accepted != 0) {
    // The durability contract: the verbatim validated frame is journaled —
    // and the fsync-policy barrier runs — strictly before the ack leaves.
    // An all-duplicate frame merges nothing but still moves the session's
    // dedupe count, so it is journaled too: replay re-derives the count.
    const std::uint64_t journal_t0 = ctl::Tracer::now_ns();
    const std::string prefix =
        "session " + std::to_string(c.session) + "\n";
    (void)journal_->append(WalRecordType::kEpochs, prefix, payload,
                           /*barrier=*/true);
    ctl::Tracer::complete("serve.journal", ctl::SpanCat::kWal, -1,
                          journal_t0, ctl::Tracer::now_ns() - journal_t0,
                          sess.ctx, fresh.size());
  }
  const std::uint64_t t_journaled = ctl::mono_us();
  send_ack(c, accepted);
  const std::uint64_t t_acked = ctl::mono_us();

  ctl::histogram("serve.stage.decode_us").record(t_decoded - t_start);
  ctl::histogram("serve.stage.dedupe_us").record(t_deduped - t_decoded);
  ctl::histogram("serve.stage.merge_us").record(t_merged - t_deduped);
  ctl::histogram("serve.stage.journal_us").record(t_journaled - t_merged);
  ctl::histogram("serve.stage.ack_us").record(t_acked - t_journaled);
  ctl::histogram("serve.stage.e2e_us").record(t_acked - t_start);
  ctl::Tracer::complete("serve.frame", ctl::SpanCat::kServe, -1, span_t0,
                        ctl::Tracer::now_ns() - span_t0, sess.ctx, accepted);
  if (journal_ && journal_->should_compact()) compact_locked();
}

void ServeServer::handle_scrape(Conn& c, const std::string& payload) {
  ++stats_.scrapes;
  std::ostringstream out;
  // An optional "prometheus" payload selects the exposition format; any
  // other payload (including the historical empty one) gets v1 text, so
  // old scrapers see exactly what they always saw.
  if (payload == "prometheus") {
    ctl::write_prometheus(out, metrics_snapshot_locked());
  } else {
    ctl::write_metrics(out, metrics_snapshot_locked());
  }
  const std::string reply = encode_frame(FrameType::kScrapeReply, out.str());
  if (!send_all(c.fd, reply)) {
    log_line("scrape reply failed, closing connection");
    close_conn(c);
  }
}

void ServeServer::handle_frame(Conn& c, Frame&& f) {
  ++stats_.frames_ok;
  c.last_activity_ms = now_ms();
  if (c.session != 0) {
    const auto it = state_.sessions.find(c.session);
    if (it != state_.sessions.end()) {
      ++it->second.frames;
      it->second.last_activity_ms = c.last_activity_ms;
    }
  }
  switch (f.type) {
    case FrameType::kHello:
      handle_hello(c, f.payload);
      break;
    case FrameType::kEpochs:
      handle_epochs(c, f.payload);
      break;
    case FrameType::kHeartbeat:
      ++stats_.heartbeats;
      break;
    case FrameType::kBye:
      if (c.session != 0) {
        const auto it = state_.sessions.find(c.session);
        if (it != state_.sessions.end() &&
            ServeState::end(it->second, SessionState::kSealed)) {
          ++stats_.sessions_sealed;
          journal_transition(WalRecordType::kSeal, c.session);
          log_line("session " + std::to_string(c.session) + " sealed (bye)");
        }
      }
      close_conn(c);
      break;
    case FrameType::kScrape:
      handle_scrape(c, f.payload);
      break;
    case FrameType::kScrapeReply:
    case FrameType::kAck:
      ++stats_.drops_bad_payload;
      drop_session(c, "unexpected-frame");
      break;
  }
}

bool ServeServer::service_conn(Conn& c) {
  const resilience::FaultPlan* plan =
      options_.injector != nullptr ? &options_.injector->plan() : nullptr;
  char buf[1 << 16];
  for (;;) {
    if (c.fd < 0) return false;
    ++reads_seen_;
    if (plan != nullptr && plan->eagain_at != 0 &&
        reads_seen_ == plan->eagain_at) {
      eagain_left_ = plan->eagain_len;
    }
    if (eagain_left_ > 0) {
      // Injected EAGAIN storm: behave exactly as if the kernel had nothing
      // for us — defer to the next poll tick, counted.
      --eagain_left_;
      ++stats_.eagain_deferrals;
      return true;
    }
    std::size_t want = sizeof buf;
    if (plan != nullptr && plan->short_read_at != 0 &&
        reads_seen_ == plan->short_read_at) {
      want = 1;  // injected short read: split a header/payload boundary
    }
    const ssize_t n = ::recv(c.fd, buf, want, 0);
    if (n == 0) {
      if (c.decoder.mid_frame()) {
        // Peer died mid-frame. The torn tail is discarded; everything the
        // session already landed stays merged and the session remains
        // reattachable (the shipper will retry the whole frame).
        ++stats_.frames_torn;
        log_line("torn frame from session " + std::to_string(c.session));
      }
      close_conn(c);
      return false;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      close_conn(c);
      return false;
    }
    stats_.bytes_rx += static_cast<std::uint64_t>(n);
    const bool fed = c.decoder.feed(buf, static_cast<std::size_t>(n));
    recharge_conn(c);
    // Frames that fully decoded passed their own CRC — process them even if
    // a later byte in the same burst poisoned the stream, so a hello+frame
    // burst whose second frame is corrupt still drops a *named* session.
    while (auto f = c.decoder.next()) {
      handle_frame(c, std::move(*f));
      if (c.fd < 0) return false;  // frame handler closed/dropped us
    }
    if (!fed) {
      const FrameError err = c.decoder.error();
      switch (err) {
        case FrameError::kBadMagic: ++stats_.drops_bad_magic; break;
        case FrameError::kBadType: ++stats_.drops_bad_type; break;
        case FrameError::kOversize: ++stats_.drops_oversize; break;
        case FrameError::kEmptyPayload: ++stats_.drops_empty; break;
        case FrameError::kBadCrc: ++stats_.drops_bad_crc; break;
        case FrameError::kNone: break;
      }
      drop_session(c, to_string(err));
      return false;
    }
    if (static_cast<std::size_t>(n) < want) return true;  // drained
  }
}

void ServeServer::accept_clients() {
  const resilience::FaultPlan* plan =
      options_.injector != nullptr ? &options_.injector->plan() : nullptr;
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        ++stats_.accept_failures;
        log_line(std::string("accept: ") + std::strerror(errno));
      }
      return;
    }
    ++accepts_seen_;
    if (plan != nullptr && plan->accept_fail_at != 0 &&
        accepts_seen_ == plan->accept_fail_at) {
      // Injected accept failure: the client sees its connection vanish and
      // must retry; the daemon just counts it.
      ++stats_.accept_failures;
      log_line("injected accept failure (accept #" +
               std::to_string(accepts_seen_) + ")");
      ::close(fd);
      continue;
    }
    ever_connected_ = true;
    idle_since_ms_ = 0;
    Conn c;
    c.fd = fd;
    c.decoder = FrameDecoder(kMaxFramePayload);
    c.last_activity_ms = now_ms();
    ++stats_.connections;
    recharge_conn(c);
    conns_.emplace(fd, std::move(c));
  }
}

void ServeServer::reap_idle() {
  if (options_.reap_ms == 0) return;
  const std::uint64_t now = now_ms();
  for (auto& [id, sess] : state_.sessions) {
    if (now - sess.last_activity_ms <= options_.reap_ms) continue;
    if (!ServeState::end(sess, SessionState::kReaped)) continue;
    ++stats_.sessions_reaped;
    journal_transition(WalRecordType::kReap, id);
    ctl::Tracer::instant("serve.reap", ctl::SpanCat::kServe);
    log_line("session " + std::to_string(id) +
             " reaped (heartbeat timeout); partial contribution sealed");
    for (auto& [fd, conn] : conns_) {
      if (conn.session == id) close_conn(conn);
    }
  }
  for (auto& [fd, conn] : conns_) {
    if (conn.fd >= 0 && conn.session == 0 &&
        now - conn.last_activity_ms > options_.reap_ms) {
      log_line("closing silent pre-hello connection");
      close_conn(conn);
    }
  }
}

bool ServeServer::send_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      if (::poll(&pfd, 1, 1000) <= 0) return false;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void ServeServer::run() {
  while (!stop_.load(std::memory_order_acquire)) {
    std::vector<pollfd> fds;
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [fd, conn] : conns_) {
        fds.push_back(pollfd{fd, POLLIN, 0});
      }
    }
    const int rc =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
               static_cast<int>(options_.poll_ms));
    if (rc < 0 && errno != EINTR) break;

    std::lock_guard<std::mutex> lock(mu_);
    if (options_.drain_flag != nullptr && *options_.drain_flag != 0) {
      // SIGTERM/SIGINT: the handler only set a flag (signal-safe); the
      // actual drain — seal, snapshot, exit 0 — runs here, on the loop.
      drain_locked();
      break;
    }
    if (fds[0].revents != 0) accept_clients();
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const auto it = conns_.find(fds[i].fd);
      if (it == conns_.end() || it->second.fd < 0) continue;
      service_conn(it->second);
    }
    // Sweep closed connections out of the table.
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->second.fd < 0) {
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    reap_idle();
    update_rung();
    stats_.sessions_live = conns_.size();

    // Lifecycle hook counts sessions that reached a *terminal* state, not
    // closed connections: a client that dies mid-frame and reconnects is
    // one session across two connections, and the daemon must stay up for
    // its redelivery.
    const std::uint64_t finished = stats_.sessions_sealed +
                                   stats_.sessions_reaped +
                                   stats_.sessions_dropped;
    if (options_.exit_after_connections != 0 &&
        finished >= options_.exit_after_connections) {
      log_line("exit: " + std::to_string(finished) +
               " session(s) finished");
      break;
    }
    if (options_.idle_exit_ms != 0 && ever_connected_ && conns_.empty()) {
      const std::uint64_t now = now_ms();
      if (idle_since_ms_ == 0) idle_since_ms_ = now;
      if (now - idle_since_ms_ >= options_.idle_exit_ms) {
        log_line("exit: idle for " + std::to_string(options_.idle_exit_ms) +
                 " ms");
        break;
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [fd, conn] : conns_) close_conn(conn);
  conns_.clear();
  stats_.sessions_live = 0;
  // Whatever exit path got here, nothing journaled is left un-snapshotted.
  if (journal_ && journal_->dirty()) compact_locked();
  publish_metrics_locked();
}

std::vector<telemetry::MetricSnapshot> ServeServer::metrics_snapshot_locked() {
  publish_metrics_locked();
  return ctl::snapshot_all();
}

void ServeServer::publish_metrics_locked() {
  // Delta-publish the local counters into the global registry so scrapes
  // and `commscope metrics` files see serve.* next to every other subsystem.
  const ServeStats& s = stats_;
  ServeStats& p = published_;
  const auto pub = [](const char* name, std::uint64_t cur, std::uint64_t& last) {
    if (cur > last) ctl::counter(name).add(cur - last);
    last = cur;
  };
  pub("serve.sessions.accepted", s.sessions_accepted, p.sessions_accepted);
  pub("serve.sessions.sealed", s.sessions_sealed, p.sessions_sealed);
  pub("serve.sessions.reaped", s.sessions_reaped, p.sessions_reaped);
  pub("serve.sessions.dropped", s.sessions_dropped, p.sessions_dropped);
  pub("serve.sessions.shed", s.sessions_shed, p.sessions_shed);
  pub("serve.connections", s.connections, p.connections);
  pub("serve.connections.closed", s.connections_closed,
      p.connections_closed);
  pub("serve.frames.ok", s.frames_ok, p.frames_ok);
  pub("serve.frames.heartbeat", s.heartbeats, p.heartbeats);
  pub("serve.frames.torn", s.frames_torn, p.frames_torn);
  pub("serve.frames.bad_magic", s.drops_bad_magic, p.drops_bad_magic);
  pub("serve.frames.bad_type", s.drops_bad_type, p.drops_bad_type);
  pub("serve.frames.oversize", s.drops_oversize, p.drops_oversize);
  pub("serve.frames.empty", s.drops_empty, p.drops_empty);
  pub("serve.frames.bad_crc", s.drops_bad_crc, p.drops_bad_crc);
  pub("serve.frames.bad_payload", s.drops_bad_payload, p.drops_bad_payload);
  pub("serve.epochs.merged", s.epochs_merged, p.epochs_merged);
  pub("serve.epochs.deduped", s.epochs_deduped, p.epochs_deduped);
  pub("serve.epochs.sampled_out", s.epochs_sampled_out, p.epochs_sampled_out);
  pub("serve.epochs.shed", s.epochs_shed, p.epochs_shed);
  pub("serve.accept.failures", s.accept_failures, p.accept_failures);
  pub("serve.eagain.deferrals", s.eagain_deferrals, p.eagain_deferrals);
  pub("serve.scrapes", s.scrapes, p.scrapes);
  pub("serve.bytes.rx", s.bytes_rx, p.bytes_rx);
  pub("serve.degrade.transitions", s.degrade_transitions,
      p.degrade_transitions);
  ctl::gauge("serve.sessions.live").set(s.sessions_live);
  ctl::gauge("serve.degrade.rung").set(static_cast<std::uint64_t>(s.rung));
  ctl::gauge("serve.mem.bytes").set(tracker_.current());
  ctl::gauge("serve.mem.peak").set_max(tracker_.peak());
  if (journal_) {
    const JournalStats& j = journal_->stats();
    pub("serve.wal.records", j.records, published_.wal_records);
    pub("serve.wal.fsyncs", j.fsyncs, published_.wal_fsyncs);
    pub("serve.wal.fsync_failures", j.fsync_failures,
        published_.wal_fsync_failures);
    pub("serve.wal.write_errors", j.write_errors,
        published_.wal_write_errors);
    pub("serve.wal.compactions", j.compactions, published_.wal_compactions);
    pub("serve.wal.degrade.transitions", j.degrade_transitions,
        published_.wal_degrade_transitions);
    pub("serve.recovery.records", s.recovery_records,
        published_.recovery_records);
    pub("serve.recovery.epochs", s.recovered_epochs,
        published_.recovered_epochs);
    pub("serve.recovery.skipped", s.recovery_skipped,
        published_.recovery_skipped);
    ctl::gauge("serve.wal.rung")
        .set(static_cast<std::uint64_t>(j.policy_rung));
    ctl::gauge("serve.wal.failed").set(j.failed ? 1 : 0);
    ctl::gauge("serve.recovery.torn_tail").set(s.recovered_torn_tail ? 1 : 0);
  }
}

core::EpochTimeline ServeServer::merged_timeline() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.aggregate.timeline();
}

core::Matrix ServeServer::merged_matrix() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.aggregate.matrix();
}

std::map<std::string, std::uint64_t> ServeServer::merged_loop_totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.aggregate.loop_totals();
}

ServeStats ServeServer::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServeStats s = stats_;
  if (journal_) {
    const JournalStats& j = journal_->stats();
    s.wal_records = j.records;
    s.wal_fsyncs = j.fsyncs;
    s.wal_fsync_failures = j.fsync_failures;
    s.wal_write_errors = j.write_errors;
    s.wal_compactions = j.compactions;
    s.wal_degrade_transitions = j.degrade_transitions;
    s.wal_rung = j.policy_rung;
    s.wal_failed = j.failed;
  }
  return s;
}

}  // namespace commscope::serve
