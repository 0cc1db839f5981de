#include "serve/journal.hpp"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>

#include "support/hash.hpp"
#include "support/textio.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace commscope::serve {

namespace ctl = telemetry;

namespace {

/// Snapshot-file slurp ceiling, like kMaxWalBytes for the log.
constexpr std::size_t kMaxSnapshotBytes = 512u << 20;
/// An fsync slower than this, three times in a row, walks the durability
/// ladder down one rung (sustained latency pressure, not a lone hiccup).
constexpr std::uint64_t kSlowFsyncMicros = 50'000;
constexpr int kSlowFsyncStreak = 3;
constexpr int kFastFsyncStreak = 64;

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const unsigned char* p) noexcept {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

bool valid_record_type(std::uint8_t t) noexcept {
  return t >= static_cast<std::uint8_t>(WalRecordType::kHello) &&
         t <= static_cast<std::uint8_t>(WalRecordType::kDrop);
}

/// kill -9 semantics for the injected crash points: the process must vanish
/// mid-operation exactly as an external SIGKILL would take it, with no
/// destructors, flushes or atexit hooks softening the landing.
[[noreturn]] void die_like_kill_nine() {
  ::kill(::getpid(), SIGKILL);
  ::_exit(137);  // unreachable unless SIGKILL delivery is somehow deferred
}

}  // namespace

const char* to_string(WalRecordType t) noexcept {
  switch (t) {
    case WalRecordType::kHello: return "hello";
    case WalRecordType::kEpochs: return "epochs";
    case WalRecordType::kSeal: return "seal";
    case WalRecordType::kReap: return "reap";
    case WalRecordType::kDrop: return "drop";
  }
  return "?";
}

const char* to_string(WalStop s) noexcept {
  switch (s) {
    case WalStop::kClean: return "clean";
    case WalStop::kTorn: return "torn-tail";
    case WalStop::kBad: return "bad-record";
  }
  return "?";
}

const char* to_string(FsyncPolicy p) noexcept {
  switch (p) {
    case FsyncPolicy::kPerAck: return "per-ack";
    case FsyncPolicy::kPerN: return "per-n";
    case FsyncPolicy::kOnCompaction: return "on-compaction";
  }
  return "?";
}

std::optional<FsyncPolicy> parse_fsync_policy(std::string_view s) noexcept {
  if (s == "per-ack") return FsyncPolicy::kPerAck;
  if (s == "per-n") return FsyncPolicy::kPerN;
  if (s == "on-compaction") return FsyncPolicy::kOnCompaction;
  return std::nullopt;
}

/// The record CRC covers type + reserved + lsn + payload (header bytes
/// 4..15 seed the payload CRC), so a bitflip anywhere but the magic — in
/// particular in the LSN, which replay's skip-below-snapshot logic trusts —
/// fails validation instead of yielding a record with forged metadata.
std::uint32_t wal_record_crc(std::string_view header_4_to_16,
                             std::string_view payload) {
  return support::crc32(payload, support::crc32(header_4_to_16));
}

std::string encode_wal_record(WalRecordType type, std::uint64_t lsn,
                              std::string_view payload) {
  std::string out;
  out.reserve(kWalHeaderBytes + payload.size());
  put_u32(out, kWalMagic);
  out.push_back(static_cast<char>(type));
  out.push_back(0);
  put_u16(out, 0);
  put_u64(out, lsn);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out,
          wal_record_crc(std::string_view(out).substr(4, 12), payload));
  out.append(payload);
  return out;
}

std::optional<WalRecord> WalReader::next() {
  if (done_) return std::nullopt;
  const std::size_t remain = image_.size() - cursor_;
  if (remain == 0) {
    done_ = true;
    stop_ = WalStop::kClean;
    reason_ = "clean";
    return std::nullopt;
  }
  if (remain < kWalHeaderBytes) {
    done_ = true;
    stop_ = WalStop::kTorn;
    reason_ = "torn header";
    return std::nullopt;
  }
  const auto* h =
      reinterpret_cast<const unsigned char*>(image_.data() + cursor_);
  if (get_u32(h) != kWalMagic) {
    done_ = true;
    stop_ = WalStop::kBad;
    reason_ = "bad magic";
    return std::nullopt;
  }
  if (!valid_record_type(h[4]) || h[5] != 0 || h[6] != 0 || h[7] != 0) {
    done_ = true;
    stop_ = WalStop::kBad;
    reason_ = "bad record type";
    return std::nullopt;
  }
  const std::uint64_t lsn = get_u64(h + 8);
  const std::uint32_t len = get_u32(h + 16);
  const std::uint32_t want_crc = get_u32(h + 20);
  if (len == 0 || len > max_payload_) {
    // A zero or outlandish length prefix is a lie, not a torn write: no
    // record type has an empty payload and the cap bounds every real one.
    done_ = true;
    stop_ = WalStop::kBad;
    reason_ = "length prefix out of range";
    return std::nullopt;
  }
  if (remain - kWalHeaderBytes < len) {
    done_ = true;
    stop_ = WalStop::kTorn;
    reason_ = "torn payload";
    return std::nullopt;
  }
  const std::string_view payload =
      image_.substr(cursor_ + kWalHeaderBytes, len);
  if (wal_record_crc(image_.substr(cursor_ + 4, 12), payload) != want_crc) {
    done_ = true;
    stop_ = WalStop::kBad;
    reason_ = "record crc mismatch";
    return std::nullopt;
  }
  cursor_ += kWalHeaderBytes + len;
  consumed_ = cursor_;
  ++records_;
  WalRecord r;
  r.lsn = lsn;
  r.type = static_cast<WalRecordType>(h[4]);
  r.payload.assign(payload);
  return r;
}

// --- journal -----------------------------------------------------------------

Journal::Journal(JournalOptions options) : options_(std::move(options)) {
  stats_.policy_rung = static_cast<int>(options_.policy);
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Journal::wal_path() const { return options_.dir + "/wal.log"; }

std::string Journal::snapshot_path() const {
  return options_.dir + "/snapshot.commscope";
}

bool Journal::recover(std::string& snapshot, std::vector<WalRecord>& tail,
                      std::string& error) {
  ctl::ScopedSpan span("wal.recover", ctl::SpanCat::kWal);
  // A tmp file is a compaction the crash interrupted: the rename never
  // happened, so the previous snapshot (if any) is still authoritative.
  ::unlink((snapshot_path() + ".tmp").c_str());

  struct stat st{};
  if (::stat(snapshot_path().c_str(), &st) == 0) {
    std::ifstream in(snapshot_path(), std::ios::binary);
    if (!in) {
      error = "journal: cannot read " + snapshot_path();
      return false;
    }
    try {
      snapshot = support::slurp_stream(in, kMaxSnapshotBytes, "serve-snapshot");
    } catch (const std::runtime_error& e) {
      error = std::string("journal: ") + e.what();
      return false;
    }
    stats_.recovered_snapshot = true;
    stats_.snapshot_bytes = snapshot.size();
  }

  if (::stat(wal_path().c_str(), &st) == 0) {
    std::ifstream in(wal_path(), std::ios::binary);
    if (!in) {
      error = "journal: cannot read " + wal_path();
      return false;
    }
    std::string image;
    try {
      image = support::slurp_stream(in, kMaxWalBytes, "serve-wal");
    } catch (const std::runtime_error& e) {
      error = std::string("journal: ") + e.what();
      return false;
    }
    // The recovery image is real memory the overload ladder must see;
    // charged while the replay holds it, discharged when it goes away.
    if (options_.tracker != nullptr) options_.tracker->add(image.size());
    stats_.wal_bytes_scanned = image.size();
    WalReader reader(image, kMaxWalPayload);
    while (auto r = reader.next()) {
      tail.push_back(std::move(*r));
      if (r->lsn > lsn_) lsn_ = r->lsn;
    }
    stats_.replay_records = reader.records();
    if (reader.stop() != WalStop::kClean) {
      // Torn or damaged tail: recover the validated prefix, by design. The
      // damage is quarantined because the post-recovery compaction seals
      // the prefix into a snapshot and truncates this file.
      stats_.torn_tail = true;
      stats_.torn_reason = reader.stop_reason();
    }
    if (options_.tracker != nullptr) options_.tracker->sub(image.size());
  }
  for (const WalRecord& r : tail) {
    if (r.lsn > lsn_) lsn_ = r.lsn;
  }
  return true;
}

void Journal::discard_state() noexcept {
  ::unlink(wal_path().c_str());
  ::unlink(snapshot_path().c_str());
  ::unlink((snapshot_path() + ".tmp").c_str());
}

bool Journal::open(std::string& error) {
  if (::mkdir(options_.dir.c_str(), 0777) != 0 && errno != EEXIST) {
    error = "journal: mkdir " + options_.dir + ": " + std::strerror(errno);
    return false;
  }
  fd_ = ::open(wal_path().c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    error = "journal: open " + wal_path() + ": " + std::strerror(errno);
    return false;
  }
  return true;
}

bool Journal::write_all(int fd, std::string_view bytes) noexcept {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

FsyncPolicy Journal::effective_policy() const noexcept {
  // The configured policy is a floor; memory pressure and sustained fsync
  // latency each push the effective rung further down the ladder.
  int rung = static_cast<int>(options_.policy);
  if (pressure_rung_ == 1 && rung < static_cast<int>(FsyncPolicy::kPerN)) {
    rung = static_cast<int>(FsyncPolicy::kPerN);
  } else if (pressure_rung_ >= 2) {
    rung = static_cast<int>(FsyncPolicy::kOnCompaction);
  }
  if (latency_rung_ > rung) rung = latency_rung_;
  if (rung > static_cast<int>(FsyncPolicy::kOnCompaction)) {
    rung = static_cast<int>(FsyncPolicy::kOnCompaction);
  }
  return static_cast<FsyncPolicy>(rung);
}

void Journal::update_rung() noexcept {
  const int want = static_cast<int>(effective_policy());
  if (want != stats_.policy_rung) {
    ctl::Tracer::instant(
        want > stats_.policy_rung ? "serve.wal.degrade" : "serve.wal.recover",
        ctl::SpanCat::kWal);
    ++stats_.degrade_transitions;
    stats_.policy_rung = want;
  }
}

void Journal::set_pressure(int rung) noexcept {
  pressure_rung_ = rung;
  update_rung();
}

void Journal::note_fsync_latency(std::uint64_t micros) noexcept {
  ctl::histogram("serve.wal.fsync_us").record(micros);
  if (micros >= kSlowFsyncMicros) {
    consecutive_fast_ = 0;
    if (++consecutive_slow_ >= kSlowFsyncStreak &&
        latency_rung_ < static_cast<int>(FsyncPolicy::kOnCompaction)) {
      ++latency_rung_;
      consecutive_slow_ = 0;
    }
  } else {
    consecutive_slow_ = 0;
    if (++consecutive_fast_ >= kFastFsyncStreak && latency_rung_ > 0) {
      --latency_rung_;
      consecutive_fast_ = 0;
    }
  }
  update_rung();
}

void Journal::fail(const char* what) noexcept {
  (void)what;
  ++stats_.write_errors;
  stats_.failed = true;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Journal::run_barrier() noexcept {
  const FsyncPolicy p = effective_policy();
  if (p == FsyncPolicy::kOnCompaction) return true;
  if (p == FsyncPolicy::kPerN &&
      since_fsync_ < std::max<std::uint32_t>(options_.fsync_every, 1)) {
    return true;
  }
  ++fsyncs_seen_;
  const resilience::FaultPlan* plan =
      options_.injector != nullptr ? &options_.injector->plan() : nullptr;
  const auto t0 = std::chrono::steady_clock::now();
  int rc;
  if (plan != nullptr && plan->wal_fsync_fail_at != 0 &&
      fsyncs_seen_ == plan->wal_fsync_fail_at) {
    rc = -1;  // injected fsync failure (full disk, dying device)
  } else {
    rc = ::fdatasync(fd_);
  }
  const auto micros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  if (rc != 0) {
    // A failed barrier is a durability loss, not a data loss: the bytes are
    // written, the page cache survives kill -9, and the policy degrades one
    // rung instead of taking the daemon down.
    ++stats_.fsync_failures;
    if (latency_rung_ < static_cast<int>(FsyncPolicy::kOnCompaction)) {
      ++latency_rung_;
      update_rung();
    }
    return false;
  }
  ++stats_.fsyncs;
  since_fsync_ = 0;
  note_fsync_latency(micros);
  return true;
}

bool Journal::append(WalRecordType type, std::string_view payload,
                     bool barrier) {
  return append(type, {}, payload, barrier);
}

bool Journal::append(WalRecordType type, std::string_view prefix,
                     std::string_view payload, bool barrier) {
  if (stats_.failed || fd_ < 0) return false;
  ++appends_seen_;
  // Encode into the reusable scratch buffer: the hot ingest path appends
  // one record per epochs frame, so steady-state this is a single memcpy of
  // the frame payload with zero allocations — the record is (header,
  // prefix, payload) with the CRC chained across all three, identical to
  // encode_wal_record(type, lsn, prefix + payload).
  std::string& record = scratch_;
  record.clear();
  record.reserve(kWalHeaderBytes + prefix.size() + payload.size());
  put_u32(record, kWalMagic);
  record.push_back(static_cast<char>(type));
  record.push_back(0);
  put_u16(record, 0);
  put_u64(record, ++lsn_);
  put_u32(record,
          static_cast<std::uint32_t>(prefix.size() + payload.size()));
  const std::uint32_t crc = support::crc32(
      payload, support::crc32(prefix,
                              support::crc32(std::string_view(record)
                                                 .substr(4, 12))));
  put_u32(record, crc);
  record.append(prefix);
  record.append(payload);
  const resilience::FaultPlan* plan =
      options_.injector != nullptr ? &options_.injector->plan() : nullptr;
  if (plan != nullptr && plan->wal_torn_tail_at != 0 &&
      appends_seen_ == plan->wal_torn_tail_at) {
    // Injected kill -9 mid-record-write: half the record reaches the log,
    // then the process vanishes. No ack was sent, so recovery + client
    // redelivery must reproduce the exact no-crash state.
    (void)write_all(fd_, std::string_view(record).substr(0, record.size() / 2));
    die_like_kill_nine();
  }
  if (plan != nullptr && plan->wal_write_short_at != 0 &&
      appends_seen_ == plan->wal_write_short_at) {
    // Injected short write (ENOSPC-shaped): the journal gives up durably
    // but the daemon keeps serving; the torn record on disk is what the
    // next recovery must tolerate.
    (void)write_all(fd_, std::string_view(record).substr(0, record.size() / 2));
    fail("injected short write");
    return false;
  }
  if (!write_all(fd_, record)) {
    fail("write");
    return false;
  }
  ++stats_.records;
  stats_.bytes += record.size();
  ++since_fsync_;
  ++since_compact_;
  dirty_ = true;
  if (barrier) return run_barrier();
  return true;
}

bool Journal::compact(std::string_view state) {
  if (fd_ < 0 && !stats_.failed) return false;
  ctl::ScopedSpan span("wal.compact", ctl::SpanCat::kWal);
  ++compactions_seen_;
  const resilience::FaultPlan* plan =
      options_.injector != nullptr ? &options_.injector->plan() : nullptr;
  const std::string tmp = snapshot_path() + ".tmp";
  const int sfd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (sfd < 0) return false;
  if (plan != nullptr && plan->snapshot_crash_at != 0 &&
      compactions_seen_ == plan->snapshot_crash_at) {
    // Injected kill -9 mid-snapshot: a partial tmp file is left behind; the
    // previous snapshot and the full WAL remain authoritative.
    (void)write_all(sfd, state.substr(0, state.size() / 2));
    die_like_kill_nine();
  }
  if (!write_all(sfd, state) || ::fsync(sfd) != 0) {
    ::close(sfd);
    ::unlink(tmp.c_str());
    return false;
  }
  ::close(sfd);
  if (::rename(tmp.c_str(), snapshot_path().c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  // Make the rename and the truncate durable: sync the directory, then cut
  // the WAL back to empty — every journaled record is now inside the
  // snapshot, so replay starts from its LSN.
  const int dfd = ::open(options_.dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
  if (fd_ >= 0 && ::ftruncate(fd_, 0) != 0) {
    fail("ftruncate");
    return false;
  }
  ++stats_.compactions;
  since_compact_ = 0;
  since_fsync_ = 0;
  dirty_ = false;
  return true;
}

bool Journal::should_compact() const noexcept {
  return options_.compact_every != 0 &&
         since_compact_ >= options_.compact_every;
}

}  // namespace commscope::serve
