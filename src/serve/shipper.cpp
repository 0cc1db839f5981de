#include "serve/shipper.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/epoch_io.hpp"
#include "serve/frame.hpp"
#include "serve/wire_ctx.hpp"
#include "support/atomic_file.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace commscope::serve {

namespace ctl = telemetry;

namespace {

/// Blocking connect with a deadline: nonblocking connect + poll(POLLOUT),
/// then back to blocking mode (sends are simpler and the daemon drains).
int connect_unix(const std::string& path, std::uint32_t timeout_ms) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd =
      ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      ::close(fd);
      return -1;
    }
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, static_cast<int>(timeout_ms)) <= 0) {
      ::close(fd);
      return -1;
    }
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return -1;
    }
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  return fd;
}

bool send_all_fd(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

std::string serialize_doc(const core::EpochTimeline& shape,
                          const std::vector<core::EpochSample>& epochs) {
  core::EpochTimeline doc;
  doc.threads = std::max(shape.threads, 1);
  // The reader derives the epoch count as sealed - dropped, so a partial
  // shipment must present itself as a complete small timeline.
  doc.sealed = epochs.size();
  doc.dropped = 0;
  doc.loop_labels = shape.loop_labels;
  doc.epochs = epochs;
  std::ostringstream os;
  core::write_epochs(os, doc);
  return os.str();
}

}  // namespace

EpochShipper::EpochShipper(ShipperOptions options)
    : options_(std::move(options)),
      rng_(options_.seed != 0 ? options_.seed
                              : options_.session_id ^ 0x5eedULL) {
  pending_.threads = std::max(options_.threads, 1);
  ctx_ = options_.trace_ctx != 0
             ? options_.trace_ctx
             : mint_ctx(options_.session_id, options_.seed);
}

EpochShipper::~EpochShipper() { disconnect(); }

void EpochShipper::disconnect() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rx_ = FrameDecoder(kMaxFramePayload);
}

void EpochShipper::offer(const core::EpochTimeline& t) {
  pending_.threads = std::max(pending_.threads, t.threads);
  if (!t.loop_labels.empty()) pending_.loop_labels = t.loop_labels;
  const bool was_empty = pending_.epochs.empty();
  for (const core::EpochSample& e : t.epochs) {
    if (shipped_.count(e.index) != 0 || !pending_idx_.insert(e.index).second) {
      ++stats_.skipped;
      continue;
    }
    pending_.epochs.push_back(e);
    ++stats_.offered;
  }
  // Stamp the oldest pending offer: offer->ack end-to-end latency anchor.
  if (was_empty && !pending_.epochs.empty()) first_offer_us_ = ctl::mono_us();
}

void EpochShipper::load_spill() {
  if (spill_checked_ || options_.spill_path.empty()) return;
  spill_checked_ = true;
  std::ifstream in(options_.spill_path, std::ios::binary);
  if (!in) return;
  try {
    const core::EpochTimeline spilled = core::read_epochs(in);
    const std::uint64_t before = stats_.offered;
    offer(spilled);
    stats_.replayed += stats_.offered - before;
    ctl::counter("ship.replays").add(1);
  } catch (const std::exception&) {
    // An unreadable spill (torn write during a crash) must not poison every
    // future flush; discard it and account for the loss.
    ++stats_.spill_corrupt;
    ctl::counter("ship.spill_corrupt").add(1);
  }
  in.close();
  std::remove(options_.spill_path.c_str());
}

void EpochShipper::write_spill() {
  if (options_.spill_path.empty() || pending_.epochs.empty()) return;
  // Each spill rewrites every pending epoch, including the ones the previous
  // spill held; replacing the file atomically keeps those if this write dies.
  try {
    support::write_file_atomic(options_.spill_path,
                               serialize_doc(pending_, pending_.epochs));
  } catch (const std::exception&) {
    // Best effort: the epochs stay pending in memory for the next flush.
  }
}

bool EpochShipper::ensure_connected() {
  if (fd_ >= 0) return true;
  const std::uint64_t t0 = ctl::mono_us();
  fd_ = connect_unix(options_.socket_path, options_.connect_timeout_ms);
  if (fd_ < 0) return false;
  // The ctx/tns trailer propagates this run's trace context; `tns` samples
  // our trace clock at the same instant the hello leaves, which is what the
  // daemon pairs with its own receive timestamp for offset estimation.
  const std::uint64_t tns = ctl::Tracer::now_ns();
  const std::string hello =
      "commscope-hello 1 session " + std::to_string(options_.session_id) +
      " threads " + std::to_string(std::max(options_.threads, 1)) + " ctx " +
      ctx_to_hex(ctx_) + " tns " + std::to_string(tns);
  ctl::Tracer::instant("ship.hello", ctl::SpanCat::kServe, -1, ctx_, tns);
  if (!send_frame(encode_frame(FrameType::kHello, hello))) {
    disconnect();
    return false;
  }
  ctl::histogram("ship.stage.connect_us").record(ctl::mono_us() - t0);
  ++stats_.connects;
  ctl::counter("ship.connects").add(1);
  return true;
}

bool EpochShipper::send_frame(const std::string& bytes) {
  if (fd_ < 0) return false;
  ++frames_sent_;
  const resilience::FaultPlan* plan =
      options_.injector != nullptr ? &options_.injector->plan() : nullptr;
  if (plan != nullptr && plan->drop_mid_frame_at != 0 &&
      frames_sent_ == plan->drop_mid_frame_at) {
    // Injected client crash: half the frame leaves, then the socket dies.
    // The daemon counts a torn frame; this shipper retries the whole frame
    // on a fresh connection and the daemon's dedupe absorbs the overlap.
    (void)send_all_fd(fd_, bytes.data(), bytes.size() / 2);
    disconnect();
    return false;
  }
  if (!send_all_fd(fd_, bytes.data(), bytes.size())) {
    disconnect();
    return false;
  }
  return true;
}

bool EpochShipper::send_pending() {
  // Greedy split: a document that would blow the frame cap ships as two
  // halves, recursively — each piece is a complete, CRC-trailed timeline.
  std::vector<std::vector<core::EpochSample>> chunks;
  chunks.push_back(pending_.epochs);
  std::vector<std::string> docs;
  while (!chunks.empty()) {
    std::vector<core::EpochSample> part = std::move(chunks.back());
    chunks.pop_back();
    std::string doc = serialize_doc(pending_, part);
    if (doc.size() > kMaxFramePayload && part.size() > 1) {
      const std::size_t half = part.size() / 2;
      chunks.emplace_back(part.begin(), part.begin() + half);
      chunks.emplace_back(part.begin() + half, part.end());
      continue;
    }
    docs.push_back(std::move(doc));
  }
  for (const std::string& doc : docs) {
    // Per-frame stage clocks: send (kernel hand-off) and ack (daemon round
    // trip), plus one ctx-stamped span covering the frame's whole flight so
    // the merged cross-process trace shows the client side of every ack.
    const std::uint64_t span_t0 = ctl::Tracer::now_ns();
    const std::uint64_t t0 = ctl::mono_us();
    if (!send_frame(encode_frame(FrameType::kEpochs, doc))) return false;
    const std::uint64_t t1 = ctl::mono_us();
    if (!wait_ack()) return false;
    const std::uint64_t t2 = ctl::mono_us();
    ctl::histogram("ship.stage.send_us").record(t1 - t0);
    ctl::histogram("ship.stage.ack_us").record(t2 - t1);
    ctl::Tracer::complete("ship.frame", ctl::SpanCat::kServe, -1, span_t0,
                          ctl::Tracer::now_ns() - span_t0, ctx_,
                          frames_sent_);
  }
  return true;
}

bool EpochShipper::wait_ack() {
  // send() succeeding only means the kernel buffered the bytes — a daemon
  // that closed the connection unread (injected accept failure, crash)
  // discards them. Only the daemon's explicit receipt marks delivery; a
  // timeout or EOF here fails the attempt so the retry path redelivers.
  if (fd_ < 0) return false;
  char buf[4096];
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.ack_timeout_ms);
  for (;;) {
    if (auto f = rx_.next()) {
      if (f->type == FrameType::kAck) {
        ++stats_.acks;
        // Context-aware daemons echo "ctx <hex>" after the accepted count;
        // the echo is the version negotiation — its absence means a
        // pre-context daemon, which is fine, just counted once.
        const std::size_t pos = f->payload.find(" ctx ");
        if (pos != std::string::npos &&
            ctx_from_hex(std::string_view(f->payload).substr(pos + 5)) ==
                ctx_) {
          ++stats_.acks_with_ctx;
          if (!ctx_noted_) {
            ctx_noted_ = true;
            ctl::counter("ship.ctx.echoed").add(1);
          }
        } else if (!ctx_noted_) {
          ctx_noted_ = true;
          ctl::counter("ship.ctx.unsupported").add(1);
        }
        return true;
      }
      disconnect();  // daemon speaking out of protocol
      return false;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) {
      disconnect();
      return false;
    }
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left)) <= 0) {
      disconnect();
      return false;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      disconnect();
      return false;
    }
    if (!rx_.feed(buf, static_cast<std::size_t>(n))) {
      disconnect();
      return false;
    }
  }
}

void EpochShipper::backoff_sleep(int attempt) {
  std::uint64_t ms = options_.backoff_initial_ms;
  for (int i = 0; i < attempt && ms < options_.backoff_max_ms; ++i) ms *= 2;
  ms = std::min<std::uint64_t>(ms, options_.backoff_max_ms);
  // Jitter in [ms/2, ms] — deterministic per (seed, attempt sequence), so
  // herds of restarting clients fan out but tests replay identically.
  const double jitter = 0.5 + 0.5 * rng_.next_double();
  std::this_thread::sleep_for(std::chrono::milliseconds(
      static_cast<std::uint64_t>(static_cast<double>(ms) * jitter)));
}

bool EpochShipper::flush() {
  try {
    load_spill();
    if (pending_.epochs.empty()) {
      ++stats_.flushes;
      return true;
    }
    for (int attempt = 0; attempt < std::max(options_.max_attempts, 1);
         ++attempt) {
      if (attempt > 0) backoff_sleep(attempt - 1);
      if (!ensure_connected()) {
        ++stats_.retries;
        ctl::counter("ship.retries").add(1);
        continue;
      }
      if (!send_pending()) {
        ++stats_.retries;
        ctl::counter("ship.retries").add(1);
        continue;
      }
      stats_.shipped += pending_.epochs.size();
      ctl::counter("ship.epochs.shipped").add(pending_.epochs.size());
      if (first_offer_us_ != 0) {
        // Offer-to-ack latency for the oldest epoch in this batch — the
        // client half of the end-to-end ship pipeline.
        ctl::histogram("ship.stage.e2e_us").record(ctl::mono_us() -
                                                   first_offer_us_);
        first_offer_us_ = 0;
      }
      for (const core::EpochSample& e : pending_.epochs) {
        shipped_.insert(e.index);
      }
      pending_.epochs.clear();
      pending_idx_.clear();
      if (!options_.spill_path.empty()) {
        std::remove(options_.spill_path.c_str());
      }
      ++stats_.flushes;
      return true;
    }
    write_spill();
    ++stats_.spills;
    ctl::counter("ship.spills").add(1);
    return false;
  } catch (const std::exception&) {
    // The profiled program never pays for shipping problems.
    return false;
  }
}

bool EpochShipper::ship(const core::EpochTimeline& t) {
  offer(t);
  return flush();
}

void EpochShipper::bye() {
  if (fd_ >= 0) {
    (void)send_frame(encode_frame(FrameType::kBye, {}));
    disconnect();
  }
}

void EpochShipper::heartbeat() {
  if (fd_ >= 0 || ensure_connected()) {
    (void)send_frame(encode_frame(FrameType::kHeartbeat, {}));
  }
}

bool scrape_metrics(const std::string& socket_path, std::ostream& out,
                    std::uint32_t timeout_ms, bool prometheus) {
  const int fd = connect_unix(socket_path, timeout_ms);
  if (fd < 0) return false;
  const std::string req = encode_frame(
      FrameType::kScrape, prometheus ? std::string_view("prometheus")
                                     : std::string_view{});
  if (!send_all_fd(fd, req.data(), req.size())) {
    ::close(fd);
    return false;
  }
  FrameDecoder decoder(kMaxFramePayload);
  char buf[1 << 16];
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) <= 0) break;
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    if (!decoder.feed(buf, static_cast<std::size_t>(n))) break;
    if (auto f = decoder.next()) {
      ::close(fd);
      if (f->type != FrameType::kScrapeReply) return false;
      out << f->payload;
      return true;
    }
  }
  ::close(fd);
  return false;
}

}  // namespace commscope::serve
