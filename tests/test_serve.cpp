// Profile-as-a-service suite: wire framing under hostile bytes, per-session
// crash isolation, exactly-once delivery (retry + dedupe), heartbeat
// reaping, the overload ladder, the scrape endpoint, spill/replay across a
// daemon restart — and the differential soak: 8 concurrent clients shipping
// through injected socket faults (accept failure, short read, EAGAIN storm,
// client death mid-frame) must leave the daemon live with a merged matrix
// bit-identical to the sum of every client's ground truth.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/epoch_io.hpp"
#include "core/flight_recorder.hpp"
#include "resilience/fault_injector.hpp"
#include "serve/frame.hpp"
#include "serve/journal.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/shipper.hpp"
#include "serve/wire_ctx.hpp"
#include "support/rng.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace cc = commscope::core;
namespace cr = commscope::resilience;
namespace cs = commscope::support;
namespace ctl = commscope::telemetry;
namespace sv = commscope::serve;

namespace {

std::string next_socket_path() {
  static int n = 0;
  return "/tmp/cs_serve_" + std::to_string(::getpid()) + "_" +
         std::to_string(++n) + ".sock";
}

bool wait_until(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// Runs a ServeServer on its own thread; stop() joins.
struct ServerHandle {
  sv::ServeServer server;
  std::thread th;

  explicit ServerHandle(sv::ServeOptions o) : server(std::move(o)) {}
  ~ServerHandle() { stop(); }

  bool start() {
    if (!server.open()) return false;
    th = std::thread([this] { server.run(); });
    return true;
  }
  void stop() {
    server.stop();
    if (th.joinable()) th.join();
  }
};

sv::ServeOptions fast_options(const std::string& socket) {
  sv::ServeOptions o;
  o.socket_path = socket;
  o.poll_ms = 5;
  o.reap_ms = 0;  // tests that want reaping opt in explicitly
  return o;
}

sv::ShipperOptions shipper_options(const std::string& socket,
                                   std::uint64_t session) {
  sv::ShipperOptions o;
  o.socket_path = socket;
  o.spill_path = socket + "." + std::to_string(session) + ".spill.epochs";
  o.session_id = session;
  o.threads = 4;
  o.max_attempts = 8;
  o.backoff_initial_ms = 2;
  o.backoff_max_ms = 50;
  o.connect_timeout_ms = 200;
  return o;
}

/// Deterministic per-client ground truth: `epochs` epochs of a 4-thread run,
/// with loop shares under two labels every client spells identically (the
/// cross-process merge key).
cc::EpochTimeline make_truth(int epochs, std::uint64_t seed,
                             std::uint64_t first_index = 0) {
  cs::SplitMix64 rng(seed);
  cc::EpochTimeline t;
  t.threads = 4;
  t.sealed = static_cast<std::uint64_t>(epochs);
  t.dropped = 0;
  t.loop_labels.emplace_back(0, "soak:loop-a");
  t.loop_labels.emplace_back(1, "soak:loop-b");
  for (int i = 0; i < epochs; ++i) {
    cc::EpochSample e;
    e.index = first_index + static_cast<std::uint64_t>(i);
    e.first_access = e.index * 100;
    e.last_access = e.first_access + 99;
    e.reason = cc::EpochSeal::kAccesses;
    const int cells = 1 + static_cast<int>(rng.next_below(4));
    for (int k = 0; k < cells; ++k) {
      cc::EpochCell c;
      c.producer = static_cast<std::uint16_t>(rng.next_below(4));
      c.consumer = static_cast<std::uint16_t>(rng.next_below(4));
      c.bytes = 1 + rng.next_below(512);
      e.bytes += c.bytes;
      e.cells.push_back(c);
    }
    e.dependencies = static_cast<std::uint64_t>(cells);
    cc::EpochLoopShare share;
    share.loop = static_cast<std::uint32_t>(i % 2);
    share.bytes = e.bytes;
    e.loops.push_back(share);
    t.epochs.push_back(std::move(e));
  }
  return t;
}

int raw_connect(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  for (int i = 0; i < 200; ++i) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0) {
      return fd;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::close(fd);
  return -1;
}

void raw_send(int fd, const std::string& bytes) {
  (void)::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

// --- wire framing -----------------------------------------------------------

TEST(ServeFrame, RoundTripWholeAndByteAtATime) {
  const std::string payload = "commscope payload \x01\x02\xff bytes";
  const std::string hello = sv::encode_frame(sv::FrameType::kHello, payload);
  const std::string beat = sv::encode_frame(sv::FrameType::kHeartbeat, {});

  sv::FrameDecoder whole;
  ASSERT_TRUE(whole.feed(hello.data(), hello.size()));
  ASSERT_TRUE(whole.feed(beat.data(), beat.size()));
  auto f1 = whole.next();
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->type, sv::FrameType::kHello);
  EXPECT_EQ(f1->payload, payload);
  auto f2 = whole.next();
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->type, sv::FrameType::kHeartbeat);
  EXPECT_TRUE(f2->payload.empty());
  EXPECT_FALSE(whole.next().has_value());
  EXPECT_FALSE(whole.mid_frame());

  // One byte at a time: worst-case reassembly (short reads).
  sv::FrameDecoder dribble;
  const std::string stream = hello + beat + hello;
  for (char ch : stream) ASSERT_TRUE(dribble.feed(&ch, 1));
  int frames = 0;
  while (dribble.next().has_value()) ++frames;
  EXPECT_EQ(frames, 3);
  EXPECT_FALSE(dribble.poisoned());
}

TEST(ServeFrame, MidFrameDetectsTornStreams) {
  const std::string f = sv::encode_frame(sv::FrameType::kEpochs, "payload");
  sv::FrameDecoder d;
  ASSERT_TRUE(d.feed(f.data(), f.size() - 3));  // peer dies 3 bytes short
  EXPECT_TRUE(d.mid_frame());
  EXPECT_FALSE(d.next().has_value());
  EXPECT_FALSE(d.poisoned());  // torn, not hostile
}

TEST(ServeFrame, GarbagePoisonsAsBadMagic) {
  sv::FrameDecoder d;
  const std::string junk = "this is not a commscope frame at all........";
  EXPECT_FALSE(d.feed(junk.data(), junk.size()));
  EXPECT_TRUE(d.poisoned());
  EXPECT_EQ(d.error(), sv::FrameError::kBadMagic);
  // Poisoned decoders never resynchronize, even on a now-valid frame.
  const std::string ok = sv::encode_frame(sv::FrameType::kHeartbeat, {});
  EXPECT_FALSE(d.feed(ok.data(), ok.size()));
  EXPECT_FALSE(d.next().has_value());
}

TEST(ServeFrame, CrcBitflipPoisons) {
  std::string f = sv::encode_frame(sv::FrameType::kEpochs, "epoch document");
  f[sv::kFrameHeaderBytes + 3] ^= 0x20;  // flip one payload bit
  sv::FrameDecoder d;
  EXPECT_FALSE(d.feed(f.data(), f.size()));
  EXPECT_EQ(d.error(), sv::FrameError::kBadCrc);
}

TEST(ServeFrame, LengthPrefixLiesRejectedBeforeAllocation) {
  // Header claims 100 MiB against a 1 KiB cap: the decoder must poison on
  // the header alone, without reserving payload storage.
  std::string f = sv::encode_frame(sv::FrameType::kEpochs, "x");
  f[8] = 0;  // rewrite payload_len (LE u32 at offset 8) to 100 MiB
  f[9] = 0;
  f[10] = 0x40;
  f[11] = 0x06;
  sv::FrameDecoder d(1024);
  EXPECT_FALSE(d.feed(f.data(), f.size()));
  EXPECT_EQ(d.error(), sv::FrameError::kOversize);
  EXPECT_LT(d.buffer_capacity(), std::size_t{2048});

  // len = 0 for a type that requires a payload is the other lie.
  std::string zero = sv::encode_frame(sv::FrameType::kEpochs, "payload");
  zero[8] = zero[9] = zero[10] = zero[11] = 0;
  sv::FrameDecoder d2;
  EXPECT_FALSE(d2.feed(zero.data(), zero.size()));
  EXPECT_EQ(d2.error(), sv::FrameError::kEmptyPayload);
}

TEST(ServeFrame, UnknownTypeAndReservedBytesRejected) {
  std::string f = sv::encode_frame(sv::FrameType::kHello, "hi");
  f[4] = 42;  // unknown type
  sv::FrameDecoder d;
  EXPECT_FALSE(d.feed(f.data(), f.size()));
  EXPECT_EQ(d.error(), sv::FrameError::kBadType);

  std::string r = sv::encode_frame(sv::FrameType::kHello, "hi");
  r[6] = 1;  // nonzero reserved byte
  sv::FrameDecoder d2;
  EXPECT_FALSE(d2.feed(r.data(), r.size()));
  EXPECT_EQ(d2.error(), sv::FrameError::kBadType);
}

// --- merge + isolation ------------------------------------------------------

TEST(Serve, TwoClientMergeEqualsSumOfGroundTruths) {
  const std::string socket = next_socket_path();
  ServerHandle h(fast_options(socket));
  ASSERT_TRUE(h.start());

  const cc::EpochTimeline t1 = make_truth(3, 0xAAA);
  const cc::EpochTimeline t2 = make_truth(3, 0xBBB);
  sv::EpochShipper s1(shipper_options(socket, 1));
  sv::EpochShipper s2(shipper_options(socket, 2));
  ASSERT_TRUE(s1.ship(t1));
  ASSERT_TRUE(s2.ship(t2));
  ASSERT_TRUE(wait_until(
      [&] { return h.server.snapshot().epochs_merged == 6; }));

  cc::Matrix expected = t1.total();
  expected += t2.total();
  EXPECT_TRUE(h.server.merged_matrix() == expected);

  // Loop shares merged by *label*: both clients' process-local ids land in
  // one shared vocabulary.
  const auto loops = h.server.merged_loop_totals();
  ASSERT_EQ(loops.size(), 2u);
  std::uint64_t want_a = 0;
  for (const auto& t : {t1, t2}) {
    for (const cc::EpochSample& e : t.epochs) {
      for (const cc::EpochLoopShare& s : e.loops) {
        if (s.loop == 0) want_a += s.bytes;
      }
    }
  }
  EXPECT_EQ(loops.at("soak:loop-a"), want_a);

  // The merged timeline is a valid epoch_io document (report-renderable).
  std::ostringstream os;
  cc::write_epochs(os, h.server.merged_timeline());
  std::istringstream is(os.str());
  EXPECT_EQ(cc::read_epochs(is).epochs.size(), 6u);
}

TEST(Serve, HostileClientDropsAloneAggregateSurvives) {
  const std::string socket = next_socket_path();
  ServerHandle h(fast_options(socket));
  ASSERT_TRUE(h.start());

  const cc::EpochTimeline good = make_truth(3, 0xC0FFEE);
  sv::EpochShipper s1(shipper_options(socket, 10));
  ASSERT_TRUE(s1.ship(good));
  ASSERT_TRUE(wait_until(
      [&] { return h.server.snapshot().epochs_merged == 3; }));

  // Client 2: raw garbage — poisoned pre-hello, counted as bad magic.
  int fd = raw_connect(socket);
  ASSERT_GE(fd, 0);
  raw_send(fd, "GARBAGE GARBAGE GARBAGE GARBAGE");
  ::close(fd);

  // Client 3: valid hello, then a frame whose payload was bit-flipped.
  fd = raw_connect(socket);
  ASSERT_GE(fd, 0);
  raw_send(fd, sv::encode_frame(sv::FrameType::kHello,
                                "commscope-hello 1 session 11 threads 4"));
  std::string bad = sv::encode_frame(sv::FrameType::kEpochs, "not epochs");
  bad[sv::kFrameHeaderBytes + 1] ^= 0x01;
  raw_send(fd, bad);
  ::close(fd);

  // Client 4: frame-valid but the epoch document inside is hostile.
  fd = raw_connect(socket);
  ASSERT_GE(fd, 0);
  raw_send(fd, sv::encode_frame(sv::FrameType::kHello,
                                "commscope-hello 1 session 12 threads 4"));
  raw_send(fd, sv::encode_frame(sv::FrameType::kEpochs, "not epochs at all"));
  ::close(fd);

  ASSERT_TRUE(wait_until([&] {
    const sv::ServeStats s = h.server.snapshot();
    return s.drops_bad_magic >= 1 && s.drops_bad_crc >= 1 &&
           s.drops_bad_payload >= 1 && s.sessions_dropped >= 2;
  }));

  // The aggregate never saw a hostile byte, and the daemon still serves.
  EXPECT_TRUE(h.server.merged_matrix() == good.total());
  sv::EpochShipper s5(shipper_options(socket, 13));
  EXPECT_TRUE(s5.ship(make_truth(1, 0xD00D, 100)));
  EXPECT_TRUE(wait_until(
      [&] { return h.server.snapshot().epochs_merged == 4; }));
}

TEST(Serve, RedeliveryDedupesBySessionAndEpochIndex) {
  const std::string socket = next_socket_path();
  ServerHandle h(fast_options(socket));
  ASSERT_TRUE(h.start());

  const cc::EpochTimeline t = make_truth(3, 0x5EED);
  sv::EpochShipper first(shipper_options(socket, 42));
  ASSERT_TRUE(first.ship(t));
  // A second shipper presenting the same session id (a restarted client
  // re-shipping its sidecar) redelivers everything; the ledger absorbs it.
  sv::EpochShipper second(shipper_options(socket, 42));
  ASSERT_TRUE(second.ship(t));

  ASSERT_TRUE(wait_until(
      [&] { return h.server.snapshot().epochs_deduped == 3; }));
  const sv::ServeStats s = h.server.snapshot();
  EXPECT_EQ(s.epochs_merged, 3u);
  EXPECT_TRUE(h.server.merged_matrix() == t.total());
}

TEST(Serve, HeartbeatTimeoutReapsSealsPartialContribution) {
  const std::string socket = next_socket_path();
  sv::ServeOptions o = fast_options(socket);
  o.reap_ms = 100;
  ServerHandle h(o);
  ASSERT_TRUE(h.start());

  sv::EpochShipper s(shipper_options(socket, 7));
  ASSERT_TRUE(s.ship(make_truth(2, 0xFEED)));
  ASSERT_TRUE(wait_until(
      [&] { return h.server.snapshot().epochs_merged == 2; }));

  // The client goes silent (no heartbeat, no bye): reaped, contribution
  // stays merged.
  ASSERT_TRUE(wait_until(
      [&] { return h.server.snapshot().sessions_reaped == 1; }));
  EXPECT_EQ(h.server.snapshot().epochs_merged, 2u);

  // A reaped session is sealed: presenting its id again is refused.
  sv::ShipperOptions again = shipper_options(socket, 7);
  again.max_attempts = 2;
  sv::EpochShipper late(again);
  EXPECT_FALSE(late.ship(make_truth(1, 0xFEED, 50)));
  EXPECT_TRUE(wait_until(
      [&] { return h.server.snapshot().sessions_shed >= 1; }));
  std::remove(again.spill_path.c_str());
}

TEST(Serve, OverloadLadderDegradesInsteadOfDying) {
  const std::string socket = next_socket_path();
  sv::ServeOptions o = fast_options(socket);
  o.mem_budget_bytes = 24 * 1024;
  ServerHandle h(o);
  ASSERT_TRUE(h.start());

  // One epoch per frame so the ladder's frame-sampling is observable.
  sv::EpochShipper s(shipper_options(socket, 3));
  const int kFrames = 300;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(s.ship(make_truth(1, 0x1000 + i, i)))
        << "daemon died at frame " << i;
  }
  ASSERT_TRUE(wait_until([&] {
    const sv::ServeStats st = h.server.snapshot();
    return st.epochs_merged + st.epochs_sampled_out + st.epochs_shed ==
           kFrames;
  }));
  const sv::ServeStats st = h.server.snapshot();
  // The ladder fired, shed accuracy, and every lost epoch is accounted for.
  EXPECT_GE(st.degrade_transitions, 1u);
  EXPECT_GT(st.epochs_sampled_out + st.epochs_shed, 0u);
  EXPECT_LT(st.epochs_merged, static_cast<std::uint64_t>(kFrames));
  EXPECT_GE(st.rung, 1);
}

TEST(Serve, ScrapeEndpointServesParseableMetrics) {
  const std::string socket = next_socket_path();
  ServerHandle h(fast_options(socket));
  ASSERT_TRUE(h.start());
  sv::EpochShipper s(shipper_options(socket, 5));
  ASSERT_TRUE(s.ship(make_truth(2, 0xABC)));

  std::ostringstream text;
  ASSERT_TRUE(sv::scrape_metrics(socket, text));
  EXPECT_NE(text.str().find("# commscope-metrics v1"), std::string::npos);
  EXPECT_NE(text.str().find("serve.epochs.merged"), std::string::npos);
  std::istringstream in(text.str());
  EXPECT_FALSE(ctl::read_metrics(in).empty());
}

// --- spill + replay ---------------------------------------------------------

TEST(Serve, ShipperSpillsWhenDaemonUnreachable) {
  const std::string socket = "/tmp/cs_serve_nobody_" +
                             std::to_string(::getpid()) + ".sock";
  sv::ShipperOptions o = shipper_options(socket, 9);
  o.max_attempts = 3;
  sv::EpochShipper s(o);
  const cc::EpochTimeline t = make_truth(4, 0x404);
  EXPECT_FALSE(s.ship(t));
  EXPECT_EQ(s.stats().spills, 1u);

  // The spill is a first-class .epochs sidecar: report/diff can read it.
  std::ifstream in(o.spill_path);
  ASSERT_TRUE(in.good());
  const cc::EpochTimeline spilled = cc::read_epochs(in);
  EXPECT_EQ(spilled.epochs.size(), 4u);
  EXPECT_TRUE(spilled.total() == t.total());
  std::remove(o.spill_path.c_str());
}

TEST(Serve, SpillReplaysExactlyOnceAcrossDaemonRestart) {
  const std::string socket = next_socket_path();
  auto h1 = std::make_unique<ServerHandle>(fast_options(socket));
  ASSERT_TRUE(h1->start());

  sv::ShipperOptions o = shipper_options(socket, 777);
  o.max_attempts = 2;
  sv::EpochShipper s1(o);
  ASSERT_TRUE(s1.ship(make_truth(3, 0x111, 0)));  // epochs 0..2 land
  ASSERT_TRUE(wait_until(
      [&] { return h1->server.snapshot().epochs_merged == 3; }));

  // Daemon dies mid-stream; the next flush exhausts retries and spills.
  h1.reset();
  s1.offer(make_truth(3, 0x222, 3));  // epochs 3..5
  EXPECT_FALSE(s1.flush());
  ASSERT_TRUE(file_exists(o.spill_path));
  {
    // Only the unshipped epochs spill — 0..2 are in the shipped ledger.
    std::ifstream in(o.spill_path);
    EXPECT_EQ(cc::read_epochs(in).epochs.size(), 3u);
  }

  // Daemon restarts; a fresh shipper (same session) replays the spill
  // exactly once.
  ServerHandle h2(fast_options(socket));
  ASSERT_TRUE(h2.start());
  sv::EpochShipper s2(o);
  EXPECT_TRUE(s2.flush());
  EXPECT_EQ(s2.stats().replayed, 3u);
  ASSERT_TRUE(wait_until(
      [&] { return h2.server.snapshot().epochs_merged == 3; }));
  EXPECT_EQ(h2.server.snapshot().epochs_deduped, 0u);
  EXPECT_FALSE(file_exists(o.spill_path));  // consumed, not re-replayable

  // A second flush finds nothing pending and changes nothing.
  EXPECT_TRUE(s2.flush());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(h2.server.snapshot().epochs_merged, 3u);
}

// --- the differential soak --------------------------------------------------

TEST(ServeSoak, EightClientsThroughInjectedFaultsMergeBitIdentical) {
  const std::string socket = next_socket_path();
  // Trace the whole soak: client-side ship spans and daemon-side merge
  // spans land in one ring set, each stamped with the shipper's ctx.
  ctl::Tracer::enable();

  // Daemon-side socket faults: the 2nd accept is closed unread, the 5th
  // recv is cut to one byte (splits a header), the 9th recv starts an
  // 8-read EAGAIN storm. None may lose data: the ack protocol redelivers
  // and the dedupe ledger absorbs the overlap.
  cr::FaultPlan server_plan;
  server_plan.accept_fail_at = 2;
  server_plan.short_read_at = 5;
  server_plan.eagain_at = 9;
  server_plan.eagain_len = 8;
  cr::FaultInjector server_injector(server_plan, cr::KillMode::kThrow);

  sv::ServeOptions o = fast_options(socket);
  o.injector = &server_injector;
  ServerHandle h(o);
  ASSERT_TRUE(h.start());

  // Client 2 dies mid-frame on its 2nd frame (the first epochs frame),
  // reconnects and redelivers.
  cr::FaultPlan client_plan;
  client_plan.drop_mid_frame_at = 2;
  cr::FaultInjector client_injector(client_plan, cr::KillMode::kThrow);

  constexpr int kClients = 8;
  constexpr int kEpochsPer = 25;
  std::vector<cc::EpochTimeline> truths;
  truths.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    truths.push_back(make_truth(kEpochsPer, 0x9000 + i));
  }

  std::vector<std::thread> clients;
  std::vector<int> ok(kClients, 0);
  std::vector<std::string> ctxs(kClients);
  std::vector<sv::ShipStats> stats(kClients);
  const auto run_client = [&](int i) {
    sv::ShipperOptions so = shipper_options(socket, 100 + i);
    if (i == 2) so.injector = &client_injector;
    sv::EpochShipper shipper(so);
    ctxs[static_cast<std::size_t>(i)] = sv::ctx_to_hex(shipper.trace_ctx());
    if (shipper.ship(truths[static_cast<std::size_t>(i)])) {
      // Client 0 "crashes" without a goodbye — its session stays active
      // so the redelivery below reattaches it.
      if (i != 0) shipper.bye();
      ok[static_cast<std::size_t>(i)] = 1;
    }
    stats[static_cast<std::size_t>(i)] = shipper.stats();
  };
  // Client 2 connects alone and the others start only once its torn frame
  // has reached the daemon. Otherwise client 2's first connection could be
  // the 2nd accept, which the accept fault closes unread, and the half
  // frame would never arrive. This way the failed accept is another
  // client's or client 2's reconnect, after the tear.
  clients.emplace_back(run_client, 2);
  (void)wait_until([&] { return h.server.snapshot().frames_torn >= 1; });
  for (int i = 0; i < kClients; ++i) {
    if (i != 2) clients.emplace_back(run_client, i);
  }
  for (std::thread& t : clients) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(ok[static_cast<std::size_t>(i)], 1) << "client " << i;
  }
  ASSERT_TRUE(wait_until([&] {
    return h.server.snapshot().epochs_merged ==
           static_cast<std::uint64_t>(kClients) * kEpochsPer;
  }));

  // A crashed-and-restarted client redelivers everything it ever sealed;
  // the (session, epoch-index) ledger must absorb the overlap without
  // disturbing the aggregate.
  {
    sv::EpochShipper again(shipper_options(socket, 100));
    ASSERT_TRUE(again.ship(truths[0]));
    again.bye();
  }
  ASSERT_TRUE(wait_until([&] {
    return h.server.snapshot().epochs_deduped ==
           static_cast<std::uint64_t>(kEpochsPer);
  }));

  // The acceptance bar: bit-identical to the sum of all 8 ground truths.
  cc::Matrix expected = truths[0].total();
  for (int i = 1; i < kClients; ++i) {
    expected += truths[static_cast<std::size_t>(i)].total();
  }
  EXPECT_TRUE(h.server.merged_matrix() == expected);

  // Every injected fault left a provenance trail.
  const sv::ServeStats st = h.server.snapshot();
  EXPECT_GE(st.accept_failures, 1u) << "accept-fail fault did not fire";
  EXPECT_GE(st.eagain_deferrals, 1u) << "eagain storm did not fire";
  EXPECT_GE(st.frames_torn, 1u) << "drop-mid-frame fault did not fire";
  EXPECT_EQ(st.epochs_merged,
            static_cast<std::uint64_t>(kClients) * kEpochsPer);
  EXPECT_EQ(st.drops_bad_crc, 0u);
  EXPECT_EQ(st.sessions_dropped, 0u);

  // Cross-process context propagation: the daemon echoed every client's ctx
  // on every ack — through torn frames, EAGAIN storms and reconnects.
  for (int i = 0; i < kClients; ++i) {
    const sv::ShipStats& ss = stats[static_cast<std::size_t>(i)];
    EXPECT_GT(ss.acks, 0u) << "client " << i;
    EXPECT_EQ(ss.acks_with_ctx, ss.acks) << "client " << i;
  }

  // And the trace tells the same story: every ctx appears on BOTH a
  // client-side ship.frame span and a daemon-side serve.merge span.
  ctl::Tracer::disable();
  std::stringstream trace_txt;
  ctl::Tracer::write_text(trace_txt);
  const std::string txt = trace_txt.str();
  const auto line_has_ctx = [](const std::string& line,
                               const std::string& hex) {
    const std::string tag = " ctx=" + hex;
    const std::size_t at = line.find(tag);
    if (at == std::string::npos) return false;
    const std::size_t end = at + tag.size();
    return end == line.size() || line[end] == ' ';
  };
  for (int i = 0; i < kClients; ++i) {
    const std::string& hex = ctxs[static_cast<std::size_t>(i)];
    bool ship_frame = false;
    bool serve_merge = false;
    std::istringstream lines(txt);
    std::string line;
    while (std::getline(lines, line)) {
      if (!line_has_ctx(line, hex)) continue;
      if (line.find("ship.frame") != std::string::npos) ship_frame = true;
      if (line.find("serve.merge") != std::string::npos) serve_merge = true;
    }
    EXPECT_TRUE(ship_frame) << "client " << i << " ctx " << hex
                            << " has no ship.frame span";
    EXPECT_TRUE(serve_merge) << "client " << i << " ctx " << hex
                             << " has no serve.merge span";
  }

  // CI artifacts: the soak's Chrome trace (one file, both sides of the
  // wire) and the daemon metrics snapshot — a scrape-under-load check in
  // one move.
  std::ofstream trace_json("serve_soak.trace.json");
  ctl::Tracer::write_chrome_trace(trace_json);
  std::ofstream artifact("serve_soak.metrics");
  ASSERT_TRUE(sv::scrape_metrics(socket, artifact));
  std::ofstream prom("serve_soak.prom");
  ASSERT_TRUE(sv::scrape_metrics(socket, prom, 2000, true));
}

// --- durability: WAL + snapshot + recovery ----------------------------------

std::string next_state_dir() {
  static int n = 0;
  const std::string dir = "/tmp/cs_serve_state_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(++n);
  std::remove((dir + "/wal.log").c_str());
  std::remove((dir + "/snapshot.commscope").c_str());
  std::remove((dir + "/snapshot.commscope.tmp").c_str());
  ::rmdir(dir.c_str());
  return dir;
}

sv::ServeOptions durable_options(const std::string& socket,
                                 const std::string& state_dir) {
  sv::ServeOptions o = fast_options(socket);
  o.state_dir = state_dir;
  o.fsync_policy = sv::FsyncPolicy::kOnCompaction;  // tests favor speed
  return o;
}

std::string epochs_document(const cc::EpochTimeline& t) {
  std::ostringstream os;
  cc::write_epochs(os, t);
  return os.str();
}

TEST(ServeDurable, RestartRecoversLedgerAndDedupesRedelivery) {
  const std::string socket = next_socket_path();
  const std::string state = next_state_dir();
  const cc::EpochTimeline truth = make_truth(6, 0xD0D0);

  {
    ServerHandle h(durable_options(socket, state));
    ASSERT_TRUE(h.start());
    sv::EpochShipper s(shipper_options(socket, 55));
    ASSERT_TRUE(s.ship(truth));
    ASSERT_TRUE(wait_until(
        [&] { return h.server.snapshot().epochs_merged == 6; }));
    const sv::ServeStats st = h.server.snapshot();
    EXPECT_GE(st.wal_records, 2u);  // hello + at least one epochs record
    EXPECT_FALSE(st.wal_failed);
  }  // ~ServerHandle stops the daemon; exit path compacts

  // Restart on the same state dir: the dedupe ledger and aggregate come
  // back, so a client re-sending hello with the same session id and
  // redelivering everything merges exactly once.
  ServerHandle h2(durable_options(socket, state));
  ASSERT_TRUE(h2.start());
  {
    const sv::ServeStats st = h2.server.snapshot();
    EXPECT_TRUE(st.recovered);
    EXPECT_EQ(st.recovered_sessions, 1u);
  }
  EXPECT_TRUE(h2.server.merged_matrix() == truth.total());

  sv::EpochShipper again(shipper_options(socket, 55));
  ASSERT_TRUE(again.ship(truth));
  ASSERT_TRUE(wait_until(
      [&] { return h2.server.snapshot().epochs_deduped == 6; }));
  const sv::ServeStats st = h2.server.snapshot();
  EXPECT_EQ(st.epochs_merged, 0u);  // nothing new merged this process
  EXPECT_TRUE(h2.server.merged_matrix() == truth.total());
}

/// Reads frames from `fd` until the daemon's ack arrives; returns its
/// payload, or "" when the connection ends first.
std::string await_ack(int fd) {
  sv::FrameDecoder decoder;
  char buf[4096];
  for (;;) {
    while (auto f = decoder.next()) {
      if (f->type == sv::FrameType::kAck) return f->payload;
    }
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0 || !decoder.feed(buf, static_cast<std::size_t>(n))) return "";
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ServeDurable, RecoveredSnapshotMatchesUninterruptedDaemon) {
  // Kill-and-resume must equal an uninterrupted run: replaying the WAL a
  // kill -9 leaves behind has to rebuild every snapshot field, including
  // the dedupe counts of a partly and a wholly redelivered frame.
  const std::string socket = next_socket_path();
  const std::string state = next_state_dir();
  const std::string crashed = next_state_dir();
  ServerHandle h(durable_options(socket, state));
  ASSERT_TRUE(h.start());
  const int fd = raw_connect(socket);
  ASSERT_GE(fd, 0);
  raw_send(fd, sv::encode_frame(sv::FrameType::kHello,
                                "commscope-hello 1 session 31 threads 4"));
  raw_send(fd, sv::encode_frame(sv::FrameType::kEpochs,
                                epochs_document(make_truth(2, 0x31, 0))));
  EXPECT_EQ(await_ack(fd), "2 accepted");
  // Epoch 1 again plus epoch 2: one redelivery, one fresh epoch.
  raw_send(fd, sv::encode_frame(sv::FrameType::kEpochs,
                                epochs_document(make_truth(2, 0x32, 1))));
  EXPECT_EQ(await_ack(fd), "2 accepted");
  // Epochs 1 and 2 again: all duplicates, merging nothing.
  raw_send(fd, sv::encode_frame(sv::FrameType::kEpochs,
                                epochs_document(make_truth(2, 0x33, 1))));
  EXPECT_EQ(await_ack(fd), "2 accepted");
  ::close(fd);

  // Every acked record is already written, so a copy now is what kill -9
  // would leave.
  std::filesystem::copy(state, crashed);
  h.stop();  // the clean stop compacts into a snapshot
  const std::string uninterrupted = read_file(state + "/snapshot.commscope");
  ASSERT_NE(uninterrupted.find(" deduped 3 "), std::string::npos);

  sv::ServeServer recovered(durable_options(next_socket_path(), crashed));
  ASSERT_TRUE(recovered.open()) << recovered.last_error();
  EXPECT_EQ(recovered.snapshot().recovery_records, 4u);
  EXPECT_EQ(read_file(crashed + "/snapshot.commscope"), uninterrupted);
}

TEST(ServeDurable, PropagatedContextStitchesClientAndDaemonSpans) {
  const std::string socket = next_socket_path();
  const std::string state = next_state_dir();
  ctl::Tracer::enable();

  ServerHandle h(durable_options(socket, state));
  ASSERT_TRUE(h.start());

  std::string hexes[2];
  for (int i = 0; i < 2; ++i) {
    sv::EpochShipper s(shipper_options(socket, 200 + i));
    hexes[i] = sv::ctx_to_hex(s.trace_ctx());
    ASSERT_TRUE(s.ship(make_truth(4, 0xC0DE + i)));
    s.bye();
    const sv::ShipStats& ss = s.stats();
    EXPECT_GT(ss.acks, 0u);
    EXPECT_EQ(ss.acks_with_ctx, ss.acks) << "client " << i;
  }
  ASSERT_TRUE(
      wait_until([&] { return h.server.snapshot().epochs_merged == 8; }));
  h.stop();
  ctl::Tracer::disable();

  // One trace, two processes' worth of spans: for each client ctx, the
  // client-side frame span and the daemon-side frame/merge/journal spans
  // all carry the same propagated context id.
  std::stringstream txt;
  ctl::Tracer::write_text(txt);
  const std::string trace = txt.str();
  for (const std::string& hex : hexes) {
    for (const char* span :
         {"ship.frame", "serve.frame", "serve.merge", "serve.journal"}) {
      bool found = false;
      std::istringstream lines(trace);
      std::string line;
      const std::string tag = " ctx=" + hex;
      while (std::getline(lines, line) && !found) {
        const std::size_t at = line.find(tag);
        if (at == std::string::npos ||
            line.find(span) == std::string::npos) {
          continue;
        }
        const std::size_t end = at + tag.size();
        found = end == line.size() || line[end] == ' ';
      }
      EXPECT_TRUE(found) << span << " span missing for ctx " << hex;
    }
  }
}

TEST(ServeDurable, TornWalTailToleratedAndQuarantined) {
  const std::string socket = next_socket_path();
  const std::string state = next_state_dir();
  const cc::EpochTimeline t1 = make_truth(3, 0xE1, 0);
  const cc::EpochTimeline t2 = make_truth(3, 0xE2, 3);

  {
    // Build a WAL by hand: hello, two epochs records, then a half-written
    // record — exactly what a kill -9 mid-append leaves behind.
    sv::JournalOptions jo;
    jo.dir = state;
    jo.policy = sv::FsyncPolicy::kOnCompaction;
    jo.compact_every = 0;
    sv::Journal j(jo);
    std::string snapshot, err;
    std::vector<sv::WalRecord> tail;
    ASSERT_TRUE(j.recover(snapshot, tail, err)) << err;
    ASSERT_TRUE(j.open(err)) << err;
    ASSERT_TRUE(j.append(sv::WalRecordType::kHello, "session 77 threads 4",
                         false));
    ASSERT_TRUE(j.append(sv::WalRecordType::kEpochs,
                         "session 77\n" + epochs_document(t1), true));
    ASSERT_TRUE(j.append(sv::WalRecordType::kEpochs,
                         "session 77\n" + epochs_document(t2), true));
    const std::string torn = sv::encode_wal_record(
        sv::WalRecordType::kEpochs, 99, "session 77\nnever finished");
    std::ofstream wal(j.wal_path(), std::ios::binary | std::ios::app);
    wal.write(torn.data(),
              static_cast<std::streamsize>(torn.size() / 2));
  }

  ServerHandle h(durable_options(socket, state));
  ASSERT_TRUE(h.start());
  const sv::ServeStats st = h.server.snapshot();
  EXPECT_TRUE(st.recovered);
  EXPECT_TRUE(st.recovered_torn_tail);
  EXPECT_EQ(st.recovery_records, 3u);
  EXPECT_EQ(st.recovered_epochs, 6u);
  cc::Matrix expected = t1.total();
  expected += t2.total();
  EXPECT_TRUE(h.server.merged_matrix() == expected);
  // The post-recovery compaction quarantined the damage: the WAL was
  // truncated, so a second recovery sees a clean (empty) log.
  struct stat wal_st{};
  ASSERT_EQ(::stat((state + "/wal.log").c_str(), &wal_st), 0);
  EXPECT_EQ(wal_st.st_size, 0);
}

TEST(ServeDurable, NoRecoverDiscardsPersistedState) {
  const std::string socket = next_socket_path();
  const std::string state = next_state_dir();
  const cc::EpochTimeline truth = make_truth(4, 0xDEAD);
  {
    ServerHandle h(durable_options(socket, state));
    ASSERT_TRUE(h.start());
    sv::EpochShipper s(shipper_options(socket, 88));
    ASSERT_TRUE(s.ship(truth));
    ASSERT_TRUE(wait_until(
        [&] { return h.server.snapshot().epochs_merged == 4; }));
  }
  sv::ServeOptions o = durable_options(socket, state);
  o.no_recover = true;
  ServerHandle h2(o);
  ASSERT_TRUE(h2.start());
  EXPECT_FALSE(h2.server.snapshot().recovered);
  EXPECT_EQ(h2.server.merged_timeline().epochs.size(), 0u);
  // The discarded ledger means the same session id merges fresh.
  sv::EpochShipper again(shipper_options(socket, 88));
  ASSERT_TRUE(again.ship(truth));
  ASSERT_TRUE(wait_until(
      [&] { return h2.server.snapshot().epochs_merged == 4; }));
}

TEST(ServeDurable, CorruptSnapshotRefusesToStart) {
  const std::string socket = next_socket_path();
  const std::string state = next_state_dir();
  {
    ServerHandle h(durable_options(socket, state));
    ASSERT_TRUE(h.start());
    sv::EpochShipper s(shipper_options(socket, 99));
    ASSERT_TRUE(s.ship(make_truth(2, 0xBAD)));
    ASSERT_TRUE(wait_until(
        [&] { return h.server.snapshot().epochs_merged == 2; }));
  }
  {
    // Flip one byte mid-snapshot: the CRC trailer must catch it and the
    // daemon must refuse to start (silent discard needs --no-recover).
    std::fstream f(state + "/snapshot.commscope",
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(40);
    f.put('~');
  }
  sv::ServeServer refused(durable_options(socket, state));
  EXPECT_FALSE(refused.open());
  EXPECT_NE(refused.last_error().find("snapshot"), std::string::npos);
}

TEST(ServeDurable, SignalDrainSealsSessionsAndSnapshots) {
  const std::string socket = next_socket_path();
  const std::string state = next_state_dir();
  static volatile std::sig_atomic_t drain = 0;
  drain = 0;
  sv::ServeOptions o = durable_options(socket, state);
  o.drain_flag = &drain;
  ServerHandle h(o);
  ASSERT_TRUE(h.start());
  const cc::EpochTimeline truth = make_truth(5, 0x51);
  sv::EpochShipper s(shipper_options(socket, 61));
  ASSERT_TRUE(s.ship(truth));
  ASSERT_TRUE(wait_until(
      [&] { return h.server.snapshot().epochs_merged == 5; }));

  drain = 1;  // what the SIGTERM handler does
  ASSERT_TRUE(wait_until([&] { return h.server.snapshot().drained; }));
  h.stop();
  const sv::ServeStats st = h.server.snapshot();
  EXPECT_TRUE(st.drained);
  EXPECT_EQ(st.sessions_sealed, 1u);

  // The drained snapshot restores; the sealed session stays sealed, so the
  // id is refused on reconnect.
  ServerHandle h2(durable_options(socket, state));
  ASSERT_TRUE(h2.start());
  EXPECT_TRUE(h2.server.merged_matrix() == truth.total());
  sv::ShipperOptions so = shipper_options(socket, 61);
  so.max_attempts = 2;
  sv::EpochShipper late(so);
  EXPECT_FALSE(late.ship(make_truth(1, 0x52, 90)));
  EXPECT_TRUE(wait_until(
      [&] { return h2.server.snapshot().sessions_shed >= 1; }));
  std::remove(so.spill_path.c_str());
}

TEST(ServeDurable, WalWriteShortFailsJournalDaemonStaysLive) {
  const std::string socket = next_socket_path();
  const std::string state = next_state_dir();
  cr::FaultPlan plan;
  plan.wal_write_short_at = 2;  // the first epochs append short-writes
  cr::FaultInjector injector(plan, cr::KillMode::kThrow);
  sv::ServeOptions o = durable_options(socket, state);
  o.injector = &injector;
  ServerHandle h(o);
  ASSERT_TRUE(h.start());
  const cc::EpochTimeline truth = make_truth(3, 0x77);
  sv::EpochShipper s(shipper_options(socket, 71));
  ASSERT_TRUE(s.ship(truth));
  ASSERT_TRUE(wait_until(
      [&] { return h.server.snapshot().epochs_merged == 3; }));
  const sv::ServeStats st = h.server.snapshot();
  // Availability first: the journal gave up (counted), the merge did not.
  EXPECT_TRUE(st.wal_failed);
  EXPECT_GE(st.wal_write_errors, 1u);
  EXPECT_TRUE(h.server.merged_matrix() == truth.total());
}

TEST(ServeDurable, FsyncFailureDegradesDurabilityLadder) {
  const std::string socket = next_socket_path();
  const std::string state = next_state_dir();
  cr::FaultPlan plan;
  plan.wal_fsync_fail_at = 1;
  cr::FaultInjector injector(plan, cr::KillMode::kThrow);
  sv::ServeOptions o = durable_options(socket, state);
  o.fsync_policy = sv::FsyncPolicy::kPerAck;
  o.injector = &injector;
  ServerHandle h(o);
  ASSERT_TRUE(h.start());
  sv::EpochShipper s(shipper_options(socket, 72));
  ASSERT_TRUE(s.ship(make_truth(2, 0x88)));
  ASSERT_TRUE(wait_until(
      [&] { return h.server.snapshot().epochs_merged == 2; }));
  const sv::ServeStats st = h.server.snapshot();
  EXPECT_GE(st.wal_fsync_failures, 1u);
  // A failed barrier walks the ladder down instead of killing the daemon.
  EXPECT_GT(st.wal_rung, static_cast<int>(sv::FsyncPolicy::kPerAck));
  EXPECT_FALSE(st.wal_failed);
}

TEST(ServeDurable, ReplaysTenThousandRecordWalTail) {
  const std::string socket = next_socket_path();
  const std::string state = next_state_dir();
  constexpr int kRecords = 10'000;
  {
    sv::JournalOptions jo;
    jo.dir = state;
    jo.policy = sv::FsyncPolicy::kOnCompaction;
    jo.compact_every = 0;  // never compact: everything stays in the tail
    sv::Journal j(jo);
    std::string snapshot, err;
    std::vector<sv::WalRecord> tail;
    ASSERT_TRUE(j.recover(snapshot, tail, err)) << err;
    ASSERT_TRUE(j.open(err)) << err;
    ASSERT_TRUE(j.append(sv::WalRecordType::kHello, "session 5 threads 4",
                         false));
    for (int i = 1; i < kRecords; ++i) {
      const cc::EpochTimeline one =
          make_truth(1, 0x4000 + static_cast<std::uint64_t>(i),
                     static_cast<std::uint64_t>(i));
      ASSERT_TRUE(j.append(sv::WalRecordType::kEpochs,
                           "session 5\n" + epochs_document(one), false));
    }
  }
  sv::ServeOptions o = durable_options(socket, state);
  o.merged_ring = 64;  // the bounded ring must absorb a much longer replay
  o.mem_budget_bytes = 32u << 20;
  ServerHandle h(o);
  ASSERT_TRUE(h.start());
  const sv::ServeStats st = h.server.snapshot();
  EXPECT_EQ(st.recovery_records, static_cast<std::uint64_t>(kRecords));
  EXPECT_EQ(st.recovered_epochs, static_cast<std::uint64_t>(kRecords - 1));
  const cc::EpochTimeline merged = h.server.merged_timeline();
  EXPECT_EQ(merged.sealed, static_cast<std::uint64_t>(kRecords - 1));
  EXPECT_EQ(merged.epochs.size(), 64u);
}

// --- the chaos harness: kill -9 across every window -------------------------

pid_t spawn_daemon(const std::string& cli, const std::string& socket,
                   const std::string& state, const char* fault,
                   const std::string& extra = "") {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  if (fault != nullptr) {
    ::setenv("COMMSCOPE_FAULT", fault, 1);
  } else {
    ::unsetenv("COMMSCOPE_FAULT");
  }
  std::vector<std::string> args = {cli,
                                   "serve",
                                   "--socket=" + socket,
                                   "--state-dir=" + state,
                                   "--reap-ms=0",
                                   "--quiet"};
  if (!extra.empty()) args.push_back(extra);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  ::execv(cli.c_str(), argv.data());
  ::_exit(127);
}

int await_exit(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

// The daemon binds its socket only after recovery replay + the startup
// compaction, which on a loaded single-core box can outlast a client's
// whole retry budget. The fault windows below only fire once a frame is
// journaled, so a client that gives up before the socket exists turns the
// await_exit into an infinite hang. Gate every post-spawn ship on the
// socket actually accepting.
bool wait_listening(const std::string& socket, int deadline_ms = 10000) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", socket.c_str());
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0) {
      const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                               sizeof(addr));
      ::close(fd);
      if (rc == 0) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

TEST(ServeChaos, KillNineAtEveryWindowRecoversBitIdentical) {
  const char* cli = std::getenv("COMMSCOPE_CLI");
  if (cli == nullptr) {
    GTEST_SKIP() << "COMMSCOPE_CLI not set (needs the commscope binary)";
  }
  const std::string socket = next_socket_path();
  const std::string state = next_state_dir();
  const cc::EpochTimeline t1 = make_truth(25, 0xC1A0);
  const cc::EpochTimeline t2 = make_truth(25, 0xC1A1);
  const cc::EpochTimeline t3 = make_truth(25, 0xC1A2);

  const auto reship = [&](std::uint64_t session, const cc::EpochTimeline& t) {
    // Full redelivery after every crash: the recovered dedupe ledger turns
    // at-least-once into exactly-once.
    sv::ShipperOptions so = shipper_options(socket, session);
    so.max_attempts = 20;
    sv::EpochShipper s(so);
    s.flush();  // replay any spill from the crashed attempt
    return s.ship(t);
  };

  // Window 1 — post-merge / pre-ack: the daemon SIGKILLs itself halfway
  // through writing the first epochs record (wal-torn-tail). Nothing was
  // acked, so the client's redelivery must land everything exactly once.
  pid_t pid = spawn_daemon(cli, socket, state, "wal-torn-tail:2");
  ASSERT_TRUE(wait_listening(socket)) << "window-1 daemon never bound";
  {
    sv::ShipperOptions so = shipper_options(socket, 201);
    so.max_attempts = 3;
    sv::EpochShipper s(so);
    (void)s.ship(t1);  // dies under us; spill or failure both fine
  }
  int status = await_exit(pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "wal-torn-tail fault did not SIGKILL the daemon";

  pid = spawn_daemon(cli, socket, state, nullptr);
  ASSERT_TRUE(wait_listening(socket)) << "post-window-1 daemon never bound";
  ASSERT_TRUE(reship(201, t1));

  // Window 2 — mid-compaction / mid-snapshot: --compact-every=1 compacts
  // after every record; the injected crash tears the snapshot tmp file.
  // The ack for t2 was already sent, so recovery MUST reproduce it from
  // the previous snapshot + WAL.
  ::kill(pid, SIGKILL);
  await_exit(pid);
  pid = spawn_daemon(cli, socket, state, "snapshot-crash-mid-write:2",
                     "--compact-every=1");
  ASSERT_TRUE(wait_listening(socket)) << "window-2 daemon never bound";
  {
    sv::ShipperOptions so = shipper_options(socket, 202);
    so.max_attempts = 3;
    sv::EpochShipper s(so);
    (void)s.ship(t2);
  }
  status = await_exit(pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "snapshot-crash-mid-write fault did not SIGKILL the daemon";

  pid = spawn_daemon(cli, socket, state, nullptr);
  ASSERT_TRUE(wait_listening(socket)) << "post-window-2 daemon never bound";
  ASSERT_TRUE(reship(202, t2));

  // Window 3 — randomized external kill -9 while a client streams (covers
  // mid-frame and every point in between), repeated.
  int rounds = 3;
  if (const char* env = std::getenv("COMMSCOPE_CHAOS_ROUNDS")) {
    rounds = std::max(1, std::atoi(env));
  }
  cs::SplitMix64 rng(0xC4A05);
  for (int r = 0; r < rounds; ++r) {
    std::thread client([&] {
      sv::ShipperOptions so = shipper_options(socket, 203);
      so.max_attempts = 2;
      sv::EpochShipper s(so);
      (void)s.ship(t3);
    });
    std::this_thread::sleep_for(
        std::chrono::milliseconds(1 + rng.next_below(40)));
    ::kill(pid, SIGKILL);
    await_exit(pid);
    client.join();
    pid = spawn_daemon(cli, socket, state, nullptr);
    ASSERT_TRUE(wait_listening(socket)) << "window-3 daemon never bound";
  }
  ASSERT_TRUE(reship(203, t3));

  // Graceful exit: SIGTERM drains (seal + final snapshot) and exits 0.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ::kill(pid, SIGTERM);
  status = await_exit(pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "SIGTERM drain did not exit 0 (status " << status << ")";

  // The acceptance bar: after four crash windows and a drain, the merged
  // matrix is bit-identical to the sum of the three ground truths.
  ServerHandle verify(durable_options(next_socket_path(), state));
  ASSERT_TRUE(verify.start());
  const sv::ServeStats st = verify.server.snapshot();
  EXPECT_TRUE(st.recovered);
  EXPECT_EQ(st.recovered_sessions, 3u);
  cc::Matrix expected = t1.total();
  expected += t2.total();
  expected += t3.total();
  EXPECT_TRUE(verify.server.merged_matrix() == expected);

  // Metrics artifact for the CI chaos job.
  std::ofstream artifact("serve_chaos.metrics");
  artifact << "# chaos: sessions=" << st.recovered_sessions
           << " merged-cells-ok=1\n";
  for (std::uint64_t sid : {201u, 202u, 203u}) {
    std::remove((socket + "." + std::to_string(sid) + ".spill.epochs").c_str());
  }
}

}  // namespace
