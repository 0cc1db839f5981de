// The serve-ship workload: a durable `commscope serve` daemon fed by
// nproc-1 closed-loop EpochShipper clients, then crash recovery.
//
// The shipped epochs are real recorder output. Before the rounds, a child
// process captures the apps of the live-features mix whose streams do not
// depend on the schedule, replays each through the live-features
// ProfilerOptions and hands back the epochs the flight recorder sealed (see
// recorder_timelines()). A client's
// frames are runs of 32 consecutive pool epochs from seeded offsets,
// re-indexed so that every epoch of a session is new to the daemon.
//
// One round: open a ServeServer on an empty state dir (default fsync per-n
// 256, compaction every 4096 appends) and say hello from every client (the
// set-up), then each client ships its frames, one frame per ship() call,
// waiting for each ack before the next (closed loop). After the last ack the
// state dir is copied: that copy is what a kill -9 at that instant leaves
// (every append precedes its ack), a snapshot plus a WAL tail of a fixed
// record count. Recovery is ServeServer::open() on the copy. The untraced
// run also ships the same frames to a volatile daemon (no state dir) in
// every round, alternating which goes first: slowdown_x is the durable ship
// time over the volatile one.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "bench.hpp"
#include "core/comm_diff.hpp"
#include "core/epoch_io.hpp"
#include "core/flight_recorder.hpp"
#include "resilience/fault_injector.hpp"
#include "serve/server.hpp"
#include "serve/shipper.hpp"
#include "support/rng.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/self_profile.hpp"

namespace commbench {

namespace cc = commscope::core;
namespace cr = commscope::resilience;
namespace cs = commscope::support;
namespace ctl = commscope::telemetry;
namespace sv = commscope::serve;
namespace fs = std::filesystem;

namespace {

using commscope::instrument::kNoLoop;

constexpr int kEpochsPerFrame = 32;
constexpr std::uint64_t kCompactEvery = 4096;  // the daemon's default
/// WAL appends per round (one hello per client, one record per frame). It
/// stays below the daemon's compaction period, so the state a kill -9 leaves
/// after the last ack is the open-time snapshot plus a WAL tail of exactly
/// this many records, whatever nproc is. A compaction inside the ship loop
/// stalls every client for about a second of snapshot fsync on a shared
/// disk, and that stall's jitter would swamp the merge rate; recovery still
/// pays one compaction, after the replay.
constexpr int kAppendsPerRound = 3900;
static_assert(kAppendsPerRound < static_cast<int>(kCompactEvery));
constexpr int kSmokeFrames = 20;
/// Every kShipSpanEvery-th ship() call of a traced round gets a span.
constexpr int kShipSpanEvery = 16;
/// Extra daemon set-ups an untraced run times before each round, besides
/// the round's own. One open() fsyncs an empty snapshot and its directory,
/// so a single set-up is one sub-millisecond sample of the disk's latency;
/// setup_s is the median over all of them.
constexpr int kSetupProbes = 7;

/// The epochs frames are cut from. Loop ids are re-keyed to the rank of
/// their label: the recorder's ids depend on which loops the process that
/// ran the apps had declared before.
struct Pool {
  int threads = 0;
  std::vector<cc::EpochSample> epochs;
  std::vector<std::string> labels;  ///< by re-keyed loop id
  std::vector<std::string> apps;
};

Pool recorder_pool(const Config& cfg) {
  // A child process runs the apps: their captured streams take hundreds of
  // MB at simlarge, and rss_peak_mb describes the daemon and its clients.
  const std::string blob = in_child([&] {
    std::string docs;
    for (const auto& [app, t] : recorder_timelines(cfg)) {
      std::ostringstream doc;
      cc::write_epochs(doc, t);
      docs += app + ' ' + std::to_string(doc.str().size()) + '\n' + doc.str();
    }
    return docs;
  });
  Pool pool;
  std::vector<cc::EpochTimeline> timelines;
  for (std::string_view rest = blob; !rest.empty();) {
    const std::size_t eol = rest.find('\n');
    std::istringstream head(std::string(rest.substr(0, eol)));
    std::string app;
    std::size_t size = 0;
    head >> app >> size;
    if (eol == std::string_view::npos || !head || size > rest.size() - eol - 1) {
      throw std::runtime_error("short recorder output from the app process");
    }
    rest.remove_prefix(eol + 1);
    timelines.push_back(cc::read_epochs(rest.substr(0, size)));
    rest.remove_prefix(size);
    pool.apps.push_back(app);
  }
  std::map<std::string, std::uint32_t> rank;
  for (const cc::EpochTimeline& t : timelines) {
    for (const cc::EpochSample& e : t.epochs) {
      for (const cc::EpochLoopShare& s : e.loops) {
        if (s.loop != kNoLoop) rank.emplace(t.label_of(s.loop), 0);
      }
    }
  }
  for (auto& [label, id] : rank) {
    id = static_cast<std::uint32_t>(pool.labels.size());
    pool.labels.push_back(label);
  }
  for (cc::EpochTimeline& t : timelines) {
    pool.threads = t.threads;
    for (cc::EpochSample& e : t.epochs) {
      std::map<std::uint32_t, std::uint64_t> shares;
      for (const cc::EpochLoopShare& s : e.loops) {
        shares[s.loop == kNoLoop ? kNoLoop : rank.at(t.label_of(s.loop))] += s.bytes;
      }
      e.loops.clear();
      for (const auto& [loop, bytes] : shares) e.loops.push_back({loop, bytes});
      pool.epochs.push_back(std::move(e));
    }
  }
  if (pool.epochs.empty()) throw std::runtime_error("the recorder sealed no epochs");
  return pool;
}

/// One client's frames: runs of kEpochsPerFrame consecutive pool epochs
/// (wrapping at the end) from seeded offsets, re-indexed and laid end to end
/// in access counts, each carrying the labels of the loops it names.
std::vector<cc::EpochTimeline> make_frames(const Pool& pool, std::uint64_t seed,
                                           int client, int frames) {
  cs::SplitMix64 rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(client) + 1);
  std::vector<cc::EpochTimeline> out;
  std::uint64_t access = 0;
  for (int f = 0; f < frames; ++f) {
    cc::EpochTimeline t;
    t.threads = pool.threads;
    std::set<std::uint32_t> named;
    const std::size_t start = rng.next_below(pool.epochs.size());
    for (int e = 0; e < kEpochsPerFrame; ++e) {
      cc::EpochSample s = pool.epochs[(start + static_cast<std::size_t>(e)) %
                                      pool.epochs.size()];
      s.index = static_cast<std::uint64_t>(f) * kEpochsPerFrame +
                static_cast<std::uint64_t>(e);
      const std::uint64_t window = s.last_access - s.first_access;
      s.first_access = access;
      access += window;
      s.last_access = access;
      for (const cc::EpochLoopShare& l : s.loops) {
        if (l.loop != kNoLoop) named.insert(l.loop);
      }
      t.epochs.push_back(std::move(s));
    }
    for (const std::uint32_t id : named) t.loop_labels.emplace_back(id, pool.labels[id]);
    t.sealed = t.epochs.size();
    out.push_back(std::move(t));
  }
  return out;
}

/// What the pool and the frames look like, for the report.
std::string describe(const Pool& pool, const std::vector<cc::EpochTimeline>& frames) {
  double cells = 0.0, loops = 0.0, bytes = 0.0, frame_bytes = 0.0;
  for (const cc::EpochSample& e : pool.epochs) {
    cells += static_cast<double>(e.cells.size());
    loops += static_cast<double>(e.loops.size());
    bytes += static_cast<double>(e.bytes);
  }
  const std::size_t sampled = std::min<std::size_t>(frames.size(), 64);
  for (std::size_t f = 0; f < sampled; ++f) {
    std::ostringstream doc;
    cc::write_epochs(doc, frames[f]);
    frame_bytes += static_cast<double>(doc.str().size());
  }
  const double n = static_cast<double>(pool.epochs.size());
  std::string apps;
  for (const std::string& a : pool.apps) apps += (apps.empty() ? "" : ",") + a;
  return "frames cut from " + std::to_string(pool.epochs.size()) +
         " epochs the live-features recorder sealed on " + apps +
         "; per epoch " + fmt(cells / n) + " cells, " + fmt(loops / n) +
         " loop shares, " + fmt(bytes / n) + " bytes; " +
         fmt(frame_bytes / static_cast<double>(std::max<std::size_t>(sampled, 1))) +
         " bytes per encoded frame";
}

struct RoundResult {
  bool ran = false;
  double setup_s = 0.0;
  double open_ms = 0.0;
  double ship_s = 0.0;     ///< first offer to last ack
  std::uint64_t epochs = 0;
  std::vector<double> ack_ms;
  double recovery_s = 0.0;
  sv::ServeStats stats;
  sv::ServeStats recovered;
  double wal_bytes = 0.0;
  double mem_peak = 0.0;
  std::uint64_t retries = 0;
};

struct ServeCtx {
  const Config* cfg = nullptr;
  int clients = 1;
  int threads = 1;  ///< matrix dimension of the shipped timelines
  std::vector<std::vector<cc::EpochTimeline>> frames;  ///< [client][frame]
  cc::Matrix truth;
  std::uint64_t expected_tail = 0;
  SpanLog* spans = nullptr;
};

/// A running daemon with one session per client, each past its hello.
struct Daemon {
  std::unique_ptr<sv::ServeServer> server;
  std::thread loop;
  std::vector<std::unique_ptr<sv::EpochShipper>> shippers;
  double setup_s = 0.0;  ///< construction + open() + every client's hello
  double open_ms = 0.0;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  /// Opens a daemon with `o` and connects every client; false, with the
  /// daemon's error, when open() fails.
  bool start(const ServeCtx& ctx, const sv::ServeOptions& o,
             cr::FaultInjector* injector, SpanLog* spans, std::string& error) {
    const double s0 = now_s();
    server = std::make_unique<sv::ServeServer>(o);
    {
      Scope span(spans, "serve.open");
      const double t0 = now_s();
      const bool opened = server->open();
      open_ms = (now_s() - t0) * 1e3;
      if (!opened) {
        error = server->last_error();
        server.reset();
        return false;
      }
    }
    loop = std::thread([this] { server->run(); });
    {
      Scope span(spans, "serve.hello");
      for (int c = 0; c < ctx.clients; ++c) {
        sv::ShipperOptions so;
        so.socket_path = o.socket_path;
        so.session_id = 1000 + static_cast<std::uint64_t>(c);
        so.threads = ctx.threads;
        so.spill_path = o.socket_path + "." + std::to_string(c) + ".spill";
        if (c == 0) so.injector = injector;
        shippers.push_back(std::make_unique<sv::EpochShipper>(so));
        shippers.back()->heartbeat();  // connect + hello
      }
    }
    setup_s = now_s() - s0;
    return true;
  }

  /// Says bye from every client, then stops and joins the daemon loop.
  void stop() {
    for (auto& sh : shippers) sh->bye();
    shippers.clear();
    if (server != nullptr) server->stop();
    if (loop.joinable()) loop.join();
    server.reset();
  }
};

/// Times one more durable set-up like a round's own and tears it down;
/// negative when open() failed (counted in `out`).
double setup_probe(const ServeCtx& ctx, const std::string& tag, Outcome& out) {
  const std::string state = ctx.cfg->work_dir + "/probe" + tag;
  sv::ServeOptions o;
  o.socket_path = ctx.cfg->work_dir + "/p" + tag;
  o.state_dir = state;
  std::error_code ec;
  fs::remove_all(state, ec);
  double setup = -1.0;
  {
    Daemon d;
    std::string error;
    if (d.start(ctx, o, nullptr, nullptr, error)) {
      setup = d.setup_s;
    } else {
      out.attempt(false, "daemon open failed: " + error);
    }
  }
  fs::remove_all(state, ec);
  return setup;
}

/// One round against one daemon. `durable` selects the state dir (and the
/// crash copy + recovery); `traced` adds per-call ship spans.
RoundResult run_round(const ServeCtx& ctx, bool durable, int round,
                      bool traced, bool corrupt, Outcome& out) {
  const Config& cfg = *ctx.cfg;
  SpanLog* spans = ctx.spans;
  RoundResult r;
  const std::string tag = std::to_string(round) + (durable ? "d" : "v");
  const std::string state = cfg.work_dir + "/state" + tag;
  const std::string crash = cfg.work_dir + "/crash" + tag;
  const std::string socket = cfg.work_dir + "/s" + tag;
  std::error_code ec;
  fs::remove_all(state, ec);

  sv::ServeOptions o;
  o.socket_path = socket;
  if (durable) o.state_dir = state;
  ctl::gauge("serve.mem.peak").reset();

  std::unique_ptr<cr::FaultInjector> injector;
  if (corrupt && cfg.inject == "lost-ack") {
    cr::FaultPlan plan;
    plan.drop_mid_frame_at = 3;
    injector = std::make_unique<cr::FaultInjector>(plan);
  }
  Daemon daemon;
  std::string error;
  if (!daemon.start(ctx, o, injector.get(), spans, error)) {
    out.attempt(false, "daemon open failed: " + error);
    return r;
  }
  r.setup_s = daemon.setup_s;
  r.open_ms = daemon.open_ms;

  // Closed loop: each client waits for its ack before the next frame.
  std::vector<std::vector<double>> acks(static_cast<std::size_t>(ctx.clients));
  std::vector<std::uint64_t> failed_frames(static_cast<std::size_t>(ctx.clients), 0);
  std::atomic<bool> go{false};
  std::atomic<int> ready{0};
  std::vector<double> ends(static_cast<std::size_t>(ctx.clients), 0.0);
  std::vector<std::thread> clients;
  for (int c = 0; c < ctx.clients; ++c) {
    clients.emplace_back([&, c] {
      const auto ci = static_cast<std::size_t>(c);
      sv::EpochShipper& sh = *daemon.shippers[ci];
      acks[ci].reserve(ctx.frames[ci].size());
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      int n = 0;
      for (const cc::EpochTimeline& frame : ctx.frames[ci]) {
        const sv::ShipStats before = sh.stats();
        const bool span_this = traced && ++n % kShipSpanEvery == 0;
        const double t0 = now_s();
        bool ok = false;
        {
          Scope span(span_this ? spans : nullptr, "serve.ship");
          ok = sh.ship(frame);
        }
        acks[ci].push_back((now_s() - t0) * 1e3);
        const sv::ShipStats& after = sh.stats();
        if (!ok || after.retries != before.retries ||
            after.spills != before.spills) {
          ++failed_frames[ci];
        }
      }
      ends[ci] = now_s();
    });
  }
  while (ready.load() < ctx.clients) std::this_thread::yield();
  const double start = now_s();
  go.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  r.ship_s = *std::max_element(ends.begin(), ends.end()) - start;

  for (int c = 0; c < ctx.clients; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    const std::uint64_t frames = ctx.frames[ci].size();
    for (std::uint64_t f = 0; f < frames; ++f) {
      out.attempt(f >= failed_frames[ci],
                  "session " + std::to_string(1000 + c) + ": " +
                      std::to_string(failed_frames[ci]) +
                      " frame(s) not acked on first attempt or spilled");
    }
    r.epochs += frames * kEpochsPerFrame;
    r.retries += daemon.shippers[ci]->stats().retries;
    r.ack_ms.insert(r.ack_ms.end(), acks[ci].begin(), acks[ci].end());
  }

  // The merged matrix must be exactly the sum of everything shipped.
  const cc::Matrix merged = daemon.server->merged_matrix();
  cc::Matrix truth = ctx.truth;
  if (corrupt && cfg.inject == "cell") truth.at(0, 1) += 1;
  out.attempt(cc::matrix_distance(merged, truth).l1 == 0,
              "merged matrix differs from the sum of the shipped timelines");
  if (durable) {
    Scope span(spans, "serve.crash_copy");
    fs::copy(state, crash, fs::copy_options::recursive, ec);
    if (ec) out.attempt(false, "cannot copy the state dir: " + ec.message());
  }
  r.stats = daemon.server->snapshot();
  if (r.stats.sessions_dropped != 0) {
    out.attempt(false, std::to_string(r.stats.sessions_dropped) +
                           " session(s) dropped by the daemon");
  }
  daemon.stop();
  r.mem_peak = static_cast<double>(ctl::gauge("serve.mem.peak").value());
  fs::remove_all(state, ec);

  if (durable) {
    r.wal_bytes = static_cast<double>(fs::file_size(crash + "/wal.log", ec));
    sv::ServeOptions ro;
    ro.socket_path = socket + "r";
    ro.state_dir = crash;
    sv::ServeServer recovered(ro);
    const double t0 = now_s();
    bool opened = false;
    {
      Scope span(spans, "serve.recovery_open");
      opened = recovered.open();
    }
    r.recovery_s = now_s() - t0;
    r.recovered = recovered.snapshot();
    const bool same =
        opened && cc::matrix_distance(recovered.merged_matrix(), merged).l1 == 0;
    out.attempt(same, "recovered matrix differs from the pre-crash matrix" +
                          (opened ? std::string() : ": " + recovered.last_error()));
    out.attempt(r.recovered.recovery_records == ctx.expected_tail,
                "recovery replayed " + std::to_string(r.recovered.recovery_records) +
                    " WAL records, expected " + std::to_string(ctx.expected_tail));
    fs::remove_all(crash, ec);
  }
  r.ran = true;
  return r;
}

}  // namespace

Outcome run_serve(const Config& cfg, SpanLog* spans) {
  Outcome out;
  ServeCtx ctx;
  ctx.cfg = &cfg;
  ctx.spans = spans;
  ctx.clients = std::max(1, cfg.threads - 1);
  // First, while this process has no other thread: the pool forks.
  const Pool pool = recorder_pool(cfg);
  ctx.threads = pool.threads;
  const int frames =
      cfg.smoke ? kSmokeFrames : kAppendsPerRound / ctx.clients - 1;
  ctx.truth = cc::Matrix(pool.threads);
  for (int c = 0; c < ctx.clients; ++c) {
    ctx.frames.push_back(make_frames(pool, cfg.seed, c, frames));
    for (const cc::EpochTimeline& f : ctx.frames.back()) ctx.truth += f.total();
  }
  const std::uint64_t appends =
      static_cast<std::uint64_t>(ctx.clients) * static_cast<std::uint64_t>(frames + 1);
  ctx.expected_tail = appends;

  // Untimed warm-up round against a volatile daemon (page cache, sockets).
  {
    Outcome scratch;
    (void)run_round(ctx, false, 0, false, false, scratch);
    out.attempted += scratch.attempted;
    out.failed += scratch.failed;
    out.failures.insert(out.failures.end(), scratch.failures.begin(),
                        scratch.failures.end());
  }
  ctl::reset_all();

  std::vector<RoundResult> durable;
  std::vector<double> setup, volatile_s, ship_traced, ship_plain;
  const double deadline = now_s() + cfg.seconds;
  const int min_rounds = spans != nullptr ? 2 : 1;
  for (int round = 1;
       static_cast<int>(durable.size()) < min_rounds || now_s() < deadline;
       ++round) {
    const bool corrupt = !cfg.inject.empty() && round == 1;
    // The traced run alternates traced and untraced durable rounds and skips
    // the volatile twin and the set-up probes, so the stage histograms
    // describe the durable ship path.
    const bool traced = spans != nullptr && round % 2 == 0;
    RoundResult d;
    RoundResult v;
    if (spans == nullptr) {
      for (int k = 0; k < kSetupProbes; ++k) {
        const double s = setup_probe(
            ctx, std::to_string(round) + "_" + std::to_string(k), out);
        if (s >= 0.0) setup.push_back(s);
      }
    }
    if (spans != nullptr) {
      d = run_round(ctx, true, round, traced, corrupt, out);
    } else if (round % 2 == 1) {
      d = run_round(ctx, true, round, false, corrupt, out);
      v = run_round(ctx, false, round, false, false, out);
    } else {
      v = run_round(ctx, false, round, false, false, out);
      d = run_round(ctx, true, round, false, corrupt, out);
    }
    if (!d.ran) break;
    out.say("round " + std::to_string(round) + ": durable " + fmt(d.ship_s) +
            " s, volatile " + (v.ran ? fmt(v.ship_s) + " s" : std::string("-")) +
            ", recovery " + fmt(d.recovery_s) + " s");
    setup.push_back(d.setup_s);
    (traced ? ship_traced : ship_plain).push_back(d.ship_s);
    if (v.ran) volatile_s.push_back(v.ship_s);
    durable.push_back(std::move(d));
  }
  const double rss_mb = static_cast<double>(ctl::peak_rss_bytes()) * 1e-6;

  std::vector<double> recovery, ack, open_ms, wal_bytes;
  double peak = 0.0;
  for (const RoundResult& r : durable) {
    recovery.push_back(r.recovery_s);
    open_ms.push_back(r.open_ms);
    wal_bytes.push_back(r.wal_bytes);
    ack.insert(ack.end(), r.ack_ms.begin(), r.ack_ms.end());
    peak = std::max(peak, r.mem_peak);
  }
  if (durable.empty()) {
    out.attempt(false, "no durable round completed");
    return out;
  }
  const RoundResult& last = durable.back();
  // The best round, as for the live workloads (see best()).
  const double epochs = static_cast<double>(last.epochs);
  const double rate = epochs / best(ship_plain);
  const double slowdown = best(ship_plain) / best(volatile_s);
  const Tail tail = tail_of(ack);
  const double ok_frac =
      1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted);

  out.say("workload serve-ship: " + std::to_string(ctx.clients) +
          " closed-loop clients x " + std::to_string(frames) + " frames of " +
          std::to_string(kEpochsPerFrame) + " epochs, " +
          std::to_string(durable.size()) + " durable rounds; the crash point "
          "leaves the open-time snapshot plus a " +
          std::to_string(ctx.expected_tail) + "-record WAL tail");
  out.say(describe(pool, ctx.frames.front()));
  if (spans == nullptr) {
    out.put("setup_s", median(setup));
    out.put("events_per_s", rate);
    out.put("slowdown_x", slowdown);
    out.put("profiler_peak_mb", peak * 1e-6);
    out.put("rss_peak_mb", rss_mb);
    out.put("ok_frac", ok_frac);
  } else {
    const std::vector<ctl::MetricSnapshot> snap = ctl::snapshot_all();
    static constexpr const char* kStages[] = {"decode", "dedupe", "merge",
                                              "journal", "ack"};
    out.put("serve.open_ms", median(open_ms));
    out.put("serve.ship.send_us.p50", snapshot_quantile(snap, "ship.stage.send_us", 0.5));
    out.put("serve.ship.send_us.p99", snapshot_quantile(snap, "ship.stage.send_us", 0.99));
    out.put("serve.ship.ack_us.p50", snapshot_quantile(snap, "ship.stage.ack_us", 0.5));
    out.put("serve.ship.ack_us.p99", snapshot_quantile(snap, "ship.stage.ack_us", 0.99));
    for (const char* stage : kStages) {
      const std::string hist = std::string("serve.stage.") + stage + "_us";
      out.put(hist + ".p50", snapshot_quantile(snap, hist.c_str(), 0.5));
      out.put(hist + ".p99", snapshot_quantile(snap, hist.c_str(), 0.99));
    }
    out.put("serve.wal.fsync_us.p50", snapshot_quantile(snap, "serve.wal.fsync_us", 0.5));
    out.put("serve.wal.fsync_us.p99", snapshot_quantile(snap, "serve.wal.fsync_us", 0.99));
    out.put("serve.wal.fsyncs", static_cast<double>(last.stats.wal_fsyncs));
    out.put("serve.wal.records", static_cast<double>(last.stats.wal_records));
    out.put("serve.wal.compactions", static_cast<double>(last.stats.wal_compactions));
    out.put("serve.ship.retries", static_cast<double>(last.retries));
    out.put("serve.epochs_deduped", static_cast<double>(last.stats.epochs_deduped));
    out.put("serve.sessions_dropped", static_cast<double>(last.stats.sessions_dropped));
    out.put("serve.recovery_records", static_cast<double>(last.recovered.recovery_records));
    out.put("serve.wal_bytes", median(wal_bytes));
    out.put("serve.ack_p50_ms", quantile(ack, 0.5));
    out.put("serve.ack_p99_ms", quantile(ack, 0.99));
    out.put("serve.recovery_ms", median(recovery) * 1e3);
    out.put("trace_overhead_frac", 1.0 - best(ship_plain) / best(ship_traced));
  }

  out.say("setup_s            " + fmt(median(setup)) +
          " s (open on an empty state dir + hellos, median of " +
          std::to_string(setup.size()) + " set-ups)");
  out.say("events_per_s       " + fmt(rate) + " epochs/s (= merge_epochs_per_s, best round)");
  out.say("slowdown_x         " + (volatile_s.empty() ? std::string("n/a (traced run)") :
          fmt(slowdown) + " x (durable / volatile daemon ship time, best rounds)"));
  out.say("profiler_peak_mb   " + fmt(peak * 1e-6) + " MB (daemon tracked memory)");
  out.say("rss_peak_mb        " + fmt(rss_mb) + " MB");
  out.say("matrix_l1_err      n/a (live workloads only)");
  out.say("merge_epochs_per_s " + fmt(rate) + " epochs/s");
  out.say("ack_p50_ms         " + fmt(quantile(ack, 0.5)) + " ms (" +
          std::to_string(ack.size()) + " ship() calls)");
  out.say("ack_p99_ms         " + fmt(tail.value) + " ms (" + tail.name +
          ", the highest percentile with >= 10 samples above it, of " +
          std::to_string(ack.size()) + ")");
  out.say("recovery_s         " + fmt(median(recovery)) + " s (" +
          std::to_string(ctx.expected_tail) + "-record WAL tail + snapshot)");
  out.say("failed_frac        " + fmt(1.0 - ok_frac) + " ratio (" +
          std::to_string(out.failed) + " failed of " +
          std::to_string(out.attempted) + " attempted)");
  out.say("ok_frac            " + fmt(ok_frac) + " ratio");
  return out;
}

}  // namespace commbench
