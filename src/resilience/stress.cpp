#include "resilience/stress.hpp"

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "baseline/shadow_profiler.hpp"
#include "core/profiler.hpp"
#include "instrument/sampling.hpp"
#include "instrument/sink.hpp"
#include "instrument/trace.hpp"
#include "resilience/guarded_sink.hpp"
#include "support/rng.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "threading/barrier.hpp"

namespace commscope::resilience {

namespace {

// Synthetic arena base: any fixed 8-byte-aligned value works (no real memory
// is touched), and a fixed one keeps addresses identical across runs and
// processes, so failures reproduce from the seed alone.
constexpr std::uintptr_t kArenaBase = 0x4000'0000ULL;

constexpr std::uintptr_t word_addr(std::uint64_t word) noexcept {
  return kArenaBase + static_cast<std::uintptr_t>(word) * 8u;
}

// ---------------------------------------------------------------------------
// Lockstep family: one global script, executed in exactly that order.

/// The script is a trace: one kThreadBegin per lane, then the seeded steps.
/// A churn step is a second kThreadBegin for its lane — the lane's thread
/// exits there and a replacement announces the lane again.
std::vector<instrument::TraceEvent> make_lockstep_script(
    const StressOptions& o) {
  support::SplitMix64 rng(o.seed * 0x9e3779b97f4a7c15ULL + 1);
  instrument::TraceRecorder script;
  for (int l = 0; l < o.threads; ++l) script.on_thread_begin(l);
  // Track per-lane loop depth so exits stay meaningful, and space churns out
  // (each one costs a join+spawn) while still exercising several per run.
  std::vector<int> depth(static_cast<std::size_t>(o.threads), 0);
  std::vector<std::uint32_t> since_churn(static_cast<std::size_t>(o.threads),
                                         0);
  for (std::uint64_t i = 0; i < o.steps; ++i) {
    const int lane = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(o.threads)));
    const std::uint64_t word =
        rng.next_below(static_cast<std::uint64_t>(o.words));
    const auto loop = static_cast<instrument::LoopId>(1u + word % 4u);
    int& d = depth[static_cast<std::size_t>(lane)];
    std::uint32_t& since = since_churn[static_cast<std::size_t>(lane)];
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 40) {
      script.on_access(lane, word_addr(word), 8,
                       instrument::AccessKind::kWrite);
    } else if (roll < 82) {
      script.on_access(lane, word_addr(word), 8, instrument::AccessKind::kRead);
    } else if (roll < 90) {
      script.on_loop_enter(lane, loop);
      ++d;
    } else if (roll < 97 || !o.churn || since < 64) {
      // Exit degrades to enter at depth 0 (the profiler tolerates unbalanced
      // exits, but balanced scripts exercise real region nesting).
      if (d > 0) {
        script.on_loop_exit(lane);
        --d;
      } else {
        script.on_loop_enter(lane, loop);
        ++d;
      }
    } else {
      script.on_thread_begin(lane);
      since = 0;
    }
    ++since;
  }
  return script.events();
}

struct LockstepShared {
  std::mutex mu;
  std::condition_variable cv;
  const std::vector<instrument::TraceEvent>* script = nullptr;
  instrument::AccessSink* sink = nullptr;
  std::size_t next = 0;
  std::vector<int> respawns;  ///< lanes whose thread exited and awaits respawn
  std::uint64_t churns = 0;
};

void lockstep_lane(LockstepShared* sh, int lane) {
  const std::vector<instrument::TraceEvent>& script = *sh->script;
  // A fresh thread's first step is its lane's kThreadBegin; a later one is a
  // churn, which this thread leaves for its replacement to execute.
  bool begun = false;
  std::unique_lock<std::mutex> lk(sh->mu);
  for (;;) {
    sh->cv.wait(lk, [&] {
      return sh->next >= script.size() || script[sh->next].tid == lane;
    });
    if (sh->next >= script.size()) return;
    const instrument::TraceEvent& e = script[sh->next];
    if (begun && e.kind == instrument::TraceEvent::Kind::kThreadBegin) {
      // Drain inside the turnstile, before the hand-off is published: the
      // exiting thread's buffered accesses must reach the detector before
      // any later step of the script runs, or the scripted global order —
      // and with it oracle equality — is lost.
      sh->sink->on_drain(lane);
      ++sh->churns;
      sh->respawns.push_back(lane);
      sh->cv.notify_all();
      return;  // thread exits; a replacement takes over the lane
    }
    begun = true;
    // Holding the turnstile lock during the sink call is what makes the
    // global order exact. Other lanes are parked on the cv (outside the
    // sink), so a stop-the-world maintenance pass triggered by this event
    // drains immediately — no lock-order cycle.
    instrument::dispatch(e, *sh->sink);
    ++sh->next;
    // Batched pipeline ordering point: a run of same-lane steps may stay
    // buffered (exercising multi-event batches), but the buffer must drain
    // before the script hands the global order to another lane — where
    // instrument::replay() drains too.
    if (sh->next >= script.size() || script[sh->next].tid != lane) {
      sh->sink->on_drain(lane);
    }
    sh->cv.notify_all();
  }
}

std::uint64_t run_lockstep(const std::vector<instrument::TraceEvent>& script,
                           instrument::AccessSink& sink, int threads) {
  LockstepShared sh;
  sh.script = &script;
  sh.sink = &sink;
  std::vector<std::thread> lanes;
  lanes.reserve(static_cast<std::size_t>(threads));
  for (int l = 0; l < threads; ++l) {
    lanes.emplace_back(lockstep_lane, &sh, l);
  }
  std::unique_lock<std::mutex> lk(sh.mu);
  for (;;) {
    sh.cv.wait(lk, [&] {
      return !sh.respawns.empty() || sh.next >= script.size();
    });
    while (!sh.respawns.empty()) {
      const int lane = sh.respawns.back();
      sh.respawns.pop_back();
      lk.unlock();
      // Join BEFORE respawning: the lane's tid is never driven by two
      // threads at once.
      lanes[static_cast<std::size_t>(lane)].join();
      lanes[static_cast<std::size_t>(lane)] =
          std::thread(lockstep_lane, &sh, lane);
      lk.lock();
    }
    if (sh.next >= script.size()) break;
  }
  lk.unlock();
  sh.cv.notify_all();
  for (std::thread& t : lanes) {
    if (t.joinable()) t.join();
  }
  return sh.churns;
}

// ---------------------------------------------------------------------------
// Free-run family: barrier-phased, conflict-free by construction.

struct FreePlan {
  int phases = 0;
  /// writer[phase][word] -> owning lane (every word written every phase).
  std::vector<std::vector<std::int16_t>> writer;
  /// reads[phase][lane] -> words that lane reads in the phase.
  std::vector<std::vector<std::vector<std::uint16_t>>> reads;
};

FreePlan make_free_plan(const StressOptions& o) {
  support::SplitMix64 rng(o.seed * 0xbf58476d1ce4e5b9ULL + 2);
  FreePlan plan;
  // Each phase performs `words` writes plus ~words*threads/2 reads; size the
  // phase count so total accesses approximate o.steps.
  const std::uint64_t per_phase =
      static_cast<std::uint64_t>(o.words) *
      (1 + static_cast<std::uint64_t>(o.threads) / 2);
  plan.phases = static_cast<int>(
      std::max<std::uint64_t>(1, o.steps / std::max<std::uint64_t>(1, per_phase)));
  plan.writer.resize(static_cast<std::size_t>(plan.phases));
  plan.reads.resize(static_cast<std::size_t>(plan.phases));
  for (int p = 0; p < plan.phases; ++p) {
    auto& w = plan.writer[static_cast<std::size_t>(p)];
    w.resize(static_cast<std::size_t>(o.words));
    for (int word = 0; word < o.words; ++word) {
      w[static_cast<std::size_t>(word)] = static_cast<std::int16_t>(
          rng.next_below(static_cast<std::uint64_t>(o.threads)));
    }
    auto& r = plan.reads[static_cast<std::size_t>(p)];
    r.resize(static_cast<std::size_t>(o.threads));
    for (int lane = 0; lane < o.threads; ++lane) {
      for (int word = 0; word < o.words; ++word) {
        if (rng.next_below(2) == 0) {
          r[static_cast<std::size_t>(lane)].push_back(
              static_cast<std::uint16_t>(word));
        }
      }
    }
  }
  return plan;
}

void free_lane(const FreePlan& plan, instrument::AccessSink& sink,
               threading::Barrier& barrier, int lane) {
  sink.on_thread_begin(lane);
  for (int p = 0; p < plan.phases; ++p) {
    const auto& w = plan.writer[static_cast<std::size_t>(p)];
    for (std::size_t word = 0; word < w.size(); ++word) {
      if (w[word] == static_cast<std::int16_t>(lane)) {
        sink.on_access(lane, word_addr(word), 8,
                       instrument::AccessKind::kWrite);
      }
    }
    // Drain before every barrier so all phase-p writes are through the
    // detector before any lane issues a phase-p read (and all reads before
    // the next phase's writes) — the ordering the oracle's serial replay
    // assumes, independent of batch size.
    sink.on_drain(lane);
    barrier.arrive_and_wait();
    for (std::uint16_t word :
         plan.reads[static_cast<std::size_t>(p)][static_cast<std::size_t>(
             lane)]) {
      sink.on_access(lane, word_addr(word), 8, instrument::AccessKind::kRead);
    }
    sink.on_drain(lane);
    barrier.arrive_and_wait();
  }
}

void run_free(const FreePlan& plan, instrument::AccessSink& sink,
              int threads) {
  threading::Barrier barrier(threads);
  std::vector<std::thread> lanes;
  lanes.reserve(static_cast<std::size_t>(threads));
  for (int l = 0; l < threads; ++l) {
    lanes.emplace_back(free_lane, std::cref(plan), std::ref(sink),
                       std::ref(barrier), l);
  }
  for (std::thread& t : lanes) t.join();
}

/// The free family's serial order for the oracle: per phase, every lane's
/// writes, then every lane's reads.
std::vector<instrument::TraceEvent> serialize_free(const FreePlan& plan,
                                                   int threads) {
  instrument::TraceRecorder trace;
  for (int l = 0; l < threads; ++l) trace.on_thread_begin(l);
  for (int p = 0; p < plan.phases; ++p) {
    // The serial replay must issue each lane's accesses in the same per-lane
    // order as the concurrent run so a mirrored SamplingSink drops the same
    // subset; within a phase the cross-lane order is immaterial (disjoint
    // writes, then first-reads against settled writers).
    const auto& w = plan.writer[static_cast<std::size_t>(p)];
    for (int lane = 0; lane < threads; ++lane) {
      for (std::size_t word = 0; word < w.size(); ++word) {
        if (w[word] == static_cast<std::int16_t>(lane)) {
          trace.on_access(lane, word_addr(word), 8,
                          instrument::AccessKind::kWrite);
        }
      }
    }
    for (int lane = 0; lane < threads; ++lane) {
      for (std::uint16_t word :
           plan.reads[static_cast<std::size_t>(p)][static_cast<std::size_t>(
               lane)]) {
        trace.on_access(lane, word_addr(word), 8,
                        instrument::AccessKind::kRead);
      }
    }
  }
  return trace.events();
}

// ---------------------------------------------------------------------------

instrument::SamplingOptions sampling_options(double rate) {
  // Quantize the duty cycle onto a 64-access burst cycle; at least one
  // access per cycle is always forwarded.
  auto on = static_cast<std::uint32_t>(rate * 64.0 + 0.5);
  if (on < 1) on = 1;
  if (on > 64) on = 64;
  return instrument::SamplingOptions{on, 64 - on};
}

struct GuardedRun {
  core::Matrix matrix;
  std::uint64_t churns = 0;
  std::uint64_t reentrant_drops = 0;
};

GuardedRun run_guarded(const StressOptions& o,
                       const std::vector<instrument::TraceEvent>& script,
                       const FreePlan& plan) {
  core::ProfilerOptions po;
  po.max_threads = o.threads;
  po.batch_size = o.batch;
  // The exact backend makes the comparison collision-free: any divergence
  // from the oracle is a real concurrency bug, never bloom noise.
  po.backend = core::Backend::kExact;
  core::Profiler profiler(po);
  GuardedSink::Options go;
  go.checkpoint_every = o.checkpoint_every;  // forces the safepoint gate on
  GuardedSink guarded(profiler, nullptr, go);

  std::optional<instrument::SamplingSink> sampler;
  instrument::AccessSink* top = &guarded;
  if (o.sampling < 1.0) {
    sampler.emplace(guarded, sampling_options(o.sampling));
    top = &*sampler;
  }

  GuardedRun r;
  if (o.mode == StressMode::kLockstep) {
    r.churns = run_lockstep(script, *top, o.threads);
  } else {
    run_free(plan, *top, o.threads);
  }
  top->finalize();
  r.matrix = profiler.communication_matrix();
  r.reentrant_drops = guarded.reentrant_drops();
  return r;
}

core::Matrix run_oracle(const StressOptions& o,
                        const std::vector<instrument::TraceEvent>& serial) {
  baseline::ShadowProfiler shadow(o.threads);
  std::optional<instrument::SamplingSink> sampler;
  instrument::AccessSink* top = &shadow;
  if (o.sampling < 1.0) {
    sampler.emplace(shadow, sampling_options(o.sampling));
    top = &*sampler;
  }
  instrument::replay(serial, *top);
  return shadow.communication_matrix();
}

std::uint64_t count_divergent_cells(const core::Matrix& a,
                                    const core::Matrix& b) {
  std::uint64_t diverged = 0;
  for (int p = 0; p < a.size(); ++p) {
    for (int c = 0; c < a.size(); ++c) {
      if (a.at(p, c) != b.at(p, c)) ++diverged;
    }
  }
  return diverged;
}

}  // namespace

const char* to_string(StressMode mode) noexcept {
  return mode == StressMode::kLockstep ? "lockstep" : "free";
}

StressReport run_stress(const StressOptions& options) {
  if (options.threads < 1 || options.threads > 64) {
    throw std::invalid_argument("stress: threads must be in [1, 64]");
  }
  if (options.words < 1 || options.words > 4096) {
    throw std::invalid_argument("stress: words must be in [1, 4096]");
  }
  if (!(options.sampling > 0.0) || options.sampling > 1.0) {
    throw std::invalid_argument("stress: sampling must be in (0, 1]");
  }
  if (options.steps == 0 || options.steps > (1u << 24)) {
    throw std::invalid_argument("stress: steps must be in [1, 2^24]");
  }
  if (options.batch > core::kMaxBatchSize) {
    throw std::invalid_argument("stress: batch must be in [0, 256]");
  }

  telemetry::ScopedSpan span("stress.scenario", telemetry::SpanCat::kStress);
  telemetry::counter("stress.scenarios").add(1);

  StressReport report;
  report.options = options;

  // The serial order the oracle replays; the lockstep lanes execute it too.
  FreePlan plan;
  std::vector<instrument::TraceEvent> serial;
  if (options.mode == StressMode::kLockstep) {
    serial = make_lockstep_script(options);
  } else {
    plan = make_free_plan(options);
    serial = serialize_free(plan, options.threads);
  }
  for (const instrument::TraceEvent& e : serial) {
    if (e.kind == instrument::TraceEvent::Kind::kAccess) ++report.accesses;
  }

  const GuardedRun first = run_guarded(options, serial, plan);
  report.churns = first.churns;
  report.reentrant_drops = first.reentrant_drops;
  report.deterministic = true;
  if (options.verify_determinism) {
    const GuardedRun second = run_guarded(options, serial, plan);
    report.deterministic =
        first.matrix == second.matrix && first.churns == second.churns;
    report.reentrant_drops += second.reentrant_drops;
  }

  const core::Matrix oracle = run_oracle(options, serial);
  report.divergent_cells = count_divergent_cells(first.matrix, oracle);
  report.guarded_total = first.matrix.total();
  report.oracle_total = oracle.total();
  report.passed = report.divergent_cells == 0 && report.deterministic;
  if (!report.passed) {
    telemetry::counter("stress.failures").add(1);
    telemetry::Tracer::instant("stress.failure", telemetry::SpanCat::kStress);
  }
  return report;
}

bool run_stress_sweep(const std::vector<std::uint64_t>& seeds,
                      const std::vector<int>& thread_counts,
                      const StressOptions& base, std::ostream& os) {
  bool all_passed = true;
  for (const std::uint64_t seed : seeds) {
    for (const int threads : thread_counts) {
      for (const StressMode mode :
           {StressMode::kLockstep, StressMode::kFree}) {
        StressOptions o = base;
        o.seed = seed;
        o.threads = threads;
        o.mode = mode;
        const StressReport r = run_stress(o);
        os << "seed=" << r.options.seed << " threads=" << r.options.threads
           << " mode=" << to_string(r.options.mode)
           << " batch=" << r.options.batch
           << " accesses=" << r.accesses << " churns=" << r.churns
           << " bytes=" << r.guarded_total << "/" << r.oracle_total
           << " divergent=" << r.divergent_cells
           << " deterministic=" << (r.deterministic ? "yes" : "NO") << " "
           << (r.passed ? "PASS" : "FAIL") << "\n";
        all_passed = all_passed && r.passed;
      }
    }
  }
  return all_passed;
}

}  // namespace commscope::resilience
