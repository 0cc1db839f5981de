#include "instrument/trace.hpp"

#include <algorithm>
#include <cstddef>
#include <istream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "support/textio.hpp"

namespace commscope::instrument {

void TraceRecorder::on_thread_begin(int tid) {
  std::lock_guard lock(mu_);
  events_.push_back({TraceEvent::Kind::kThreadBegin, AccessKind::kRead,
                     static_cast<std::uint16_t>(tid), 0, 0});
}

void TraceRecorder::on_loop_enter(int tid, LoopId id) {
  std::lock_guard lock(mu_);
  events_.push_back({TraceEvent::Kind::kLoopEnter, AccessKind::kRead,
                     static_cast<std::uint16_t>(tid), 0,
                     static_cast<std::uint64_t>(id)});
}

void TraceRecorder::on_loop_exit(int tid) {
  std::lock_guard lock(mu_);
  events_.push_back({TraceEvent::Kind::kLoopExit, AccessKind::kRead,
                     static_cast<std::uint16_t>(tid), 0, 0});
}

void TraceRecorder::on_access(int tid, std::uintptr_t addr, std::uint32_t size,
                              AccessKind kind) {
  std::lock_guard lock(mu_);
  events_.push_back({TraceEvent::Kind::kAccess, kind,
                     static_cast<std::uint16_t>(tid), size,
                     static_cast<std::uint64_t>(addr)});
}

void replay(const std::vector<TraceEvent>& events, AccessSink& sink) {
  // Replay applies the recorded global interleaving on one thread. A batched
  // sink buffers per-tid, which would let a later thread's events overtake an
  // earlier thread's still-buffered ones; draining the outgoing tid at every
  // tid switch pins the apply order to the recorded order, so replay reports
  // are bit-identical at every batch size.
  int last_tid = -1;
  for (const TraceEvent& e : events) {
    if (static_cast<int>(e.tid) != last_tid) {
      if (last_tid >= 0) sink.on_drain(last_tid);
      last_tid = static_cast<int>(e.tid);
    }
    dispatch(e, sink);
  }
  sink.finalize();
}

std::vector<TraceEvent> round_robin(const std::vector<TraceEvent>& events) {
  std::vector<std::vector<TraceEvent>> lanes;
  for (const TraceEvent& e : events) {
    if (e.tid >= lanes.size()) lanes.resize(e.tid + 1u);
    lanes[e.tid].push_back(e);
  }
  std::vector<TraceEvent> out;
  out.reserve(events.size());
  for (std::size_t pos = 0; out.size() < events.size();
       pos += kRoundRobinChunk) {
    for (const std::vector<TraceEvent>& lane : lanes) {
      if (pos >= lane.size()) continue;
      const std::size_t stop = std::min(lane.size(), pos + kRoundRobinChunk);
      out.insert(out.end(), lane.begin() + static_cast<std::ptrdiff_t>(pos),
                 lane.begin() + static_cast<std::ptrdiff_t>(stop));
    }
  }
  return out;
}

namespace {
constexpr const char* kMagic = "commscope-trace";
constexpr int kVersion = 2;
/// Hostile-input ceilings, enforced before any allocation sized by a
/// declared count. 2^26 16-byte events is a 1 GiB trace — far beyond any
/// dev/small-scale capture.
constexpr std::size_t kMaxEvents = 1u << 26;
constexpr std::size_t kMaxLoops = 1u << 20;
constexpr std::size_t kMaxFileBytes = 2048ull << 20;
/// Pre-reserve is bounded separately so a lying event count cannot allocate
/// ahead of the actual data.
constexpr std::size_t kMaxReserve = 1u << 20;
}  // namespace

void write_trace(std::ostream& os, const std::vector<TraceEvent>& events) {
  std::string payload;
  payload += kMagic;
  payload += ' ';
  payload += std::to_string(kVersion);
  payload += '\n';
  payload += std::to_string(events.size());
  payload += '\n';
  for (const TraceEvent& e : events) {
    payload += std::to_string(static_cast<int>(e.kind));
    payload += ' ';
    payload += std::to_string(static_cast<int>(e.access));
    payload += ' ';
    payload += std::to_string(e.tid);
    payload += ' ';
    payload += std::to_string(e.size);
    payload += ' ';
    payload += std::to_string(e.payload);
    payload += '\n';
  }
  // Loop-name table for the UIDs this trace references.
  std::map<std::uint64_t, LoopInfo> loops;
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEvent::Kind::kLoopEnter && !loops.count(e.payload)) {
      loops[e.payload] =
          LoopRegistry::instance().info(static_cast<LoopId>(e.payload));
    }
  }
  payload += "loops ";
  payload += std::to_string(loops.size());
  payload += '\n';
  for (const auto& [uid, info] : loops) {
    payload += std::to_string(uid);
    payload += ' ';
    payload += info.function;
    payload += ' ';
    payload += info.name;
    payload += '\n';
  }
  os << support::with_crc_trailer(std::move(payload));
}

std::vector<TraceEvent> read_trace(std::istream& is) {
  const std::string text = support::slurp_stream(is, kMaxFileBytes, "trace");
  // Version-1 traces predate the CRC trailer; version 2 requires one.
  const std::string_view payload =
      support::verify_crc_trailer(text, /*require=*/false, "trace");

  support::TokenScanner sc(payload, "trace");
  if (sc.next_token() != kMagic) sc.fail("bad magic");
  const int version = sc.next_uint<int>("version");
  if (version != 1 && version != kVersion) sc.fail("bad version");
  if (version >= 2 && payload.size() == text.size()) {
    sc.fail("missing crc trailer");
  }

  const auto count =
      sc.next_uint_capped<std::size_t>("event count", kMaxEvents);
  std::vector<TraceEvent> events;
  events.reserve(std::min(count, kMaxReserve));
  for (std::size_t i = 0; i < count; ++i) {
    TraceEvent e;
    const int kind = sc.next_uint_capped<int>("event kind", 3);
    const int access = sc.next_uint_capped<int>("access kind", 1);
    e.tid = sc.next_uint<std::uint16_t>("tid");
    e.size = sc.next_uint<std::uint32_t>("size");
    e.payload = sc.next_uint<std::uint64_t>("payload");
    e.kind = static_cast<TraceEvent::Kind>(kind);
    e.access = static_cast<AccessKind>(access);
    events.push_back(e);
  }

  // Optional loop-name table (absent in hand-built traces): re-declare each
  // loop locally and remap the events' UIDs.
  if (!sc.at_end()) {
    if (sc.next_token() != "loops") sc.fail("bad section");
    const auto nloops =
        sc.next_uint_capped<std::size_t>("loop count", kMaxLoops);
    std::map<std::uint64_t, LoopId> remap;
    for (std::size_t i = 0; i < nloops; ++i) {
      const auto uid = sc.next_uint<std::uint64_t>("loop uid");
      const std::string_view function = sc.next_token();
      // A loop name may contain spaces; it runs to the end of the line.
      const std::string_view name = sc.rest_of_line();
      if (function.empty() || name.empty()) sc.fail("truncated loop table");
      remap[uid] = LoopRegistry::instance().declare(std::string(function),
                                                    std::string(name));
    }
    if (!sc.at_end()) sc.fail("trailing data after loop table");
    for (TraceEvent& e : events) {
      if (e.kind != TraceEvent::Kind::kLoopEnter) continue;
      const auto it = remap.find(e.payload);
      if (it != remap.end()) e.payload = it->second;
    }
  }
  return events;
}

}  // namespace commscope::instrument
