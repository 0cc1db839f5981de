#include "core/epoch_io.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "support/textio.hpp"

namespace commscope::core {

namespace {

constexpr const char* kMagic = "commscope-epochs";
/// v1: counterless epochs. v2: every epoch carries its perf delta. The
/// writer picks the lowest version that represents the data (see header).
constexpr int kVersionCounterless = 1;
constexpr int kVersionPerf = 2;
/// Matrix-dimension ceiling (the profiler itself caps at 64; leave headroom
/// for foreign producers, but never enough for a quadratic allocation bomb).
constexpr int kMaxThreads = 4096;
/// Surviving-epoch ceiling, enforced before any per-epoch allocation. The
/// live ring caps at kMaxEpochRing; accept exactly that.
constexpr std::uint64_t kMaxEpochs = kMaxEpochRing;
/// Per-epoch loop-share ceiling (distinct annotated loops in one window).
constexpr std::uint64_t kMaxLoopShares = 1u << 16;
constexpr std::size_t kMaxFileBytes = 512u << 20;
constexpr std::size_t kMaxLabel = 512;

bool has_perf(const EpochSample& e) noexcept {
  return e.perf.any() || e.perf.multiplexed;
}

}  // namespace

void write_epoch_block(std::string& out, const EpochSample& e,
                       PerfBlock perf) {
  out += "epoch " + std::to_string(e.index) + " first " +
         std::to_string(e.first_access) + " last " +
         std::to_string(e.last_access) + " deps " +
         std::to_string(e.dependencies) + " bytes " + std::to_string(e.bytes) +
         " reason " + to_string(e.reason) + " cells " +
         std::to_string(e.cells.size()) + " loops " +
         std::to_string(e.loops.size());
  if (perf == PerfBlock::kEvery ||
      (perf == PerfBlock::kOptional && has_perf(e))) {
    out += " perf " + std::to_string(e.perf.present) + ' ' +
           std::to_string(e.perf.multiplexed ? 1 : 0) + ' ' +
           std::to_string(e.perf.cycles) + ' ' +
           std::to_string(e.perf.instructions) + ' ' +
           std::to_string(e.perf.llc_misses) + ' ' +
           std::to_string(e.perf.hitm);
  }
  out += '\n';
  for (const EpochCell& c : e.cells) {
    out += std::to_string(c.producer) + ' ' + std::to_string(c.consumer) +
           ' ' + std::to_string(c.bytes) + '\n';
  }
  for (const EpochLoopShare& share : e.loops) {
    out += std::to_string(share.loop) + ' ' + std::to_string(share.bytes) +
           '\n';
  }
}

EpochSample read_epoch_block(support::TokenScanner& sc, int threads,
                             PerfBlock perf) {
  if (sc.next_token() != "epoch") sc.fail("expected 'epoch'");
  EpochSample e;
  e.index = sc.next_uint<std::uint64_t>("epoch index");
  if (sc.next_token() != "first") sc.fail("expected 'first'");
  e.first_access = sc.next_uint<std::uint64_t>("first access");
  if (sc.next_token() != "last") sc.fail("expected 'last'");
  e.last_access = sc.next_uint<std::uint64_t>("last access");
  if (e.last_access < e.first_access) sc.fail("epoch window inverted");
  if (sc.next_token() != "deps") sc.fail("expected 'deps'");
  e.dependencies = sc.next_uint<std::uint64_t>("dependency count");
  if (sc.next_token() != "bytes") sc.fail("expected 'bytes'");
  e.bytes = sc.next_uint<std::uint64_t>("byte count");
  if (sc.next_token() != "reason") sc.fail("expected 'reason'");
  e.reason = epoch_seal_from_string(std::string(sc.next_token()));
  if (sc.next_token() != "cells") sc.fail("expected 'cells'");
  const auto dim = static_cast<std::uint64_t>(threads);
  const std::uint64_t cells =
      sc.next_uint_capped<std::uint64_t>("cell count", dim * dim);
  if (sc.next_token() != "loops") sc.fail("expected 'loops'");
  const std::uint64_t loops =
      sc.next_uint_capped<std::uint64_t>("loop-share count", kMaxLoopShares);
  if (perf == PerfBlock::kEvery ||
      (perf == PerfBlock::kOptional && sc.peek_token() == "perf")) {
    if (sc.next_token() != "perf") sc.fail("expected 'perf'");
    e.perf.present = sc.next_uint_capped<std::uint8_t>(
        "perf present mask", telemetry::kPerfPresentAll);
    e.perf.multiplexed =
        sc.next_uint_capped<std::uint8_t>("perf mux flag", 1) != 0;
    e.perf.cycles = sc.next_uint<std::uint64_t>("perf cycles");
    e.perf.instructions = sc.next_uint<std::uint64_t>("perf instructions");
    e.perf.llc_misses = sc.next_uint<std::uint64_t>("perf llc misses");
    e.perf.hitm = sc.next_uint<std::uint64_t>("perf hitm");
  }
  const auto max_tid = static_cast<std::uint16_t>(threads - 1);
  e.cells.reserve(cells);
  for (std::uint64_t k = 0; k < cells; ++k) {
    EpochCell c;
    c.producer = sc.next_uint_capped<std::uint16_t>("producer", max_tid);
    c.consumer = sc.next_uint_capped<std::uint16_t>("consumer", max_tid);
    c.bytes = sc.next_uint<std::uint64_t>("cell bytes");
    e.cells.push_back(c);
  }
  e.loops.reserve(loops);
  for (std::uint64_t k = 0; k < loops; ++k) {
    EpochLoopShare share;
    share.loop = sc.next_uint<std::uint32_t>("loop id");
    share.bytes = sc.next_uint<std::uint64_t>("loop bytes");
    e.loops.push_back(share);
  }
  return e;
}

void write_epochs(std::ostream& os, const EpochTimeline& t) {
  const bool any_perf =
      std::any_of(t.epochs.begin(), t.epochs.end(), has_perf);
  std::string payload;
  payload += kMagic;
  payload += ' ';
  payload += std::to_string(any_perf ? kVersionPerf : kVersionCounterless);
  payload += '\n';
  payload += "threads " + std::to_string(t.threads) + '\n';
  payload += "sealed " + std::to_string(t.sealed) + " dropped " +
             std::to_string(t.dropped) + '\n';
  payload += "loops " + std::to_string(t.loop_labels.size()) + '\n';
  for (const auto& [id, label] : t.loop_labels) {
    // Labels are free text but single-line by construction; a newline would
    // corrupt the framing, so it is squashed defensively on write.
    std::string clean = label.substr(0, kMaxLabel);
    for (char& ch : clean) {
      if (ch == '\n' || ch == '\r') ch = ' ';
    }
    payload += std::to_string(id) + ' ' + clean + '\n';
  }
  const PerfBlock perf = any_perf ? PerfBlock::kEvery : PerfBlock::kNone;
  for (const EpochSample& e : t.epochs) write_epoch_block(payload, e, perf);
  os << support::with_crc_trailer(std::move(payload));
}

EpochTimeline read_epochs(std::istream& is) {
  const std::string text = support::slurp_stream(is, kMaxFileBytes, "epoch_io");
  return read_epochs(std::string_view(text));
}

EpochTimeline read_epochs(std::string_view text) {
  if (text.size() > kMaxFileBytes) {
    throw std::runtime_error("epoch_io: file too large");
  }
  const std::string_view payload =
      support::verify_crc_trailer(text, /*require=*/true, "epoch_io");

  support::TokenScanner sc(payload, "epoch_io");
  if (sc.next_token() != kMagic) sc.fail("bad magic");
  const int version = sc.next_uint<int>("version");
  if (version != kVersionCounterless && version != kVersionPerf) {
    sc.fail("unsupported version " + std::to_string(version));
  }

  EpochTimeline t;
  if (sc.next_token() != "threads") sc.fail("expected 'threads'");
  t.threads = sc.next_uint_capped<int>("thread count", kMaxThreads);
  if (t.threads < 1) sc.fail("invalid thread count");
  if (sc.next_token() != "sealed") sc.fail("expected 'sealed'");
  t.sealed = sc.next_uint<std::uint64_t>("sealed count");
  if (sc.next_token() != "dropped") sc.fail("expected 'dropped'");
  t.dropped = sc.next_uint<std::uint64_t>("dropped count");
  if (t.dropped > t.sealed) sc.fail("dropped exceeds sealed");
  const std::uint64_t surviving = t.sealed - t.dropped;
  if (surviving > kMaxEpochs) sc.fail("epoch count out of range");

  if (sc.next_token() != "loops") sc.fail("expected 'loops'");
  const std::uint64_t labels =
      sc.next_uint_capped<std::uint64_t>("label count", kMaxLoopShares);
  t.loop_labels.reserve(labels);
  for (std::uint64_t i = 0; i < labels; ++i) {
    const std::uint32_t id = sc.next_uint<std::uint32_t>("loop id");
    const std::string_view label = sc.rest_of_line();
    if (label.empty() || label.size() > kMaxLabel) sc.fail("invalid label");
    t.loop_labels.emplace_back(id, std::string(label));
  }

  const PerfBlock perf =
      version >= kVersionPerf ? PerfBlock::kEvery : PerfBlock::kNone;
  t.epochs.reserve(surviving);
  for (std::uint64_t i = 0; i < surviving; ++i) {
    t.epochs.push_back(read_epoch_block(sc, t.threads, perf));
  }
  if (!sc.at_end()) sc.fail("trailing data after epochs");
  return t;
}

}  // namespace commscope::core
