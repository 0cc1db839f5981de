#include "serve/session.hpp"

#include <algorithm>

#include "core/epoch_io.hpp"
#include "instrument/loop_registry.hpp"

namespace commscope::serve {

const char* to_string(SessionState s) noexcept {
  switch (s) {
    case SessionState::kActive: return "active";
    case SessionState::kSealed: return "sealed";
    case SessionState::kReaped: return "reaped";
    case SessionState::kDropped: return "dropped";
  }
  return "?";
}

SessionState session_state_from_string(std::string_view s) {
  if (s == "active") return SessionState::kActive;
  if (s == "sealed") return SessionState::kSealed;
  if (s == "reaped") return SessionState::kReaped;
  if (s == "dropped") return SessionState::kDropped;
  throw std::runtime_error("serve-snapshot: unknown session state '" +
                           std::string(s) + "'");
}

Aggregate::Aggregate(std::uint32_t ring_capacity,
                     support::MemoryTracker* tracker)
    : capacity_(std::min(std::max<std::uint32_t>(ring_capacity, 1),
                         core::kMaxEpochRing)),
      tracker_(tracker) {}

Aggregate::~Aggregate() {
  if (tracker_ != nullptr && charged_ > 0) tracker_->sub(charged_);
}

void Aggregate::charge(std::uint64_t bytes) {
  charged_ += bytes;
  if (tracker_ != nullptr) tracker_->add(bytes);
}

void Aggregate::discharge(std::uint64_t bytes) {
  charged_ -= std::min(charged_, bytes);
  if (tracker_ != nullptr) tracker_->sub(bytes);
}

std::uint64_t Aggregate::epoch_cost(const core::EpochSample& e) noexcept {
  return sizeof(core::EpochSample) +
         e.cells.size() * sizeof(core::EpochCell) +
         e.loops.size() * sizeof(core::EpochLoopShare);
}

std::uint32_t Aggregate::label_id(const std::string& label) {
  const auto it = label_ids_.find(label);
  if (it != label_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(labels_.size());
  label_ids_.emplace(label, id);
  labels_.emplace_back(id, label);
  label_bytes_.push_back(0);
  charge(label.size() * 2 + sizeof(std::uint64_t) + 64);
  return id;
}

void Aggregate::merge(const core::EpochTimeline& src,
                      const core::EpochSample& e) {
  // Grow the merged matrix to the widest contributor seen so far. Cells are
  // plain uint64 sums (like EpochTimeline::total()), so the merge of N
  // sessions is bit-identical to summing their ground-truth matrices.
  const int want = std::max(src.threads, 1);
  if (want > threads_) {
    std::vector<std::uint64_t> grown(
        static_cast<std::size_t>(want) * static_cast<std::size_t>(want), 0);
    for (int p = 0; p < threads_; ++p) {
      for (int c = 0; c < threads_; ++c) {
        grown[static_cast<std::size_t>(p) * want + c] =
            cells_[static_cast<std::size_t>(p) * threads_ + c];
      }
    }
    charge((grown.size() - cells_.size()) * sizeof(std::uint64_t));
    cells_ = std::move(grown);
    threads_ = want;
  }
  for (const core::EpochCell& c : e.cells) {
    if (c.producer < threads_ && c.consumer < threads_) {
      cells_[static_cast<std::size_t>(c.producer) * threads_ + c.consumer] +=
          c.bytes;
    }
  }

  // Re-key the sender's process-local loop ids by label into the daemon's
  // global table; the merged ring's shares all speak that one vocabulary.
  core::EpochSample merged = e;
  merged.index = sealed_;
  merged.reason = e.reason;
  for (core::EpochLoopShare& share : merged.loops) {
    const std::uint64_t bytes = share.bytes;
    if (share.loop != instrument::kNoLoop) {
      share.loop = label_id(src.label_of(share.loop));
      label_bytes_[share.loop] += bytes;
    }
  }

  if (ring_.size() < capacity_) {
    charge(epoch_cost(merged));
    ring_.push_back(std::move(merged));
    ring_head_ = ring_.size() % capacity_;
  } else {
    discharge(epoch_cost(ring_[ring_head_]));
    charge(epoch_cost(merged));
    ring_[ring_head_] = std::move(merged);
    ring_head_ = (ring_head_ + 1) % capacity_;
    ++dropped_;
  }
  ++sealed_;
}

core::Matrix Aggregate::matrix() const {
  core::Matrix m(std::max(threads_, 1));
  for (int p = 0; p < threads_; ++p) {
    for (int c = 0; c < threads_; ++c) {
      m.at(p, c) = cells_[static_cast<std::size_t>(p) * threads_ + c];
    }
  }
  return m;
}

core::EpochTimeline Aggregate::timeline() const {
  core::EpochTimeline t;
  t.threads = std::max(threads_, 1);
  t.sealed = sealed_;
  t.dropped = dropped_;
  t.loop_labels = labels_;
  t.epochs.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) t.epochs.push_back(oldest(i));
  return t;
}

void Aggregate::serialize(std::string& out) const {
  out += "aggregate threads " + std::to_string(threads_) + " sealed " +
         std::to_string(sealed_) + " dropped " + std::to_string(dropped_) +
         " labels " + std::to_string(labels_.size()) + " ring ";
  out += std::to_string(ring_.size()) + '\n';
  out += "cells";
  for (const std::uint64_t v : cells_) out += ' ' + std::to_string(v);
  out += '\n';
  for (const auto& [id, label] : labels_) {
    out += "label " + std::to_string(id) + ' ' +
           std::to_string(label_bytes_[id]) + ' ' + label + '\n';
  }
  // Ring entries serialize oldest-first, so restore() rebuilds an
  // equivalent overwrite cursor. Each carries the counter block only when it
  // has counters: counterless snapshots keep the pre-perf bytes.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    core::write_epoch_block(out, oldest(i), core::PerfBlock::kOptional);
  }
}

void Aggregate::restore(support::TokenScanner& sc) {
  // Caps mirror epoch_io's hostile-reader ceilings: nothing is allocated
  // from a declared count before the count itself is bounded.
  constexpr int kMaxThreads = 4096;
  constexpr std::uint64_t kMaxLabels = 1u << 16;
  constexpr std::size_t kMaxLabel = 512;

  if (sc.next_token() != "aggregate") sc.fail("expected 'aggregate'");
  if (sc.next_token() != "threads") sc.fail("expected 'threads'");
  threads_ = sc.next_uint_capped<int>("aggregate threads", kMaxThreads);
  if (threads_ < 0) sc.fail("invalid aggregate threads");
  if (sc.next_token() != "sealed") sc.fail("expected 'sealed'");
  sealed_ = sc.next_uint<std::uint64_t>("aggregate sealed");
  if (sc.next_token() != "dropped") sc.fail("expected 'dropped'");
  dropped_ = sc.next_uint<std::uint64_t>("aggregate dropped");
  if (sc.next_token() != "labels") sc.fail("expected 'labels'");
  const std::uint64_t labels =
      sc.next_uint_capped<std::uint64_t>("label count", kMaxLabels);
  if (sc.next_token() != "ring") sc.fail("expected 'ring'");
  const std::uint64_t ring = sc.next_uint_capped<std::uint64_t>(
      "ring count", static_cast<std::uint64_t>(capacity_));

  if (sc.next_token() != "cells") sc.fail("expected 'cells'");
  const std::size_t want_cells = static_cast<std::size_t>(threads_) *
                                 static_cast<std::size_t>(threads_);
  cells_.resize(want_cells, 0);
  charge(want_cells * sizeof(std::uint64_t));
  for (std::size_t i = 0; i < want_cells; ++i) {
    cells_[i] = sc.next_uint<std::uint64_t>("cell sum");
  }

  for (std::uint64_t i = 0; i < labels; ++i) {
    if (sc.next_token() != "label") sc.fail("expected 'label'");
    const std::uint32_t id = sc.next_uint<std::uint32_t>("label id");
    if (id != i) sc.fail("label ids must be dense from 0");
    const std::uint64_t bytes = sc.next_uint<std::uint64_t>("label bytes");
    const std::string_view label = sc.rest_of_line();
    if (label.empty() || label.size() > kMaxLabel) sc.fail("invalid label");
    label_ids_.emplace(std::string(label), id);
    labels_.emplace_back(id, std::string(label));
    label_bytes_.push_back(bytes);
    charge(label.size() * 2 + sizeof(std::uint64_t) + 64);
  }

  ring_.reserve(ring);
  for (std::uint64_t i = 0; i < ring; ++i) {
    ring_.push_back(
        core::read_epoch_block(sc, threads_, core::PerfBlock::kOptional));
    charge(epoch_cost(ring_.back()));
  }
  ring_head_ = ring_.size() >= capacity_ ? 0 : ring_.size() % capacity_;
  if (sealed_ < ring_.size()) sc.fail("ring exceeds sealed count");
}

std::map<std::string, std::uint64_t> Aggregate::loop_totals() const {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [id, label] : labels_) out[label] = label_bytes_[id];
  return out;
}

// --- transitions -------------------------------------------------------------

Session& ServeState::open(std::uint64_t id, int threads) {
  Session s;
  s.id = id;
  s.threads = threads;
  s.charged = kSessionBaseCost;
  if (tracker_ != nullptr) tracker_->add(s.charged);
  return sessions.emplace(id, std::move(s)).first->second;
}

std::vector<const core::EpochSample*> ServeState::dedupe(
    Session& s, const core::EpochTimeline& src) {
  std::vector<const core::EpochSample*> fresh;
  fresh.reserve(src.epochs.size());
  for (const core::EpochSample& e : src.epochs) {
    // The (session id, epoch index) ledger makes redelivery idempotent.
    if (!s.seen.insert(e.index).second) {
      ++s.epochs_deduped;
      continue;
    }
    s.charged += kSeenEntryCost;
    if (tracker_ != nullptr) tracker_->add(kSeenEntryCost);
    fresh.push_back(&e);
  }
  return fresh;
}

void ServeState::merge(Session& s, const core::EpochTimeline& src,
                       const std::vector<const core::EpochSample*>& fresh) {
  for (const core::EpochSample* e : fresh) aggregate.merge(src, *e);
  s.epochs_merged += fresh.size();
}

bool ServeState::end(Session& s, SessionState to, std::string_view reason) {
  if (s.state != SessionState::kActive) return false;
  s.state = to;
  if (to == SessionState::kDropped) s.drop_reason = reason;
  return true;
}

// --- snapshot ----------------------------------------------------------------

namespace {

constexpr const char* kSnapshotMagic = "commscope-serve-snapshot";
constexpr int kSnapshotVersion = 1;
constexpr std::uint64_t kMaxSessions = 1u << 16;
/// Per-session dedupe-ledger ceiling. Far above anything the bounded ring
/// can retain, but finite: a lying snapshot cannot allocate without bound.
constexpr std::uint64_t kMaxSeen = 1u << 24;
constexpr std::size_t kMaxSnapshotBytes = 512u << 20;

}  // namespace

std::string serialize_serve_state(
    const std::map<std::uint64_t, Session>& sessions, const Aggregate& agg,
    std::uint64_t last_lsn) {
  std::string out;
  out += kSnapshotMagic;
  out += ' ';
  out += std::to_string(kSnapshotVersion);
  out += '\n';
  out += "lsn " + std::to_string(last_lsn) + '\n';
  out += "sessions " + std::to_string(sessions.size()) + '\n';
  for (const auto& [id, s] : sessions) {
    out += "session " + std::to_string(id) + " threads " +
           std::to_string(s.threads) + " state " + to_string(s.state) +
           " merged " + std::to_string(s.epochs_merged) + " deduped " +
           std::to_string(s.epochs_deduped) + " seen " +
           std::to_string(s.seen.size()) + " reason ";
    // The drop reason is free text but single-line by construction; squash
    // newlines defensively like epoch_io does for labels.
    std::string clean = s.drop_reason.substr(0, 256);
    for (char& ch : clean) {
      if (ch == '\n' || ch == '\r') ch = ' ';
    }
    out += clean;
    out += '\n';
    int col = 0;
    for (const std::uint64_t idx : s.seen) {
      out += std::to_string(idx);
      out.push_back(++col % 16 == 0 ? '\n' : ' ');
    }
    if (col % 16 != 0) out += '\n';
  }
  agg.serialize(out);
  return support::with_crc_trailer(std::move(out));
}

void restore_serve_state(std::string_view text,
                         std::map<std::uint64_t, Session>& sessions,
                         Aggregate& agg, std::uint64_t& last_lsn,
                         support::MemoryTracker* tracker) {
  if (text.size() > kMaxSnapshotBytes) {
    throw std::runtime_error("serve-snapshot: file too large");
  }
  const std::string_view payload =
      support::verify_crc_trailer(text, /*require=*/true, "serve-snapshot");
  support::TokenScanner sc(payload, "serve-snapshot");
  if (sc.next_token() != kSnapshotMagic) sc.fail("bad magic");
  const int version = sc.next_uint<int>("version");
  if (version != kSnapshotVersion) {
    sc.fail("unsupported version " + std::to_string(version));
  }
  if (sc.next_token() != "lsn") sc.fail("expected 'lsn'");
  last_lsn = sc.next_uint<std::uint64_t>("lsn");
  if (sc.next_token() != "sessions") sc.fail("expected 'sessions'");
  const std::uint64_t count =
      sc.next_uint_capped<std::uint64_t>("session count", kMaxSessions);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (sc.next_token() != "session") sc.fail("expected 'session'");
    Session s;
    s.id = sc.next_uint<std::uint64_t>("session id");
    if (s.id == 0) sc.fail("session id must be nonzero");
    if (sc.next_token() != "threads") sc.fail("expected 'threads'");
    s.threads = sc.next_uint_capped<int>("session threads", 4096);
    if (s.threads < 1) sc.fail("session threads must be >= 1");
    if (sc.next_token() != "state") sc.fail("expected 'state'");
    s.state = session_state_from_string(sc.next_token());
    if (sc.next_token() != "merged") sc.fail("expected 'merged'");
    s.epochs_merged = sc.next_uint<std::uint64_t>("merged count");
    if (sc.next_token() != "deduped") sc.fail("expected 'deduped'");
    s.epochs_deduped = sc.next_uint<std::uint64_t>("deduped count");
    if (sc.next_token() != "seen") sc.fail("expected 'seen'");
    const std::uint64_t seen =
        sc.next_uint_capped<std::uint64_t>("seen count", kMaxSeen);
    if (sc.next_token() != "reason") sc.fail("expected 'reason'");
    s.drop_reason = std::string(sc.rest_of_line());
    s.seen.reserve(seen);
    for (std::uint64_t k = 0; k < seen; ++k) {
      s.seen.insert(sc.next_uint<std::uint64_t>("seen index"));
    }
    if (s.seen.size() != seen) sc.fail("duplicate seen indices");
    s.charged = kSessionBaseCost + seen * kSeenEntryCost;
    if (tracker != nullptr) tracker->add(s.charged);
    if (!sessions.emplace(s.id, std::move(s)).second) {
      sc.fail("duplicate session id");
    }
  }
  agg.restore(sc);
  if (!sc.at_end()) sc.fail("trailing data after aggregate");
}

}  // namespace commscope::serve
