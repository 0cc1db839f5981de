#include "baseline/sd3_profiler.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace commscope::baseline {

Sd3Profiler::Sd3Profiler(int max_threads)
    : max_threads_(max_threads),
      threads_(std::make_unique<ThreadState[]>(
          static_cast<std::size_t>(max_threads))),
      matrix_(max_threads) {
  if (max_threads < 1 || max_threads > 64) {
    throw std::invalid_argument("Sd3Profiler supports 1..64 threads");
  }
}

void Sd3Profiler::on_thread_begin(int tid) {
  if (ThreadState* ts = thread(tid)) ts->loop_stack.clear();
}

void Sd3Profiler::on_loop_enter(int tid, instrument::LoopId id) {
  if (ThreadState* ts = thread(tid)) ts->loop_stack.push_back(id);
}

void Sd3Profiler::on_loop_exit(int tid) {
  ThreadState* ts = thread(tid);
  if (ts != nullptr && !ts->loop_stack.empty()) ts->loop_stack.pop_back();
}

void Sd3Profiler::seal(ThreadState& ts, const StreamKey& key) {
  StrideFsm& f = ts.fsms[key];
  if (f.state == StrideFsm::State::kEmpty) return;
  StrideEntry e;
  e.base = f.first;
  e.stride = f.state == StrideFsm::State::kStrideLearned ? f.stride
                                                         : static_cast<std::int64_t>(f.size);
  e.count = f.count;
  e.size = f.size;
  ts.sealed[key].push_back(e);
  f = StrideFsm{};
}

void Sd3Profiler::on_access(int tid, std::uintptr_t addr, std::uint32_t size,
                            instrument::AccessKind kind) {
  ThreadState* tsp = thread(tid);
  if (tsp == nullptr) return;
  ThreadState& ts = *tsp;
  ++ts.accesses;
  const instrument::LoopId loop =
      ts.loop_stack.empty() ? instrument::kNoLoop : ts.loop_stack.back();
  const StreamKey key{loop, kind == instrument::AccessKind::kWrite};
  const std::size_t slot = key.is_write ? 1 : 0;
  if (ts.cached_loop[slot] != loop) {
    ts.cached_fsm[slot] = &ts.fsms[key];
    ts.cached_loop[slot] = loop;
  }
  StrideFsm& f = *ts.cached_fsm[slot];

  switch (f.state) {
    case StrideFsm::State::kEmpty:
      f.state = StrideFsm::State::kFirstObserved;
      f.first = f.last = addr;
      f.count = 1;
      f.size = size;
      return;
    case StrideFsm::State::kFirstObserved: {
      const auto stride = static_cast<std::int64_t>(addr) -
                          static_cast<std::int64_t>(f.last);
      if (stride != 0 && size == f.size) {
        f.state = StrideFsm::State::kStrideLearned;
        f.stride = stride;
        f.last = addr;
        ++f.count;
        return;
      }
      break;  // repeated address or size change: seal and restart
    }
    case StrideFsm::State::kStrideLearned: {
      const auto stride = static_cast<std::int64_t>(addr) -
                          static_cast<std::int64_t>(f.last);
      if (stride == f.stride && size == f.size) {
        f.last = addr;
        ++f.count;
        return;
      }
      break;
    }
  }

  seal(ts, key);
  StrideFsm& fresh = ts.fsms[key];
  fresh.state = StrideFsm::State::kFirstObserved;
  fresh.first = fresh.last = addr;
  fresh.count = 1;
  fresh.size = size;
}

std::vector<Sd3Profiler::Interval> Sd3Profiler::merged_intervals(
    const std::vector<StrideEntry>& entries) {
  // Conservative byte-interval view: a progression covers [lo, hi); gaps
  // between strided elements are filled, an over-approximation in the spirit
  // of SD3's compressed representation.
  std::vector<Interval> spans;
  spans.reserve(entries.size());
  for (const StrideEntry& e : entries) {
    const std::int64_t extent =
        e.stride * static_cast<std::int64_t>(e.count > 0 ? e.count - 1 : 0);
    const std::uintptr_t lo =
        extent >= 0 ? e.base : e.base + static_cast<std::uintptr_t>(extent);
    const std::uintptr_t hi =
        (extent >= 0 ? e.base + static_cast<std::uintptr_t>(extent) : e.base) +
        e.size;
    spans.push_back(Interval{lo, hi});
  }
  std::sort(spans.begin(), spans.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  std::vector<Interval> merged;
  for (const Interval& s : spans) {
    if (!merged.empty() && s.lo <= merged.back().hi) {
      merged.back().hi = std::max(merged.back().hi, s.hi);
    } else {
      merged.push_back(s);
    }
  }
  return merged;
}

std::uint64_t Sd3Profiler::overlap_bytes(const std::vector<Interval>& a,
                                         const std::vector<Interval>& b) {
  // Two-pointer sweep over sorted disjoint interval lists.
  std::uint64_t bytes = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const std::uintptr_t lo = std::max(a[i].lo, b[j].lo);
    const std::uintptr_t hi = std::min(a[i].hi, b[j].hi);
    if (lo < hi) bytes += hi - lo;
    if (a[i].hi < b[j].hi) {
      ++i;
    } else {
      ++j;
    }
  }
  return bytes;
}

void Sd3Profiler::finalize() {
  if (finalized_) return;
  for (int t = 0; t < max_threads_; ++t) {
    ThreadState& ts = threads_[static_cast<std::size_t>(t)];
    std::vector<StreamKey> keys;
    keys.reserve(ts.fsms.size());
    for (const auto& [key, fsm] : ts.fsms) keys.push_back(key);
    for (const StreamKey& key : keys) seal(ts, key);
  }

  // Pre-merge every (thread, stream) into a sorted disjoint interval list so
  // the pairwise detection is a linear sweep instead of an entry-pair
  // product (real SD3 uses interval trees for the same reason).
  std::vector<std::map<StreamKey, std::vector<Interval>>> merged(
      static_cast<std::size_t>(max_threads_));
  for (int t = 0; t < max_threads_; ++t) {
    for (const auto& [key, entries] :
         threads_[static_cast<std::size_t>(t)].sealed) {
      merged[static_cast<std::size_t>(t)][key] = merged_intervals(entries);
    }
  }

  for (int p = 0; p < max_threads_; ++p) {
    for (const auto& [wkey, wintervals] : merged[static_cast<std::size_t>(p)]) {
      if (!wkey.is_write) continue;
      const StreamKey rkey{wkey.loop, false};
      for (int c = 0; c < max_threads_; ++c) {
        if (p == c) continue;
        const auto it = merged[static_cast<std::size_t>(c)].find(rkey);
        if (it == merged[static_cast<std::size_t>(c)].end()) continue;
        matrix_.at(p, c) += overlap_bytes(wintervals, it->second);
      }
    }
  }
  finalized_ = true;
}

core::Matrix Sd3Profiler::communication_matrix() const {
  if (!finalized_) {
    throw std::logic_error("Sd3Profiler: call finalize() first");
  }
  return matrix_;
}

std::uint64_t Sd3Profiler::memory_bytes() const {
  std::uint64_t entries = entry_count();
  std::uint64_t open = 0;
  for (int t = 0; t < max_threads_; ++t) {
    open += threads_[static_cast<std::size_t>(t)].fsms.size();
  }
  return entries * sizeof(StrideEntry) + open * sizeof(StrideFsm);
}

std::uint64_t Sd3Profiler::entry_count() const {
  std::uint64_t n = 0;
  for (int t = 0; t < max_threads_; ++t) {
    for (const auto& [key, entries] :
         threads_[static_cast<std::size_t>(t)].sealed) {
      n += entries.size();
    }
  }
  return n;
}

std::uint64_t Sd3Profiler::access_count() const {
  std::uint64_t n = 0;
  for (int t = 0; t < max_threads_; ++t) {
    n += threads_[static_cast<std::size_t>(t)].accesses;
  }
  return n;
}

}  // namespace commscope::baseline
