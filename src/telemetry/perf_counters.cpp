#include "telemetry/perf_counters.hpp"

#include <cstdlib>
#include <cstring>
#include <string>

#include "telemetry/metrics.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#endif

namespace commscope::telemetry {

const char* to_string(HitmSource s) noexcept {
  switch (s) {
    case HitmSource::kNone: return "none";
    case HitmSource::kIntelXsnp: return "intel-xsnp-hitm";
    case HitmSource::kNodeMisses: return "node-read-misses";
  }
  return "?";
}

namespace {

/// Event slots in PerfDelta field order. kSlotCount is small and fixed; the
/// read buffer below is sized for it.
enum : int {
  kSlotCycles = 0,
  kSlotInstructions,
  kSlotLlcMisses,
  kSlotHitm,
  kSlotCount
};

constexpr std::uint8_t kSlotBit[kSlotCount] = {kPerfCycles, kPerfInstructions,
                                               kPerfLlcMisses, kPerfHitm};

/// Parses the `perf-open-fail:N` clause out of a COMMSCOPE_FAULT spec
/// without pulling the resilience layer into telemetry (layering: resilience
/// depends on telemetry, not the reverse). Unknown clauses are ignored here;
/// the FaultInjector parser remains the validator of the full spec.
std::uint32_t open_fail_from_env() noexcept {
  const char* spec = std::getenv("COMMSCOPE_FAULT");
  if (spec == nullptr) return 0;
  const char* p = std::strstr(spec, "perf-open-fail:");
  if (p == nullptr) return 0;
  p += std::strlen("perf-open-fail:");
  std::uint32_t v = 0;
  while (*p >= '0' && *p <= '9') {
    v = v * 10 + static_cast<std::uint32_t>(*p - '0');
    ++p;
  }
  return v;
}

#if defined(__linux__)

long sys_perf_event_open(struct perf_event_attr* attr, pid_t pid, int cpu,
                         int group_fd, unsigned long flags) noexcept {
  return syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
}

bool cpu_is_genuine_intel() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(0, &eax, &ebx, &ecx, &edx) == 0) return false;
  // "GenuineIntel" spelled across ebx/edx/ecx.
  return ebx == 0x756e6547u && edx == 0x49656e69u && ecx == 0x6c65746eu;
#else
  return false;
#endif
}

#endif  // __linux__

/// Per-OS-thread attach guard. perf events opened with pid=0 count the
/// *calling OS thread*; when one OS thread drives many logical tids (the
/// single-threaded replay path), attaching a group per tid would count the
/// same thread N times and inflate total() N-fold. Each engine gets a
/// process-unique id (never reused, so a recycled heap address cannot alias
/// a stale guard), and each OS thread attaches at most one tid per engine.
std::atomic<std::uint64_t> g_engine_ids{0};
thread_local std::uint64_t t_attached_engine = 0;

}  // namespace

/// One thread's counter group: fds in slot order (-1 = slot unavailable),
/// plus the read-order map (the kernel returns group values in the order
/// siblings were attached, which skips failed slots).
struct PerfCounters::Slot {
  int fd[kSlotCount] = {-1, -1, -1, -1};
  int read_order[kSlotCount] = {-1, -1, -1, -1};  ///< read pos -> slot index
  int opened = 0;                                 ///< live fds in the group
  int leader_fd = -1;
  std::atomic<bool> attached{false};
};

PerfCounters::PerfCounters(PerfCountersOptions options,
                           support::MemoryTracker* tracker)
    : options_(options), tracker_(tracker) {
  engine_id_ = g_engine_ids.fetch_add(1, std::memory_order_relaxed) + 1;
  if (options_.max_threads < 0) options_.max_threads = 0;
  if (options_.open_fail_from == 0) {
    options_.open_fail_from = open_fail_from_env();
  }
  slots_ = std::vector<Slot>(static_cast<std::size_t>(options_.max_threads));
  tracked_bytes_ = slots_.size() * sizeof(Slot);
  if (tracker_ != nullptr && tracked_bytes_ != 0) tracker_->add(tracked_bytes_);
}

PerfCounters::~PerfCounters() {
#if defined(__linux__)
  for (Slot& s : slots_) {
    for (int& fd : s.fd) {
      if (fd >= 0) {
        ::close(fd);
        fd = -1;
      }
    }
  }
#endif
  if (tracker_ != nullptr && tracked_bytes_ != 0) tracker_->sub(tracked_bytes_);
}

bool PerfCounters::available() const noexcept {
  return attached_ok_.load(std::memory_order_relaxed) > 0;
}

int PerfCounters::open_event(std::uint32_t type, std::uint64_t config,
                             int group_fd, bool leader) noexcept {
  const std::uint64_t n =
      opens_attempted_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (options_.open_fail_from != 0 && n >= options_.open_fail_from) {
    // Injected failure: behave exactly like a kernel refusal (the caller
    // counts perf.unavailable and degrades that slot), without the syscall.
    return -1;
  }
#if defined(__linux__)
  struct perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  attr.disabled = leader ? 1 : 0;
  attr.inherit = 0;
  attr.exclude_kernel = 1;  // works at perf_event_paranoid <= 2
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  return static_cast<int>(
      sys_perf_event_open(&attr, /*pid=*/0, /*cpu=*/-1, group_fd, 0));
#else
  (void)type;
  (void)config;
  (void)group_fd;
  (void)leader;
  return -1;
#endif
}

void PerfCounters::attach_current_thread(int tid) {
  if (static_cast<unsigned>(tid) >= slots_.size()) return;
  if (t_attached_engine == engine_id_) return;  // this OS thread already
                                                // counts under another tid
  Slot& s = slots_[static_cast<std::size_t>(tid)];
  if (s.attached.exchange(true, std::memory_order_acq_rel)) return;
  t_attached_engine = engine_id_;

#if defined(__linux__)
  // Event set, in slot order. The HITM slot tries the microarchitecture's
  // true HITM event first (Intel MEM_LOAD_L3_HIT_RETIRED.XSNP_HITM — a load
  // that hit a modified line in a sibling core's cache), then the portable
  // cross-node read-miss proxy; hitm_src_ records which one answered so the
  // report never passes a proxy off as the real thing.
  struct Candidate {
    std::uint32_t type;
    std::uint64_t config;
    HitmSource src;  ///< meaningful for the HITM slot only
  };
  const Candidate cycles = {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES,
                            HitmSource::kNone};
  const Candidate instructions = {PERF_TYPE_HARDWARE,
                                  PERF_COUNT_HW_INSTRUCTIONS,
                                  HitmSource::kNone};
  const Candidate llc = {
      PERF_TYPE_HW_CACHE,
      PERF_COUNT_HW_CACHE_LL | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
          (PERF_COUNT_HW_CACHE_RESULT_MISS << 16),
      HitmSource::kNone};
  // 0x04d2 = event 0xD2 (MEM_LOAD_L3_HIT_RETIRED), umask 0x04 (XSNP_HITM) —
  // stable across Intel big cores since Skylake; gated on the vendor string
  // because raw configs are meaningless on other PMUs.
  const Candidate hitm_intel = {PERF_TYPE_RAW, 0x04d2, HitmSource::kIntelXsnp};
  const Candidate hitm_node = {
      PERF_TYPE_HW_CACHE,
      PERF_COUNT_HW_CACHE_NODE | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
          (PERF_COUNT_HW_CACHE_RESULT_MISS << 16),
      HitmSource::kNodeMisses};

  const bool intel = cpu_is_genuine_intel();
  for (int slot = 0; slot < kSlotCount; ++slot) {
    Candidate chain[2];
    int chain_len = 1;
    switch (slot) {
      case kSlotCycles: chain[0] = cycles; break;
      case kSlotInstructions: chain[0] = instructions; break;
      case kSlotLlcMisses: chain[0] = llc; break;
      case kSlotHitm:
        if (intel) {
          chain[0] = hitm_intel;
          chain[1] = hitm_node;
          chain_len = 2;
        } else {
          chain[0] = hitm_node;
        }
        break;
    }
    int fd = -1;
    for (int c = 0; c < chain_len && fd < 0; ++c) {
      fd = open_event(chain[c].type, chain[c].config, s.leader_fd,
                      /*leader=*/s.leader_fd < 0);
      if (fd >= 0 && slot == kSlotHitm) {
        hitm_src_.store(chain[c].src, std::memory_order_relaxed);
      }
    }
    if (fd < 0) {
      counter("perf.unavailable").add(1);
      continue;
    }
    s.fd[slot] = fd;
    s.read_order[s.opened] = slot;
    ++s.opened;
    if (s.leader_fd < 0) s.leader_fd = fd;
    counter("perf.opened").add(1);
  }
  if (s.opened > 0) {
    // Start the whole group atomically from the leader.
    ioctl(s.leader_fd, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
    ioctl(s.leader_fd, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
    attached_ok_.fetch_add(1, std::memory_order_relaxed);
  }
#else
  counter("perf.unavailable").add(static_cast<std::uint64_t>(kSlotCount));
#endif
}

PerfDelta PerfCounters::read_slot(Slot& s) noexcept {
  PerfDelta out;
  if (s.opened == 0 || s.leader_fd < 0) return out;
#if defined(__linux__)
  // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running, value[nr].
  std::uint64_t buf[3 + kSlotCount] = {};
  const ssize_t want = static_cast<ssize_t>(
      (3 + static_cast<std::size_t>(s.opened)) * sizeof(std::uint64_t));
  const ssize_t got = ::read(s.leader_fd, buf, sizeof(buf));
  counter("perf.reads").add(1);
  if (got < want || buf[0] != static_cast<std::uint64_t>(s.opened)) {
    counter("perf.read_failures").add(1);
    return out;
  }
  const std::uint64_t enabled = buf[1];
  const std::uint64_t running = buf[2];
  const bool mux = running < enabled;
  // Multiplexing estimator: value * enabled / running extrapolates the
  // time-sliced count to the full window. running == 0 with enabled > 0
  // means the group never got PMU time — nothing real to report.
  const double scale =
      running == 0 ? (enabled == 0 ? 1.0 : 0.0)
                   : static_cast<double>(enabled) / static_cast<double>(running);
  if (enabled > 0 && running == 0) {
    counter("perf.read_failures").add(1);
    return out;
  }
  if (mux) counter("perf.multiplexed").add(1);
  out.multiplexed = mux;
  for (int i = 0; i < s.opened; ++i) {
    const int slot = s.read_order[i];
    const std::uint64_t scaled =
        mux ? static_cast<std::uint64_t>(static_cast<double>(buf[3 + i]) *
                                         scale)
            : buf[3 + i];
    switch (slot) {
      case kSlotCycles: out.cycles = scaled; break;
      case kSlotInstructions: out.instructions = scaled; break;
      case kSlotLlcMisses: out.llc_misses = scaled; break;
      case kSlotHitm: out.hitm = scaled; break;
      default: continue;
    }
    out.present |= kSlotBit[slot];
  }
#endif
  return out;
}

PerfDelta PerfCounters::read_thread(int tid) noexcept {
  if (static_cast<unsigned>(tid) >= slots_.size()) return {};
  Slot& s = slots_[static_cast<std::size_t>(tid)];
  if (!s.attached.load(std::memory_order_acquire)) return {};
  return read_slot(s);
}

PerfDelta PerfCounters::total() noexcept {
  PerfDelta sum;
  for (Slot& s : slots_) {
    if (!s.attached.load(std::memory_order_acquire)) continue;
    sum += read_slot(s);
  }
  return sum;
}

PerfDelta PerfCounters::window_delta() noexcept {
  std::lock_guard<std::mutex> lock(window_mu_);
  const PerfDelta now = total();
  PerfDelta delta = now.since(window_last_);
  // A thread that attached mid-window widens `present` relative to the
  // previous boundary; since() intersects, so its first partial reading
  // folds into the *next* full window rather than skewing this one — but
  // keep the union visible when the previous boundary saw nothing at all.
  if (window_last_.present == 0) delta.present = now.present;
  if (now.present == 0) delta.present = 0;
  window_last_ = now;
  return delta;
}

}  // namespace commscope::telemetry
