#include "resilience/fault_injector.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <thread>

#include "support/env.hpp"
#include "support/rng.hpp"

namespace commscope::resilience {

namespace {

std::uint64_t parse_position(const std::string& spec, std::size_t colon) {
  if (colon == std::string::npos || colon + 1 >= spec.size()) {
    throw std::invalid_argument("fault spec '" + spec + "': missing position");
  }
  const std::string num = spec.substr(colon + 1);
  char* end = nullptr;
  const unsigned long long v = std::strtoull(num.c_str(), &end, 10);
  if (end == num.c_str() || *end != '\0' || num[0] == '-') {
    throw std::invalid_argument("fault spec '" + spec +
                                "': malformed position '" + num + "'");
  }
  return v;
}

}  // namespace

FaultPlan FaultInjector::parse_plan(const std::string& spec) {
  FaultPlan plan;
  std::size_t start = 0;
  while (start < spec.size()) {
    std::size_t end = spec.find(';', start);
    if (end == std::string::npos) end = spec.size();
    const std::string part = spec.substr(start, end - start);
    start = end + 1;
    if (part.empty()) continue;
    const std::size_t colon = part.find(':');
    const std::string name = part.substr(0, colon);
    if (name == "alloc") {
      plan.fail_alloc_at = parse_position(part, colon);
    } else if (name == "kill-at-event") {
      plan.kill_at_event = parse_position(part, colon);
    } else if (name == "sleep-at-event") {
      plan.sleep_at_event = parse_position(part, colon);
    } else if (name == "sleep-ms") {
      plan.sleep_ms = parse_position(part, colon);
    } else if (name == "write-truncate") {
      plan.truncate_write_at = parse_position(part, colon);
    } else if (name == "write-corrupt") {
      plan.corrupt_write_at = parse_position(part, colon);
    } else if (name == "accept-fail") {
      plan.accept_fail_at = parse_position(part, colon);
    } else if (name == "short-read") {
      plan.short_read_at = parse_position(part, colon);
    } else if (name == "eagain") {
      plan.eagain_at = parse_position(part, colon);
    } else if (name == "eagain-len") {
      plan.eagain_len = parse_position(part, colon);
    } else if (name == "drop-mid-frame") {
      plan.drop_mid_frame_at = parse_position(part, colon);
    } else if (name == "wal-write-short") {
      plan.wal_write_short_at = parse_position(part, colon);
    } else if (name == "wal-fsync-fail") {
      plan.wal_fsync_fail_at = parse_position(part, colon);
    } else if (name == "wal-torn-tail") {
      plan.wal_torn_tail_at = parse_position(part, colon);
    } else if (name == "snapshot-crash-mid-write") {
      plan.snapshot_crash_at = parse_position(part, colon);
    } else if (name == "perf-open-fail") {
      plan.perf_open_fail_at = parse_position(part, colon);
    } else if (name == "seed") {
      plan.seed = parse_position(part, colon);
    } else {
      throw std::invalid_argument("fault spec: unknown fault '" + name + "'");
    }
  }
  return plan;
}

std::optional<FaultPlan> FaultInjector::plan_from_env() {
  const std::string spec = support::env_str("COMMSCOPE_FAULT", "");
  if (spec.empty()) return std::nullopt;
  return parse_plan(spec);
}

std::uint64_t FaultInjector::next_event_fault(
    std::uint64_t index) const noexcept {
  std::uint64_t next = ~std::uint64_t{0};
  for (const std::uint64_t at : {plan_.sleep_at_event, plan_.kill_at_event}) {
    if (at > index && at < next) next = at;
  }
  return next;
}

void FaultInjector::on_event(std::uint64_t index) {
  if (plan_.sleep_at_event != 0 && index >= plan_.sleep_at_event &&
      !sleep_done_.exchange(true, std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(plan_.sleep_ms));
  }
  if (plan_.kill_at_event != 0 && index >= plan_.kill_at_event &&
      !kill_done_.exchange(true, std::memory_order_relaxed)) {
    if (mode_ == KillMode::kThrow) {
      throw InjectedCrash("injected crash at event " + std::to_string(index));
    }
    std::raise(SIGSEGV);
  }
}

bool FaultInjector::mutate_payload(std::string& payload) noexcept {
  if (payload.empty()) return false;
  if (plan_.truncate_write_at == 0 && plan_.corrupt_write_at == 0) {
    return false;
  }
  if (write_fault_done_.exchange(true, std::memory_order_acq_rel)) {
    return false;
  }
  bool damaged = false;
  if (plan_.truncate_write_at != 0 &&
      plan_.truncate_write_at < payload.size()) {
    payload.resize(plan_.truncate_write_at);
    damaged = true;
  }
  if (plan_.corrupt_write_at != 0 && !payload.empty()) {
    support::SplitMix64 rng(plan_.seed);
    const std::size_t pos = static_cast<std::size_t>(
        std::min<std::uint64_t>(plan_.corrupt_write_at, payload.size()) - 1);
    payload[pos] = static_cast<char>(
        static_cast<unsigned char>(payload[pos]) ^
        static_cast<unsigned char>(1u << rng.next_below(8)));
    damaged = true;
  }
  return damaged;
}

}  // namespace commscope::resilience
