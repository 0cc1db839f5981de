// Host and build fingerprint: every result says what it was measured on.
#include <sys/statfs.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "support/simd.hpp"
#include "telemetry/perf_counters.hpp"

#ifndef COMMBENCH_BUILD_TYPE
#define COMMBENCH_BUILD_TYPE "unknown"
#endif
#ifndef COMMBENCH_IPO
#define COMMBENCH_IPO 0
#endif
#ifndef COMMBENCH_CXX_FLAGS
#define COMMBENCH_CXX_FLAGS ""
#endif
#ifndef COMMBENCH_COMPILER
#define COMMBENCH_COMPILER "unknown"
#endif

namespace commbench {

namespace ctl = commscope::telemetry;

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

std::string filesystem_of(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    case 0x2FC12FC1UL: return "zfs";
    default: {
      std::ostringstream os;
      os << "0x" << std::hex << static_cast<unsigned long>(fs.f_type);
      return os.str();
    }
  }
}

/// Which hardware events a per-thread perf group opens on this host.
std::string perf_events_opened() {
  ctl::PerfCounters engine(ctl::PerfCountersOptions{1, 0});
  engine.attach_current_thread(0);
  const ctl::PerfDelta d = engine.read_thread(0);
  std::string out;
  const auto add = [&](std::uint8_t bit, const char* name) {
    if ((d.present & bit) == 0) return;
    if (!out.empty()) out += ",";
    out += name;
  };
  add(ctl::kPerfCycles, "cycles");
  add(ctl::kPerfInstructions, "instructions");
  add(ctl::kPerfLlcMisses, "llc_misses");
  add(ctl::kPerfHitm, "hitm");
  if (out.empty()) out = "none";
  return out + " (hitm source: " + ctl::to_string(engine.hitm_source()) + ")";
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string untimeable_build_reason() {
  const std::string flags = COMMBENCH_CXX_FLAGS;
  if (std::string(COMMBENCH_BUILD_TYPE) != "Release") {
    return std::string("build type is '") + COMMBENCH_BUILD_TYPE +
           "', timings need Release";
  }
  if (flags.find("-fsanitize") != std::string::npos) {
    return "sanitizer build (" + flags + ")";
  }
  return "";
}

std::string fingerprint_json(const Config& cfg) {
  const char* commit = std::getenv("COMMBENCH_SOURCE");
  std::ostringstream os;
  os << "{\"cpu\":" << json_str(cpu_model())
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"threads\":" << cfg.threads
     << ",\"simd\":" << json_str(commscope::support::simd_level_name())
     << ",\"perf_events\":" << json_str(perf_events_opened())
     << ",\"compiler\":" << json_str(COMMBENCH_COMPILER)
     << ",\"build_type\":" << json_str(COMMBENCH_BUILD_TYPE)
     << ",\"ipo\":" << (COMMBENCH_IPO ? "true" : "false")
     << ",\"state_dir_fs\":" << json_str(filesystem_of(cfg.work_dir))
     << ",\"source\":" << json_str(commit != nullptr ? commit : "unknown")
     << "}";
  return os.str();
}

}  // namespace commbench
