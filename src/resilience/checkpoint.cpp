#include "resilience/checkpoint.hpp"

#include <charconv>
#include <fstream>
#include <istream>
#include <unordered_map>

#include "core/region_tree.hpp"
#include "support/textio.hpp"

namespace commscope::resilience {

namespace {

constexpr const char* kWho = "checkpoint";
constexpr std::size_t kMaxFileBytes = 512u << 20;
constexpr int kMaxThreads = 4096;
constexpr std::size_t kMaxRegions = 1u << 20;
constexpr std::size_t kMaxDegradations = 1u << 16;

void expect(support::TokenScanner& sc, std::string_view keyword) {
  if (sc.next_token() != keyword) {
    sc.fail("expected '" + std::string(keyword) + "'");
  }
}

int next_int(support::TokenScanner& sc, const char* what) {
  const std::string_view tok = sc.next_token();
  int v = 0;
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), v, 10);
  if (tok.empty() || ec != std::errc{} || ptr != tok.data() + tok.size()) {
    sc.fail(std::string("invalid ") + what);
  }
  return v;
}

}  // namespace

std::string serialize_checkpoint(const core::Profiler& profiler,
                                 const CheckpointMeta& meta,
                                 const core::ProfileStats& stats) {
  std::string out;
  out.reserve(4096);
  out += "commscope-checkpoint 1\n";
  const core::ProfilerOptions& opts = profiler.options();
  out += "threads " + std::to_string(opts.max_threads) + " backend ";
  out += (opts.backend == core::Backend::kExact ? "exact" : "signature");
  out += " slots " + std::to_string(opts.signature_slots) + "\n";
  out += "meta events " + std::to_string(meta.events) + " state " + meta.state +
         " reason " + meta.reason + "\n";
  out += "stats " + std::to_string(stats.accesses) + " " +
         std::to_string(stats.reads) + " " + std::to_string(stats.writes) +
         " " + std::to_string(stats.dependencies) + "\n";

  const std::vector<core::DegradationEvent>& degs = profiler.degradations();
  out += "degradations " + std::to_string(degs.size()) + "\n";
  for (const core::DegradationEvent& d : degs) {
    out += "degradation " + std::to_string(d.event_index) + " " +
           std::to_string(d.mem_before) + " " + std::to_string(d.mem_after) +
           "\n";
    out += "reason " + d.reason + "\n";
    out += "action " + d.action + "\n";
  }

  const std::vector<const core::RegionNode*> nodes =
      profiler.regions().preorder();
  std::unordered_map<const core::RegionNode*, int> ids;
  ids.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    ids.emplace(nodes[i], static_cast<int>(i));
  }
  out += "regions " + std::to_string(nodes.size()) + "\n";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const core::RegionNode* node = nodes[i];
    const core::Matrix direct = node->direct();
    std::size_t nnz = 0;
    for (const std::uint64_t v : direct.cells()) nnz += (v != 0);
    const int parent =
        node->parent() == nullptr ? -1 : ids.at(node->parent());
    out += "region " + std::to_string(i) + " " + std::to_string(parent) + " " +
           std::to_string(node->depth()) + " " +
           std::to_string(node->entries()) + " " + std::to_string(nnz) + "\n";
    out += "label " + node->label() + "\n";
    for (int p = 0; p < direct.size(); ++p) {
      for (int c = 0; c < direct.size(); ++c) {
        const std::uint64_t v = direct.at(p, c);
        if (v == 0) continue;
        out += "cell " + std::to_string(p) + " " + std::to_string(c) + " " +
               std::to_string(v) + "\n";
      }
    }
  }
  return support::with_crc_trailer(std::move(out));
}

Checkpoint parse_checkpoint_text(std::string_view text) {
  // The trailer is mandatory for checkpoints: they exist to survive crashes,
  // so a torn write must be detected, not half-loaded.
  const std::string_view payload =
      support::verify_crc_trailer(text, /*require=*/true, kWho);
  support::TokenScanner sc(payload, kWho);

  expect(sc, "commscope-checkpoint");
  const auto version = sc.next_uint<std::uint32_t>("version");
  if (version != 1) sc.fail("unsupported version " + std::to_string(version));

  Checkpoint ck;
  expect(sc, "threads");
  ck.threads = static_cast<int>(
      sc.next_uint_capped<std::uint32_t>("thread count",
                                         static_cast<std::uint32_t>(kMaxThreads)));
  if (ck.threads < 1) sc.fail("thread count out of range");
  expect(sc, "backend");
  ck.backend = std::string(sc.next_token());
  if (ck.backend != "signature" && ck.backend != "exact") {
    sc.fail("unknown backend '" + ck.backend + "'");
  }
  expect(sc, "slots");
  ck.slots = sc.next_uint<std::uint64_t>("slot count");

  expect(sc, "meta");
  expect(sc, "events");
  ck.meta.events = sc.next_uint<std::uint64_t>("event count");
  expect(sc, "state");
  ck.meta.state = std::string(sc.next_token());
  if (ck.meta.state != "partial" && ck.meta.state != "complete") {
    sc.fail("unknown state '" + ck.meta.state + "'");
  }
  expect(sc, "reason");
  ck.meta.reason = std::string(sc.rest_of_line());

  expect(sc, "stats");
  ck.stats.accesses = sc.next_uint<std::uint64_t>("access count");
  ck.stats.reads = sc.next_uint<std::uint64_t>("read count");
  ck.stats.writes = sc.next_uint<std::uint64_t>("write count");
  ck.stats.dependencies = sc.next_uint<std::uint64_t>("dependency count");

  expect(sc, "degradations");
  const auto ndeg = sc.next_uint_capped<std::size_t>("degradation count",
                                                     kMaxDegradations);
  ck.degradations.reserve(ndeg);
  for (std::size_t i = 0; i < ndeg; ++i) {
    core::DegradationEvent d;
    expect(sc, "degradation");
    d.event_index = sc.next_uint<std::uint64_t>("degradation event index");
    d.mem_before = sc.next_uint<std::uint64_t>("degradation mem_before");
    d.mem_after = sc.next_uint<std::uint64_t>("degradation mem_after");
    expect(sc, "reason");
    d.reason = std::string(sc.rest_of_line());
    expect(sc, "action");
    d.action = std::string(sc.rest_of_line());
    ck.degradations.push_back(std::move(d));
  }

  expect(sc, "regions");
  const auto nregions =
      sc.next_uint_capped<std::size_t>("region count", kMaxRegions);
  if (nregions < 1) sc.fail("region count out of range");
  const std::size_t max_nnz = static_cast<std::size_t>(ck.threads) *
                              static_cast<std::size_t>(ck.threads);
  ck.regions.reserve(nregions);
  for (std::size_t i = 0; i < nregions; ++i) {
    CheckpointRegion r;
    expect(sc, "region");
    r.id = next_int(sc, "region id");
    if (r.id != static_cast<int>(i)) sc.fail("region ids must be sequential");
    r.parent = next_int(sc, "region parent");
    if (i == 0 ? r.parent != -1 : (r.parent < 0 || r.parent >= r.id)) {
      sc.fail("region parent out of range");
    }
    r.depth = next_int(sc, "region depth");
    if (r.depth < 0 || r.depth > static_cast<int>(i)) {
      sc.fail("region depth out of range");
    }
    r.entries = sc.next_uint<std::uint64_t>("region entries");
    const auto nnz = sc.next_uint_capped<std::size_t>("cell count", max_nnz);
    expect(sc, "label");
    r.label = std::string(sc.rest_of_line());
    r.direct = core::Matrix(ck.threads);
    for (std::size_t k = 0; k < nnz; ++k) {
      expect(sc, "cell");
      const int p = next_int(sc, "cell producer");
      const int c = next_int(sc, "cell consumer");
      if (p < 0 || p >= ck.threads || c < 0 || c >= ck.threads) {
        sc.fail("cell thread index out of range");
      }
      r.direct.at(p, c) = sc.next_uint<std::uint64_t>("cell bytes");
    }
    ck.regions.push_back(std::move(r));
  }
  if (!sc.at_end()) sc.fail("trailing data after region table");
  return ck;
}

Checkpoint parse_checkpoint(std::istream& is) {
  return parse_checkpoint_text(support::slurp_stream(is, kMaxFileBytes, kWho));
}

Checkpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("checkpoint: cannot open '" + path + "'");
  }
  try {
    return parse_checkpoint(in);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + " ('" + path + "')");
  }
}

core::Matrix Checkpoint::aggregate(std::size_t i) const {
  core::Matrix sum = regions.at(i).direct;
  for (std::size_t j = i + 1; j < regions.size(); ++j) {
    // Ancestor test: walk j's parent chain; preorder ids always decrease.
    int a = regions[j].parent;
    while (a > static_cast<int>(i)) a = regions[static_cast<std::size_t>(a)].parent;
    if (a == static_cast<int>(i)) sum += regions[j].direct;
  }
  return sum;
}

core::Matrix Checkpoint::program() const {
  core::Matrix sum(threads);
  for (const CheckpointRegion& r : regions) sum += r.direct;
  return sum;
}

}  // namespace commscope::resilience
