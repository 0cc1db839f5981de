#include "core/report.hpp"

#include <algorithm>

#include "core/thread_load.hpp"
#include "support/table.hpp"

namespace commscope::core {

namespace {

void collect_rows(const RegionNode* node, const ReportOptions& opts,
                  std::vector<RegionRow>& rows,
                  std::vector<const RegionNode*>& nodes) {
  const Matrix direct = node->direct();
  const Matrix aggregate = node->aggregate();
  const bool quiet = direct.total() == 0 && node->children().empty();
  if (!(opts.hide_quiet_regions && quiet && node->parent() != nullptr)) {
    RegionRow row;
    row.label = node->label();
    row.depth = node->depth();
    row.entries = node->entries();
    row.direct_bytes = direct.total();
    row.aggregate_bytes = aggregate.total();
    const std::vector<double> load = thread_load(aggregate);
    row.load_imbalance = load_imbalance(load);
    row.active_fraction = active_fraction(load);
    rows.push_back(std::move(row));
    nodes.push_back(node);
  }
  for (const RegionNode* c : node->children()) {
    collect_rows(c, opts, rows, nodes);
  }
}

}  // namespace

std::vector<RegionRow> region_rows(const RegionTree& tree,
                                   const ReportOptions& opts) {
  std::vector<RegionRow> rows;
  std::vector<const RegionNode*> nodes;
  collect_rows(&tree.root(), opts, rows, nodes);
  return rows;
}

void print_report(std::ostream& os, const Profiler& profiler,
                  const ReportOptions& opts) {
  const ProfileStats stats = profiler.stats();
  os << "=== CommScope profile ===\n";
  os << "accesses: " << stats.accesses << " (reads " << stats.reads
     << ", writes " << stats.writes << "), inter-thread RAW dependencies: "
     << stats.dependencies << "\n";
  os << "profiler memory: "
     << support::Table::bytes(profiler.memory_bytes()) << "\n";
  // Concurrency/overflow provenance: a report that dropped, clamped or
  // mis-sized anything says so instead of presenting degraded numbers as
  // exact (same policy as the degradation ladder below).
  if (profiler.dropped_events() > 0) {
    os << "dropped events: " << profiler.dropped_events()
       << " (tid outside [0, " << profiler.options().max_threads
       << "); volumes undercount)\n";
  }
  if (profiler.communication_matrix().saturated()) {
    os << "saturated: one or more communication counters clamped at 2^62; "
          "volumes are lower bounds\n";
  }
  if (const AsymmetricDetector* det = profiler.signature_detector()) {
    const std::uint64_t rejected = det->read_signature().rejected() +
                                   det->write_signature().rejected();
    const std::uint64_t overflow = det->read_signature().overflow_inserts();
    if (rejected > 0) {
      os << "signature rejects: " << rejected
         << " events carried invalid tids and were not recorded\n";
    }
    if (overflow > 0) {
      os << "signature overflow: " << overflow
         << " reader inserts beyond max_threads — configured FP rate no "
            "longer guaranteed\n";
    }
  }
  if (const telemetry::PerfCounters* pc = profiler.perf_counters()) {
    if (pc->available()) {
      const telemetry::PerfDelta hw =
          profiler.regions().root().aggregate_perf();
      os << "hardware counters: cycles "
         << ((hw.present & telemetry::kPerfCycles) != 0
                 ? std::to_string(hw.cycles)
                 : std::string("n/a"))
         << ", instructions "
         << ((hw.present & telemetry::kPerfInstructions) != 0
                 ? std::to_string(hw.instructions)
                 : std::string("n/a"))
         << ", LLC load misses "
         << ((hw.present & telemetry::kPerfLlcMisses) != 0
                 ? std::to_string(hw.llc_misses)
                 : std::string("n/a"))
         << ", HITM " << ((hw.present & telemetry::kPerfHitm) != 0
                              ? std::to_string(hw.hitm)
                              : std::string("n/a"))
         << " [" << to_string(pc->hitm_source()) << "]";
      if (hw.multiplexed) {
        os << " (multiplexing-scaled: time_enabled/time_running estimator)";
      }
      os << "\n";
    } else {
      os << "hardware counters: unavailable (perf_event_open refused — "
            "paranoid setting, container, or injected fault; matrices "
            "unaffected)\n";
    }
  }
  if (profiler.options().classify_dependences) {
    const DependenceCounts d = profiler.dependence_counts();
    os << "dependence census: RAW " << d.raw << ", WAR " << d.war << ", WAW "
       << d.waw << ", RAR " << d.rar << "\n";
  }
  if (!profiler.degradations().empty()) {
    os << "degradations: " << profiler.degradations().size()
       << " (numbers below are best-effort; see provenance)\n";
    for (const DegradationEvent& d : profiler.degradations()) {
      os << "  [event " << d.event_index << "] " << d.reason << " -> "
         << d.action << " (profiler memory "
         << support::Table::bytes(d.mem_before) << " -> "
         << support::Table::bytes(d.mem_after) << ")\n";
    }
  }
  os << "\n";

  std::vector<RegionRow> rows;
  std::vector<const RegionNode*> nodes;
  collect_rows(&profiler.regions().root(), opts, rows, nodes);

  // Per-region hardware columns only when the engine measured something:
  // degraded or perf-less runs keep the exact pre-perf table shape.
  const bool perf_cols = profiler.perf_counters() != nullptr &&
                         profiler.perf_counters()->available();
  std::vector<std::string> header = {"region",    "entries",   "direct",
                                     "aggregate", "imbalance", "active"};
  if (perf_cols) {
    header.push_back("llc-miss");
    header.push_back("hitm");
  }
  support::Table t(std::move(header));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RegionRow& r = rows[i];
    std::vector<std::string> cells = {
        std::string(static_cast<std::size_t>(r.depth) * 2, ' ') + r.label,
        std::to_string(r.entries), support::Table::bytes(r.direct_bytes),
        support::Table::bytes(r.aggregate_bytes),
        support::Table::num(r.load_imbalance, 2),
        support::Table::num(r.active_fraction, 2)};
    if (perf_cols) {
      const telemetry::PerfDelta hw = nodes[i]->aggregate_perf();
      cells.push_back((hw.present & telemetry::kPerfLlcMisses) != 0
                          ? std::to_string(hw.llc_misses) +
                                (hw.multiplexed ? "~" : "")
                          : std::string("n/a"));
      cells.push_back((hw.present & telemetry::kPerfHitm) != 0
                          ? std::to_string(hw.hitm) +
                                (hw.multiplexed ? "~" : "")
                          : std::string("n/a"));
    }
    t.add_row(std::move(cells));
  }
  t.print(os);

  if (opts.heatmap_top > 0) {
    std::vector<std::size_t> order(nodes.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return rows[a].direct_bytes > rows[b].direct_bytes;
    });
    os << "\n";
    const int top = std::min<int>(opts.heatmap_top,
                                  static_cast<int>(order.size()));
    for (int i = 0; i < top; ++i) {
      const RegionNode* node = nodes[order[static_cast<std::size_t>(i)]];
      Matrix m = node->direct();
      if (m.total() == 0) continue;
      if (opts.trim_to_active) m = m.trimmed(std::max(2, m.active_threads()));
      support::print_heatmap(os, m.cells(), static_cast<std::size_t>(m.size()),
                             node->label());
    }
  }
}

void write_csv(std::ostream& os, const RegionTree& tree) {
  os << "label,depth,entries,direct_bytes,aggregate_bytes,imbalance,"
        "active_fraction\n";
  for (const RegionRow& r : region_rows(tree)) {
    os << r.label << ',' << r.depth << ',' << r.entries << ','
       << r.direct_bytes << ',' << r.aggregate_bytes << ','
       << r.load_imbalance << ',' << r.active_fraction << '\n';
  }
}

}  // namespace commscope::core
