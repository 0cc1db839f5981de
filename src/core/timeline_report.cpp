#include "core/timeline_report.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <utility>

#include "core/phase.hpp"
#include "core/thread_load.hpp"
#include "telemetry/perf_counters.hpp"

namespace commscope::core {

namespace {

std::string human_bytes(std::uint64_t b) {
  const char* unit[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(b);
  int u = 0;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  char buf[32];
  if (u == 0) {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(b));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f %s", v, unit[u]);
  }
  return buf;
}

std::string fmt(double v, const char* spec = "%.2f") {
  char buf[32];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

/// Top (producer, consumer, bytes) cell of an epoch, or nullptr when empty.
const EpochCell* top_cell(const EpochSample& e) {
  const EpochCell* best = nullptr;
  for (const EpochCell& c : e.cells) {
    if (best == nullptr || c.bytes > best->bytes) best = &c;
  }
  return best;
}

std::vector<std::pair<std::string, std::uint64_t>> loop_totals(
    const EpochTimeline& t) {
  std::map<std::string, std::uint64_t> totals;
  for (const EpochSample& e : t.epochs) {
    for (const EpochLoopShare& share : e.loops) {
      totals[t.label_of(share.loop)] += share.bytes;
    }
  }
  std::vector<std::pair<std::string, std::uint64_t>> out(totals.begin(),
                                                         totals.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

std::vector<Phase> timeline_phases(const EpochTimeline& t) {
  std::vector<Matrix> windows;
  windows.reserve(t.epochs.size());
  for (const EpochSample& e : t.epochs) windows.push_back(e.dense(t.threads));
  // Offset-cosine: translation-invariant in thread id, the robust choice
  // when consecutive epochs sample different scheduler placements.
  return detect_phases(windows, 0.8, PhaseMetric::kOffsetCosine);
}

/// Overhead-relevant metric names for the report footer. perf.* rides along
/// so counter provenance (opened/unavailable/multiplexed) and run totals are
/// visible next to the numbers they qualify.
bool overhead_metric(const std::string& name) {
  return name.rfind("self.", 0) == 0 || name.rfind("recorder.", 0) == 0 ||
         name.rfind("perf.", 0) == 0 || name == "profiler.mem_peak" ||
         name == "profiler.dropped_events";
}

/// True when any epoch carries a hardware counter delta (drives the perf
/// columns/strip; counterless reports render exactly as before).
bool timeline_has_perf(const EpochTimeline& t) {
  for (const EpochSample& e : t.epochs) {
    if (e.perf.any() || e.perf.multiplexed) return true;
  }
  return false;
}

void escape_json(std::ostream& os, const std::string& s) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '/':
        // "</script>" inside the embedded blob would terminate the HTML
        // carrier early; escaping the slash is harmless in plain JSON.
        if (i > 0 && s[i - 1] == '<') {
          os << "\\/";
        } else {
          os << '/';
        }
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
}

/// The shared JSON document both render_json and the HTML embed emit.
void write_model_json(std::ostream& os, const ReportModel& model) {
  const EpochTimeline& t = model.timeline;
  os << "{\"title\":\"";
  escape_json(os, model.title);
  os << "\",\"threads\":" << t.threads << ",\"sealed\":" << t.sealed
     << ",\"dropped\":" << t.dropped << ",\"timeline_bytes\":"
     << t.total().total();
  if (model.has_program) {
    os << ",\"program_bytes\":" << model.program.total();
  }
  os << ",\"epochs\":[";
  for (std::size_t i = 0; i < t.epochs.size(); ++i) {
    const EpochSample& e = t.epochs[i];
    const Matrix dense = e.dense(t.threads);
    const std::vector<double> load = involvement_load(dense);
    if (i != 0) os << ",";
    os << "{\"index\":" << e.index << ",\"first\":" << e.first_access
       << ",\"last\":" << e.last_access << ",\"deps\":" << e.dependencies
       << ",\"bytes\":" << e.bytes << ",\"reason\":\"" << to_string(e.reason)
       << "\",\"imbalance\":" << fmt(load_imbalance(load), "%.4f")
       << ",\"load\":[";
    for (std::size_t k = 0; k < load.size(); ++k) {
      if (k != 0) os << ",";
      os << fmt(load[k], "%.1f");
    }
    os << "],\"cells\":[";
    for (std::size_t k = 0; k < e.cells.size(); ++k) {
      if (k != 0) os << ",";
      os << "[" << e.cells[k].producer << "," << e.cells[k].consumer << ","
         << e.cells[k].bytes << "]";
    }
    os << "],\"loops\":[";
    for (std::size_t k = 0; k < e.loops.size(); ++k) {
      if (k != 0) os << ",";
      os << "[\"";
      escape_json(os, t.label_of(e.loops[k].loop));
      os << "\"," << e.loops[k].bytes << "]";
    }
    os << "],\"perf\":";
    // Explicit null (not zeros) when the epoch carries no hardware counters:
    // "unmeasured" and "measured zero" must stay distinguishable downstream.
    if (e.perf.any() || e.perf.multiplexed) {
      os << "{\"present\":" << static_cast<unsigned>(e.perf.present)
         << ",\"multiplexed\":" << (e.perf.multiplexed ? "true" : "false")
         << ",\"cycles\":" << e.perf.cycles
         << ",\"instructions\":" << e.perf.instructions
         << ",\"llc_misses\":" << e.perf.llc_misses
         << ",\"hitm\":" << e.perf.hitm << "}";
    } else {
      os << "null";
    }
    os << "}";
  }
  os << "],\"phases\":[";
  const std::vector<Phase> phases = timeline_phases(t);
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (i != 0) os << ",";
    os << "{\"first\":" << phases[i].first_window
       << ",\"last\":" << phases[i].last_window
       << ",\"bytes\":" << phases[i].pattern.total() << "}";
  }
  os << "],\"loop_totals\":[";
  const auto totals = loop_totals(t);
  for (std::size_t i = 0; i < totals.size(); ++i) {
    if (i != 0) os << ",";
    os << "[\"";
    escape_json(os, totals[i].first);
    os << "\"," << totals[i].second << "]";
  }
  os << "],\"overhead\":{";
  bool first = true;
  for (const telemetry::MetricSnapshot& m : model.metrics) {
    if (m.kind != telemetry::MetricKind::kGauge &&
        m.kind != telemetry::MetricKind::kCounter) {
      continue;
    }
    if (!overhead_metric(m.name)) continue;
    if (!first) os << ",";
    first = false;
    os << "\"";
    escape_json(os, m.name);
    os << "\":" << m.value;
  }
  os << "}}";
}

}  // namespace

void render_text(std::ostream& os, const ReportModel& model) {
  const EpochTimeline& t = model.timeline;
  os << "== " << (model.title.empty() ? "communication timeline" : model.title)
     << " ==\n";
  os << "threads " << t.threads << ", epochs " << t.epochs.size()
     << " surviving (" << t.sealed << " sealed, " << t.dropped
     << " dropped), " << human_bytes(t.total().total())
     << " across surviving epochs";
  if (model.has_program) {
    os << " of " << human_bytes(model.program.total()) << " total";
  }
  os << "\n";
  if (t.epochs.empty()) {
    os << "(no epochs recorded — set --epoch-every / --epoch-ms)\n";
    return;
  }

  const bool any_perf = timeline_has_perf(t);
  os << "\n  epoch        accesses      deps        bytes  top pair"
        "        imbalance  reason";
  if (any_perf) os << "     llcmiss/dep       hitm";
  os << "\n";
  for (const EpochSample& e : t.epochs) {
    const Matrix dense = e.dense(t.threads);
    const std::vector<double> load = involvement_load(dense);
    const EpochCell* top = top_cell(e);
    char pair[24];
    if (top != nullptr) {
      std::snprintf(pair, sizeof(pair), "%u->%u (%s)",
                    static_cast<unsigned>(top->producer),
                    static_cast<unsigned>(top->consumer),
                    human_bytes(top->bytes).c_str());
    } else {
      std::snprintf(pair, sizeof(pair), "-");
    }
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %5llu  %6llu..%-6llu  %8llu  %11s  %-16s %8.2f  %-10s",
                  static_cast<unsigned long long>(e.index),
                  static_cast<unsigned long long>(e.first_access),
                  static_cast<unsigned long long>(e.last_access),
                  static_cast<unsigned long long>(e.dependencies),
                  human_bytes(e.bytes).c_str(), pair, load_imbalance(load),
                  to_string(e.reason));
    os << line;
    if (any_perf) {
      // LLC misses per recorded comm event — the "how much real coherence
      // traffic per inferred dependence" ratio. n/a when the slot never
      // opened (unmeasured, not zero); '~' marks multiplexing-scaled rows.
      char perf_cols[48];
      if ((e.perf.present & telemetry::kPerfLlcMisses) != 0 &&
          e.dependencies > 0) {
        std::snprintf(perf_cols, sizeof(perf_cols), "  %12.1f",
                      static_cast<double>(e.perf.llc_misses) /
                          static_cast<double>(e.dependencies));
      } else {
        std::snprintf(perf_cols, sizeof(perf_cols), "  %12s", "n/a");
      }
      os << perf_cols;
      if ((e.perf.present & telemetry::kPerfHitm) != 0) {
        std::snprintf(perf_cols, sizeof(perf_cols), " %10llu",
                      static_cast<unsigned long long>(e.perf.hitm));
      } else {
        std::snprintf(perf_cols, sizeof(perf_cols), " %10s", "n/a");
      }
      os << perf_cols;
      if (e.perf.multiplexed) os << " ~";
    }
    os << "\n";
  }

  const std::vector<Phase> phases = timeline_phases(t);
  os << "\nphases (offset-cosine >= 0.80): " << phases.size() << "\n";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const Phase& p = phases[i];
    os << "  phase " << i << ": epochs " << p.first_window << ".."
       << p.last_window << ", " << human_bytes(p.pattern.total()) << "\n";
  }

  const auto totals = loop_totals(t);
  if (!totals.empty()) {
    os << "\nper-loop volume (surviving epochs):\n";
    for (const auto& [label, bytes] : totals) {
      os << "  " << human_bytes(bytes) << "  " << label << "\n";
    }
  }

  bool any = false;
  for (const telemetry::MetricSnapshot& m : model.metrics) {
    if (!overhead_metric(m.name)) continue;
    if (!any) os << "\nself-overhead gauges:\n";
    any = true;
    os << "  " << m.name << " = " << m.value << "\n";
  }
}

void render_json(std::ostream& os, const ReportModel& model) {
  write_model_json(os, model);
  os << "\n";
}

void render_html(std::ostream& os, const ReportModel& model) {
  os << "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n<title>";
  // The page title is plain text; angle brackets must not open tags.
  for (const char c : model.title.empty() ? std::string("commscope report")
                                          : model.title) {
    switch (c) {
      case '<': os << "&lt;"; break;
      case '>': os << "&gt;"; break;
      case '&': os << "&amp;"; break;
      default: os << c;
    }
  }
  os << "</title>\n<style>\n"
        "body{font:14px/1.45 system-ui,sans-serif;margin:24px;color:#222;"
        "max-width:1080px}\n"
        "h1{font-size:20px}h2{font-size:15px;margin:28px 0 6px}\n"
        ".sub{color:#777;font-size:12px}\n"
        "canvas{border:1px solid #ddd;border-radius:3px;display:block}\n"
        "table{border-collapse:collapse;font-size:12px}\n"
        "td,th{padding:2px 10px;text-align:right;border-bottom:1px solid "
        "#eee}th{color:#555}td:first-child,th:first-child{text-align:left}\n"
        "</style></head><body>\n"
        "<h1 id=\"t\"></h1><div class=\"sub\" id=\"sub\"></div>\n"
        "<h2>Epoch heatmap strip</h2><div class=\"sub\">one producer x "
        "consumer matrix per epoch, log-shaded; rows = producers</div>\n"
        "<canvas id=\"strip\"></canvas>\n"
        "<h2>Per-epoch volume by loop</h2><canvas id=\"loops\" height=\"160\">"
        "</canvas><div class=\"sub\" id=\"legend\"></div>\n"
        "<h2>Thread load over time (Eq. 1 involvement)</h2>"
        "<canvas id=\"load\" height=\"160\"></canvas>\n"
        "<h2 id=\"corrh\">Matrix density vs coherence traffic</h2>"
        "<div class=\"sub\" id=\"corrsub\">bars: HITM-class events (red) / "
        "LLC load misses (grey) per epoch; line: fraction of nonzero "
        "producer-consumer cells</div>"
        "<canvas id=\"corr\" height=\"160\"></canvas>\n"
        "<h2>Overhead gauges</h2><table id=\"gauges\"></table>\n"
        "<script id=\"data\" type=\"application/json\">";
  write_model_json(os, model);
  os << "</script>\n<script>\n"
        "const M=JSON.parse(document.getElementById('data').textContent);\n"
        "const E=M.epochs,N=M.threads;\n"
        "document.getElementById('t').textContent=M.title||'commscope "
        "report';\n"
        "document.getElementById('sub').textContent=`${N} threads, "
        "${E.length} epochs surviving (${M.sealed} sealed, ${M.dropped} "
        "dropped), ${M.phases.length} phases`;\n"
        "function heat(v,max){if(v<=0)return '#f6f6f6';const "
        "x=Math.log(1+v)/Math.log(1+max);const h=240-240*x;return "
        "`hsl(${h},70%,${88-40*x}%)`}\n"
        "(()=>{const cv=document.getElementById('strip');const "
        "cell=Math.max(2,Math.min(10,Math.floor(640/(Math.max(1,E.length)*"
        "N))));const pad=3;cv.width=E.length*(N*cell+pad)+pad;"
        "cv.height=N*cell+18;const g=cv.getContext('2d');let mx=0;"
        "for(const e of E)for(const c of e.cells)mx=Math.max(mx,c[2]);\n"
        "E.forEach((e,i)=>{const x0=pad+i*(N*cell+pad);const "
        "d=Array.from({length:N*N},()=>0);for(const c of "
        "e.cells)d[c[0]*N+c[1]]=c[2];for(let p=0;p<N;p++)for(let "
        "c=0;c<N;c++){g.fillStyle=heat(d[p*N+c],mx);"
        "g.fillRect(x0+c*cell,p*cell,cell,cell);}g.fillStyle='#888';"
        "g.font='9px sans-serif';g.fillText(String(e.index),x0,N*cell+11);"
        "});})();\n"
        "(()=>{const cv=document.getElementById('loops');cv.width=720;const "
        "g=cv.getContext('2d');const labels=M.loop_totals.map(l=>l[0]);"
        "const color=i=>`hsl(${(i*67)%360},60%,50%)`;let "
        "mx=1;for(const e of E)mx=Math.max(mx,e.bytes);const "
        "w=cv.width/Math.max(1,E.length);E.forEach((e,i)=>{let "
        "y=cv.height;for(const [label,b] of e.loops){const "
        "h=(b/mx)*(cv.height-8);const k=labels.indexOf(label);"
        "g.fillStyle=color(k<0?labels.length:k);"
        "g.fillRect(i*w+1,y-h,Math.max(1,w-2),h);y-=h;}});\n"
        "document.getElementById('legend').textContent=labels.map((l,i)=>l)"
        ".join('  |  ');})();\n"
        "(()=>{const cv=document.getElementById('load');cv.width=720;const "
        "g=cv.getContext('2d');let mx=1;for(const e of E)for(const v of "
        "e.load)mx=Math.max(mx,v);const w=cv.width/Math.max(1,E.length);\n"
        "for(let t=0;t<N;t++){g.strokeStyle=`hsl(${(t*47)%360},60%,45%)`;"
        "g.beginPath();E.forEach((e,i)=>{const "
        "y=cv.height-4-(e.load[t]||0)/mx*(cv.height-12);const "
        "x=i*w+w/2;if(i===0)g.moveTo(x,y);else g.lineTo(x,y);});"
        "g.stroke();}})();\n"
        "(()=>{const cv=document.getElementById('corr');"
        "const has=E.some(e=>e.perf);if(!has){for(const id of "
        "['corr','corrh','corrsub'])document.getElementById(id).style."
        "display='none';return;}cv.width=720;const g=cv.getContext('2d');"
        "const dens=E.map(e=>{let nz=0;for(const c of "
        "e.cells)if(c[2]>0)nz++;return nz/(N*N);});"
        "const hitm=E.map(e=>e.perf&&(e.perf.present&8)?e.perf.hitm:0);"
        "const llc=E.map(e=>e.perf&&(e.perf.present&4)?e.perf.llc_misses:0);"
        "const mh=Math.max(1,...hitm),ml=Math.max(1,...llc);"
        "const w=cv.width/Math.max(1,E.length);"
        "llc.forEach((v,i)=>{g.fillStyle='#ccc';const "
        "h=v/ml*(cv.height-12);g.fillRect(i*w+1,cv.height-4-h,"
        "Math.max(1,w-2),h);});"
        "hitm.forEach((v,i)=>{g.fillStyle='#d66';const "
        "h=v/mh*(cv.height-12);g.fillRect(i*w+1+Math.max(1,w-2)/3,"
        "cv.height-4-h,Math.max(1,(w-2)/3),h);});"
        "g.strokeStyle='#36c';g.lineWidth=2;g.beginPath();"
        "dens.forEach((v,i)=>{const y=cv.height-4-v*(cv.height-12);const "
        "x=i*w+w/2;if(i===0)g.moveTo(x,y);else g.lineTo(x,y);});"
        "g.stroke();})();\n"
        "(()=>{const tb=document.getElementById('gauges');for(const [k,v] of "
        "Object.entries(M.overhead)){const r=tb.insertRow();"
        "r.insertCell().textContent=k;r.insertCell().textContent=v;}})();\n"
        "</script></body></html>\n";
}

}  // namespace commscope::core
