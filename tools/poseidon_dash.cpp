/**
 * @file
 * Fleet dashboard generator: renders a TSDB dump
 * (telemetry/timeseries.h JSONL, e.g. the bench_serving
 * TSDB_serving.jsonl, a bench_chaos TSDB_chaos_<scenario>.jsonl, or
 * the bench_cluster merged TSDB_cluster.jsonl artifact) into one
 * self-contained HTML file — inline SVG sparklines for every value
 * series, latency-quantile curves from histogram series, per-card
 * utilization heat strips rebuilt from the serve.card.<i>.busy_cycles
 * deltas (also under cluster "host<i>." prefixes), a per-host rollup
 * table for cluster dumps, and the alert timeline from the dump's
 * annotations. No external scripts, stylesheets or fonts: the file
 * opens offline and archives byte-stable in CI artifacts.
 *
 * Usage:
 *   poseidon_dash TSDB.jsonl                 # writes TSDB.jsonl.html
 *   poseidon_dash TSDB.jsonl -o dash.html
 *   poseidon_dash TSDB.jsonl --title 'chaos: card death'
 *
 * Exit status: 0 on success, 2 on usage/parse/write errors.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "telemetry/text_format.h"
#include "telemetry/timeseries.h"

using namespace poseidon;
using telemetry::Annotation;
using telemetry::HistogramSeries;
using telemetry::Series;
using telemetry::Tsdb;

namespace {

std::string
html_escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '&': out += "&amp;"; break;
        case '<': out += "&lt;"; break;
        case '>': out += "&gt;"; break;
        case '"': out += "&quot;"; break;
        default: out += c;
        }
    }
    return out;
}

std::string
num(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/// Polyline "x,y x,y ..." for a series scaled into a w x h viewBox
/// spanning [c0, c1] cycles and [lo, hi] values.
std::string
polyline_points(const Series &s, double c0, double c1, double lo,
                double hi, double w, double h)
{
    double cspan = c1 > c0 ? c1 - c0 : 1.0;
    double vspan = hi > lo ? hi - lo : 1.0;
    std::ostringstream pts;
    for (std::size_t i = 0; i < s.size(); ++i) {
        double x = (s.at(i).cycle - c0) / cspan * w;
        double y = h - (s.at(i).value - lo) / vspan * h;
        pts << num(x) << ',' << num(y) << ' ';
    }
    return pts.str();
}

/// One sparkline card: name, latest value, min/max, inline SVG.
void
emit_sparkline(std::ostream &os, const Series &s, double c0, double c1)
{
    const double w = 280.0, h = 48.0;
    double lo = s.at(0).value, hi = lo;
    for (std::size_t i = 1; i < s.size(); ++i) {
        lo = std::min(lo, s.at(i).value);
        hi = std::max(hi, s.at(i).value);
    }
    os << "<div class='card'><div class='name'>"
       << html_escape(s.name()) << "</div>"
       << "<div class='stat'>latest <b>" << num(s.latest().value)
       << "</b> &middot; min " << num(lo) << " &middot; max "
       << num(hi);
    if (s.evicted() > 0) {
        os << " &middot; " << s.evicted() << " evicted";
    }
    os << "</div><svg viewBox='0 0 " << num(w) << ' ' << num(h + 4)
       << "' class='spark'><polyline fill='none' stroke='#2a7ae2' "
          "stroke-width='1.5' points='"
       << polyline_points(s, c0, c1, lo, hi, w, h) << "'/></svg></div>\n";
}

/// Latency curves: per-interval p50/p99 from a histogram series.
void
emit_quantile_card(std::ostream &os, const HistogramSeries &hs,
                   double c0, double c1)
{
    const double w = 280.0, h = 48.0;
    struct Pt
    {
        double cycle, p50, p99;
    };
    std::vector<Pt> pts;
    for (std::size_t i = 0; i < hs.size(); ++i) {
        double prev = i == 0 ? -1.0 : hs.at(i - 1).cycle;
        double window = hs.at(i).cycle - prev;
        double p50 = hs.window_quantile(window, 0.5, hs.at(i).cycle);
        if (std::isnan(p50)) continue; // empty interval: no point
        double p99 = hs.window_quantile(window, 0.99, hs.at(i).cycle);
        pts.push_back({hs.at(i).cycle, p50, p99});
    }
    os << "<div class='card'><div class='name'>"
       << html_escape(hs.name()) << " (p50 / p99)</div>";
    if (pts.empty()) {
        os << "<div class='stat'>no observations</div></div>\n";
        return;
    }
    double lo = pts[0].p50, hi = pts[0].p99;
    for (const Pt &p : pts) {
        lo = std::min(lo, p.p50);
        hi = std::max(hi, p.p99);
    }
    double cspan = c1 > c0 ? c1 - c0 : 1.0;
    double vspan = hi > lo ? hi - lo : 1.0;
    auto line = [&](double Pt::*q, const char *color) {
        std::ostringstream p;
        for (const Pt &pt : pts) {
            p << num((pt.cycle - c0) / cspan * w) << ','
              << num(h - (pt.*q - lo) / vspan * h) << ' ';
        }
        os << "<polyline fill='none' stroke='" << color
           << "' stroke-width='1.5' points='" << p.str() << "'/>";
    };
    os << "<div class='stat'>latest p50 <b>"
       << num(pts.back().p50) << "</b> &middot; p99 <b>"
       << num(pts.back().p99) << "</b> cycles</div>"
       << "<svg viewBox='0 0 " << num(w) << ' ' << num(h + 4)
       << "' class='spark'>";
    line(&Pt::p99, "#e2612a");
    line(&Pt::p50, "#2a7ae2");
    os << "</svg></div>\n";
}

/// Heat strip of per-interval utilization (busy-cycle delta / cycle
/// delta) for one serve.card.<i>.busy_cycles series.
void
emit_util_strip(std::ostream &os, const Series &s, double c0,
                double c1)
{
    const double w = 640.0, h = 14.0;
    double cspan = c1 > c0 ? c1 - c0 : 1.0;
    os << "<div class='striprow'><span class='stripname'>"
       << html_escape(s.name()) << "</span><svg viewBox='0 0 "
       << num(w) << ' ' << num(h) << "' class='strip'>";
    for (std::size_t i = 1; i < s.size(); ++i) {
        double dt = s.at(i).cycle - s.at(i - 1).cycle;
        if (dt <= 0.0) continue;
        double util = (s.at(i).value - s.at(i - 1).value) / dt;
        util = std::max(0.0, std::min(1.0, util));
        double x0 = (s.at(i - 1).cycle - c0) / cspan * w;
        double x1 = (s.at(i).cycle - c0) / cspan * w;
        // Idle = pale, saturated = deep blue.
        int shade = static_cast<int>(235.0 - 180.0 * util);
        os << "<rect x='" << num(x0) << "' y='0' width='"
           << num(x1 - x0) << "' height='" << num(h) << "' fill='rgb("
           << shade << ',' << shade << ",235)'><title>"
           << html_escape(s.name()) << " [" << num(s.at(i - 1).cycle)
           << ", " << num(s.at(i).cycle) << "): "
           << num(util * 100.0) << "%</title></rect>";
    }
    os << "</svg></div>\n";
}

/// Split a cluster-merged series name "host<i>.<suffix>" into its
/// host index and engine-local suffix; false for non-host series.
bool
split_host_series(const std::string &name, u64 &host,
                  std::string &suffix)
{
    if (name.rfind("host", 0) != 0) return false;
    std::size_t i = 4;
    if (i >= name.size() || !std::isdigit(
                                static_cast<unsigned char>(name[i])))
        return false;
    u64 h = 0;
    while (i < name.size() &&
           std::isdigit(static_cast<unsigned char>(name[i]))) {
        h = h * 10 + static_cast<u64>(name[i] - '0');
        ++i;
    }
    if (i >= name.size() || name[i] != '.') return false;
    host = h;
    suffix = name.substr(i + 1);
    return true;
}

/// Per-host rollup table for cluster dumps: one row per "host<i>."
/// prefix, summarizing that engine's latest serve.* samples.
void
emit_host_rollup(std::ostream &os, const Tsdb &db)
{
    // host index -> (engine-local series name -> series).
    std::map<u64, std::map<std::string, const Series *>> hosts;
    for (const auto &s : db.series()) {
        u64 h = 0;
        std::string suffix;
        if (split_host_series(s->name(), h, suffix) && !s->empty()) {
            hosts[h][suffix] = s.get();
        }
    }
    if (hosts.empty()) return;

    auto latest = [](const std::map<std::string, const Series *> &m,
                     const char *name) -> std::string {
        auto it = m.find(name);
        if (it == m.end()) return "-";
        return num(it->second->latest().value);
    };
    os << "<h2>Host rollup</h2>\n"
       << "<table class='ann'><tr><th>host</th><th>completed</th>"
          "<th>failed</th><th>shed</th><th>retried</th>"
          "<th>queue depth</th><th>live cards</th>"
          "<th>quarantines</th></tr>\n";
    for (const auto &[h, m] : hosts) {
        os << "<tr><td>host" << h << "</td><td>"
           << latest(m, "serve.jobs.completed") << "</td><td>"
           << latest(m, "serve.jobs.failed") << "</td><td>"
           << latest(m, "serve.jobs.shed") << "</td><td>"
           << latest(m, "serve.jobs.retried") << "</td><td>"
           << latest(m, "serve.queue_depth") << "</td><td>"
           << latest(m, "serve.health.live_cards") << "</td><td>"
           << latest(m, "serve.health.quarantines")
           << "</td></tr>\n";
    }
    os << "</table>\n";
}

/// Alert lane per rule: firing windows as red bands on the cycle
/// axis, rebuilt from the dump's "alert" annotations.
void
emit_alert_timeline(std::ostream &os, const Tsdb &db, double c0,
                    double c1)
{
    struct Lane
    {
        std::string rule;
        std::vector<std::pair<double, double>> firing;
        double openSince = -1.0;
        std::size_t edges = 0;
    };
    std::vector<Lane> lanes;
    auto lane_for = [&](const std::string &rule) -> Lane & {
        for (Lane &l : lanes) {
            if (l.rule == rule) return l;
        }
        lanes.push_back(Lane{rule, {}, -1.0, 0});
        return lanes.back();
    };
    for (const Annotation &a : db.annotations()) {
        if (a.kind != "alert") continue;
        Lane &l = lane_for(a.name);
        ++l.edges;
        bool toFiring = a.text.find("-> firing") != std::string::npos;
        bool fromFiring = a.text.rfind("firing ->", 0) == 0;
        if (toFiring && l.openSince < 0.0) l.openSince = a.cycle;
        if (fromFiring && l.openSince >= 0.0) {
            l.firing.emplace_back(l.openSince, a.cycle);
            l.openSince = -1.0;
        }
    }
    for (Lane &l : lanes) {
        if (l.openSince >= 0.0) { // never resolved: band to the edge
            l.firing.emplace_back(l.openSince, c1);
            l.openSince = -1.0;
        }
    }

    os << "<h2>Alerts</h2>\n";
    if (lanes.empty()) {
        os << "<p class='stat'>no alert annotations in this dump</p>\n";
        return;
    }
    const double w = 640.0, h = 16.0;
    double cspan = c1 > c0 ? c1 - c0 : 1.0;
    for (const Lane &l : lanes) {
        os << "<div class='striprow'><span class='stripname'>"
           << html_escape(l.rule) << "</span><svg viewBox='0 0 "
           << num(w) << ' ' << num(h)
           << "' class='strip'><rect x='0' y='6' width='" << num(w)
           << "' height='4' fill='#e8e8e8'/>";
        for (const auto &[f0, f1] : l.firing) {
            os << "<rect x='" << num((f0 - c0) / cspan * w)
               << "' y='2' width='"
               << num(std::max(1.0, (f1 - f0) / cspan * w))
               << "' height='12' fill='#d43f3f'><title>firing ["
               << num(f0) << ", " << num(f1) << ")</title></rect>";
        }
        os << "</svg></div>\n";
    }
    os << "<table class='ann'><tr><th>cycle</th><th>rule</th>"
          "<th>transition</th><th>value</th></tr>\n";
    for (const Annotation &a : db.annotations()) {
        if (a.kind != "alert") continue;
        os << "<tr><td>" << num(a.cycle) << "</td><td>"
           << html_escape(a.name) << "</td><td>"
           << html_escape(a.text) << "</td><td>" << num(a.value)
           << "</td></tr>\n";
    }
    os << "</table>\n";
}

int
render(const std::string &inPath, const std::string &outPath,
       const std::string &title)
{
    Tsdb db = Tsdb::load_jsonl(inPath);

    // Global cycle span across every series.
    double c0 = 0.0, c1 = 0.0;
    bool any = false;
    for (const auto &s : db.series()) {
        if (s->empty()) continue;
        if (!any) {
            c0 = s->at(0).cycle;
            c1 = s->latest().cycle;
            any = true;
        } else {
            c0 = std::min(c0, s->at(0).cycle);
            c1 = std::max(c1, s->latest().cycle);
        }
    }
    for (const auto &h : db.histogram_series()) {
        if (h->empty()) continue;
        c1 = std::max(c1, h->latest().cycle);
    }

    std::ostringstream os;
    os << "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
       << "<title>" << html_escape(title) << "</title><style>\n"
       << "body{font:14px/1.4 system-ui,sans-serif;margin:24px;"
          "color:#222;max-width:1100px}\n"
          "h1{font-size:20px}h2{font-size:16px;margin-top:28px}\n"
          ".meta{color:#666;margin-bottom:16px}\n"
          ".grid{display:flex;flex-wrap:wrap;gap:12px}\n"
          ".card{border:1px solid #ddd;border-radius:6px;"
          "padding:8px 10px;width:300px}\n"
          ".name{font-weight:600;font-size:12px;"
          "overflow-wrap:anywhere}\n"
          ".stat{color:#555;font-size:12px}\n"
          ".spark{width:100%;height:52px;margin-top:4px}\n"
          ".striprow{display:flex;align-items:center;gap:8px;"
          "margin:3px 0}\n"
          ".stripname{width:260px;font-size:12px;text-align:right;"
          "overflow-wrap:anywhere}\n"
          ".strip{flex:1;height:16px}\n"
          ".ann{border-collapse:collapse;margin-top:10px;"
          "font-size:12px}\n"
          ".ann td,.ann th{border:1px solid #ddd;padding:3px 8px;"
          "text-align:left}\n"
       << "</style></head><body>\n"
       << "<h1>" << html_escape(title) << "</h1>\n"
       << "<div class='meta'>" << html_escape(inPath) << " &middot; "
       << db.series_count() << " series &middot; cadence "
       << num(db.cadence_cycles()) << " cycles &middot; span ["
       << num(c0) << ", " << num(c1) << "] cycles</div>\n";

    // Cluster dumps lead with the per-host rollup (no-op for
    // single-engine dumps without host<i>. prefixes).
    emit_host_rollup(os, db);

    // Per-card utilization strips next: the fleet at a glance. The
    // matcher accepts both bare engine names (serve.card.<i>...) and
    // cluster-merged ones (host<j>.serve.card.<i>...).
    std::vector<const Series *> utilSeries;
    for (const auto &s : db.series()) {
        const std::string &n = s->name();
        std::size_t at = n.find("serve.card.");
        bool prefixOk = at == 0;
        if (!prefixOk && at != std::string::npos) {
            u64 h = 0;
            std::string suffix;
            prefixOk = split_host_series(n, h, suffix) &&
                       suffix.rfind("serve.card.", 0) == 0;
        }
        if (prefixOk && n.size() > 12 &&
            n.compare(n.size() - 12, 12, ".busy_cycles") == 0 &&
            s->size() >= 2) {
            utilSeries.push_back(s.get());
        }
    }
    if (!utilSeries.empty()) {
        os << "<h2>Card utilization</h2>\n";
        for (const Series *s : utilSeries) {
            emit_util_strip(os, *s, c0, c1);
        }
    }

    emit_alert_timeline(os, db, c0, c1);

    os << "<h2>Series</h2>\n<div class='grid'>\n";
    for (const auto &s : db.series()) {
        if (!s->empty()) emit_sparkline(os, *s, c0, c1);
    }
    for (const auto &h : db.histogram_series()) {
        if (!h->empty()) emit_quantile_card(os, *h, c0, c1);
    }
    os << "</div>\n</body></html>\n";

    if (!telemetry::write_text_file(outPath, os.str())) {
        std::cerr << "poseidon_dash: cannot write " << outPath << "\n";
        return 2;
    }
    std::cout << "poseidon_dash: wrote " << outPath << " ("
              << db.series_count() << " series, "
              << db.annotations().size() << " annotations)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string inPath, outPath, title;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) {
            outPath = argv[++i];
        } else if (std::strcmp(argv[i], "--title") == 0 &&
                   i + 1 < argc) {
            title = argv[++i];
        } else if (argv[i][0] != '-' && inPath.empty()) {
            inPath = argv[i];
        } else {
            std::cerr << "usage: poseidon_dash TSDB.jsonl [-o "
                         "OUT.html] [--title TITLE]\n";
            return 2;
        }
    }
    if (inPath.empty()) {
        std::cerr << "poseidon_dash: no TSDB dump given\n";
        return 2;
    }
    if (outPath.empty()) outPath = inPath + ".html";
    if (title.empty()) title = "Poseidon fleet dashboard";

    try {
        return render(inPath, outPath, title);
    } catch (const Error &e) {
        std::cerr << "poseidon_dash: " << e.what() << "\n";
        return 2;
    }
}
