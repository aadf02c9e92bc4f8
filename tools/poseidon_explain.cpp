/**
 * @file
 * "Explain this job": replay a serving-engine lifecycle journal
 * (serve/journal.h) and print per-job latency waterfalls — where
 * every cycle of end-to-end latency went (queue wait, batch delay,
 * backoff, retry overhead, execution) — plus per-tenant /
 * per-priority aggregates rebuilt from the journal alone.
 *
 * Usage:
 *   poseidon_explain JOURNAL.jsonl             # summary + worst jobs
 *   poseidon_explain JOURNAL.jsonl --top N     # N worst waterfalls
 *   poseidon_explain JOURNAL.jsonl --job ID    # one specific job
 *   poseidon_explain JOURNAL.jsonl --slo SPEC  # SLO burn rates, e.g.
 *                                  --slo 'prio0=2.5e6;budget=0.01'
 *   poseidon_explain JOURNAL.jsonl --alerts    # alert-rule timeline
 *   poseidon_explain JOURNAL.jsonl --alerts --tsdb TSDB.jsonl
 *                                  # cross-check against the TSDB's
 *                                  # alert annotations
 *   poseidon_explain JOURNAL.jsonl --json FILE # full report as JSON
 *                                              # (FILE '-' = stdout)
 *
 * Journals come out of `chaos_campaign --journal DIR`, the
 * bench_serving JOURNAL_serving.jsonl artifact, or
 * ServingEngine::journal().to_jsonl(). Exit status: 0 on success,
 * 1 when --slo finds an alerting priority class or --alerts finds a
 * rule that reached firing, 2 on usage/parse errors.
 */

#include <cstring>
#include <iostream>
#include <string>

#include "common/status.h"
#include "serve/latency_breakdown.h"
#include "telemetry/text_format.h"
#include "telemetry/timeseries.h"

using namespace poseidon;
using namespace poseidon::serve;

namespace {

void
print_summary(const BreakdownReport &br)
{
    std::cout << "journal: " << br.jobs.size() << " jobs, "
              << br.cards << " cards, clock " << br.clockGHz
              << " GHz\n\n";
    std::cout << "per-tenant (cycles):\n";
    for (const auto &[tenant, acc] : br.tenants) {
        std::cout << "  " << tenant << ": " << acc.jobs << " jobs ("
                  << acc.completed << " completed, " << acc.failed
                  << " failed, " << acc.expired << " expired, "
                  << acc.shed << " shed)  p50 "
                  << acc.p50LatencyCycles << "  p99 "
                  << acc.p99LatencyCycles << "\n";
        if (acc.endToEndCycles > 0.0) {
            std::cout << "    phase shares:";
            for (std::size_t p = 0; p < kPhaseCount; ++p) {
                std::cout << "  "
                          << to_string(static_cast<Phase>(p)) << " "
                          << static_cast<int>(acc.phaseCycles[p] /
                                                  acc.endToEndCycles *
                                                  100.0 +
                                              0.5)
                          << "%";
            }
            std::cout << "\n";
        }
    }
    std::cout << "\n";
}

/**
 * Print the alert timeline recorded in the journal (the engine logs
 * one AlertTransition event per state-machine edge, job = 0). Returns
 * the number of edges that reached `firing`.
 */
std::size_t
print_alert_timeline(const Journal &journal,
                     const telemetry::Tsdb *tsdb)
{
    std::size_t fired = 0, edges = 0;
    std::cout << "alert timeline (journal):\n";
    for (const JournalEvent &ev : journal.events()) {
        if (ev.kind != JournalEventKind::AlertTransition) continue;
        ++edges;
        if (ev.failed) ++fired;
        std::cout << "  cycle " << ev.cycle << "  [rule "
                  << (ev.attempt == 0 ? 0 : ev.attempt - 1) << "] "
                  << ev.name << ": " << ev.detail;
        if (ev.value != 0.0) std::cout << "  (value " << ev.value
                                       << ")";
        std::cout << "\n";
    }
    if (edges == 0) {
        std::cout << "  (no alert transitions — no rules configured "
                     "or none tripped)\n";
    }
    if (tsdb) {
        // Cross-check: the TSDB carries the same edges as
        // annotations; disagreement means the two artifacts are from
        // different runs.
        std::size_t annEdges = 0;
        for (const telemetry::Annotation &a : tsdb->annotations()) {
            if (a.kind == "alert") ++annEdges;
        }
        std::cout << "tsdb cross-check: " << annEdges
                  << " alert annotations vs " << edges
                  << " journal transitions"
                  << (annEdges == edges ? "" : "  MISMATCH") << "\n";
    }
    return fired;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    std::string jsonOut;
    std::string sloSpec;
    std::string tsdbPath;
    bool wantAlerts = false;
    std::size_t top = 3;
    JobId onlyJob = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--alerts") == 0) {
            wantAlerts = true;
        } else if (std::strcmp(argv[i], "--tsdb") == 0 &&
                   i + 1 < argc) {
            tsdbPath = argv[++i];
        } else if (std::strcmp(argv[i], "--top") == 0 &&
                   i + 1 < argc) {
            top = static_cast<std::size_t>(std::stoul(argv[++i]));
        } else if (std::strcmp(argv[i], "--job") == 0 &&
                   i + 1 < argc) {
            onlyJob = static_cast<JobId>(std::stoull(argv[++i]));
        } else if (std::strcmp(argv[i], "--json") == 0 &&
                   i + 1 < argc) {
            jsonOut = argv[++i];
        } else if (std::strcmp(argv[i], "--slo") == 0 &&
                   i + 1 < argc) {
            sloSpec = argv[++i];
        } else if (argv[i][0] != '-' && path.empty()) {
            path = argv[i];
        } else {
            std::cerr << "usage: poseidon_explain JOURNAL.jsonl "
                         "[--top N] [--job ID] [--slo SPEC] "
                         "[--alerts] [--tsdb FILE] [--json FILE]\n";
            return 2;
        }
    }
    if (path.empty()) {
        std::cerr << "poseidon_explain: no journal file given\n";
        return 2;
    }

    try {
        Journal journal = Journal::load_jsonl(path);
        BreakdownReport br = decompose(journal);

        SloReport slo;
        bool haveSlo = !sloSpec.empty();
        if (haveSlo) {
            slo = evaluate_slo(br, SloConfig::parse(sloSpec));
        }

        telemetry::Tsdb tsdb;
        bool haveTsdb = !tsdbPath.empty();
        if (haveTsdb) tsdb = telemetry::Tsdb::load_jsonl(tsdbPath);

        if (!jsonOut.empty()) {
            telemetry::Json out = br.to_json();
            if (haveSlo) out.set("slo", slo.to_json());
            if (jsonOut == "-") {
                std::cout << out.dump(2) << "\n";
            } else if (!telemetry::write_text_file(
                           jsonOut, out.dump(2) + "\n")) {
                std::cerr << "poseidon_explain: cannot write " << jsonOut
                          << "\n";
                return 2;
            }
        }

        // A firing edge trips the exit code regardless of the output
        // mode (mirrors how --slo alerts do).
        bool anyFiring = false;
        if (wantAlerts) {
            for (const JournalEvent &ev : journal.events()) {
                if (ev.kind == JournalEventKind::AlertTransition &&
                    ev.failed) {
                    anyFiring = true;
                }
            }
        }
        if (jsonOut.empty() || jsonOut != "-") {
            print_summary(br);
            if (onlyJob != 0) {
                const JobBreakdown *jb = br.find(onlyJob);
                if (!jb) {
                    std::cerr << "poseidon_explain: no job "
                              << onlyJob << " in this journal\n";
                    return 2;
                }
                std::cout << br.waterfall_text(*jb);
            } else {
                std::cout << "worst " << top
                          << " jobs by end-to-end latency:\n";
                for (const JobBreakdown *jb : br.worst(top)) {
                    std::cout << br.waterfall_text(*jb) << "\n";
                }
            }
            if (wantAlerts) {
                print_alert_timeline(journal,
                                     haveTsdb ? &tsdb : nullptr);
            }
            if (haveSlo) {
                std::cout << "slo (budget " << slo.budgetFraction
                          << ", alert at burn >= "
                          << slo.alertBurnRate << "x):\n";
                for (const SloStatus &s : slo.statuses) {
                    std::cout << "  prio" << s.priority
                              << ": target " << s.targetCycles
                              << " cycles, " << s.violations << "/"
                              << s.jobs << " violations, burn rate "
                              << s.burnRate
                              << (s.alerting ? "  ALERT" : "")
                              << "\n";
                }
            }
        }
        if (haveSlo && slo.alerts > 0) return 1;
        if (anyFiring) return 1;
        return 0;
    } catch (const Error &e) {
        std::cerr << "poseidon_explain: " << e.what() << "\n";
        return 2;
    }
}
