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
 *   poseidon_explain JOURNAL.jsonl --alerts --tsdb TSDB.jsonl
 *                                  # alert-rule timeline, read from
 *                                  # the TSDB's alert annotations
 *   poseidon_explain JOURNAL.jsonl --json FILE # full report as JSON
 *                                              # (FILE '-' = stdout)
 *
 * Journals come out of `chaos_campaign --journal DIR`, the
 * bench_serving JOURNAL_serving.jsonl artifact, or
 * ServingEngine::journal().to_jsonl(); TSDB dumps from the same
 * sources. Exit status: 0 on success, 1 when --alerts finds a rule
 * that reached firing, 2 on usage/parse errors.
 */

#include <cstring>
#include <iostream>
#include <string>

#include "common/status.h"
#include "serve/latency_breakdown.h"
#include "telemetry/alerts.h"
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

/// Print the alert timeline from the TSDB's "alert" annotations (one
/// per state-machine edge).
void
print_alert_timeline(const telemetry::Tsdb &tsdb)
{
    std::size_t edges = 0;
    std::cout << "alert timeline (tsdb):\n";
    for (const telemetry::Annotation &a : tsdb.annotations()) {
        if (a.kind != "alert") continue;
        ++edges;
        std::cout << "  cycle " << a.cycle << "  " << a.name << ": "
                  << a.text << "\n";
    }
    if (edges == 0) {
        std::cout << "  (no alert transitions — no rules configured "
                     "or none tripped)\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const char *usage = "usage: poseidon_explain JOURNAL.jsonl "
                        "[--top N] [--job ID] [--alerts --tsdb FILE] "
                        "[--json FILE]\n";
    std::string path;
    std::string jsonOut;
    std::string tsdbPath;
    bool wantAlerts = false;
    std::size_t top = 3;
    JobId onlyJob = 0;
    try {
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--alerts") == 0) {
                wantAlerts = true;
            } else if (std::strcmp(argv[i], "--tsdb") == 0 &&
                       i + 1 < argc) {
                tsdbPath = argv[++i];
            } else if (std::strcmp(argv[i], "--top") == 0 &&
                       i + 1 < argc) {
                top = telemetry::parse_integer<std::size_t>(argv[++i],
                                                            "--top");
            } else if (std::strcmp(argv[i], "--job") == 0 &&
                       i + 1 < argc) {
                onlyJob = telemetry::parse_integer<JobId>(argv[++i],
                                                          "--job");
                if (onlyJob == 0) {
                    telemetry::throw_bad_integer(argv[i], "--job");
                }
            } else if (std::strcmp(argv[i], "--json") == 0 &&
                       i + 1 < argc) {
                jsonOut = argv[++i];
            } else if (argv[i][0] != '-' && path.empty()) {
                path = argv[i];
            } else {
                std::cerr << usage;
                return 2;
            }
        }
    } catch (const InvalidArgument &e) {
        std::cerr << "poseidon_explain: " << e.what() << "\n" << usage;
        return 2;
    }
    if (path.empty()) {
        std::cerr << "poseidon_explain: no journal file given\n";
        return 2;
    }
    if (wantAlerts == tsdbPath.empty()) {
        std::cerr << "poseidon_explain: --alerts and --tsdb FILE go "
                     "together\n"
                  << usage;
        return 2;
    }

    try {
        Journal journal = Journal::load_jsonl(path);
        BreakdownReport br = decompose(journal);

        telemetry::Tsdb tsdb;
        if (wantAlerts) tsdb = telemetry::Tsdb::load_jsonl(tsdbPath);

        if (!jsonOut.empty()) {
            telemetry::Json out = br.to_json();
            if (jsonOut == "-") {
                std::cout << out.dump(2) << "\n";
            } else if (!telemetry::write_text_file(
                           jsonOut, out.dump(2) + "\n")) {
                std::cerr << "poseidon_explain: cannot write " << jsonOut
                          << "\n";
                return 2;
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
            if (wantAlerts) print_alert_timeline(tsdb);
        }
        // A firing edge trips the exit code in every output mode; an
        // "alert" annotation's value is the rule's new state.
        constexpr auto kFiring =
            static_cast<double>(telemetry::AlertState::Firing);
        for (const telemetry::Annotation &a : tsdb.annotations()) {
            if (a.kind == "alert" && a.value == kFiring) return 1;
        }
        return 0;
    } catch (const Error &e) {
        std::cerr << "poseidon_explain: " << e.what() << "\n";
        return 2;
    }
}
