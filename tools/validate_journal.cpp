/**
 * @file
 * CI gate for the schema'd JSONL dumps: sniff each file's header
 * schema and validate it through the shared JSONL reader (header
 * schema/version, declared line counts, every body line decoded),
 * then check the invariants its format promises —
 *
 *  - poseidon-journal: every job reaches exactly one terminal state,
 *    per-job event streams are chronological, and each job's phase
 *    expansion distills bit-exactly to its end-to-end latency
 *    (JobBreakdown::phase_sum() == endToEndCycles);
 *  - poseidon-cluster-journal: every job has exactly one Submitted
 *    and one Resolved event;
 *  - poseidon-tsdb: every series and annotation line decodes.
 *
 * Usage: validate_journal FILE.jsonl [FILE.jsonl ...]
 * Exit status 0 when every file validates, 1 otherwise.
 */

#include <iostream>
#include <map>
#include <string>
#include <utility>

#include "cluster/journal.h"
#include "common/check.h"
#include "serve/latency_breakdown.h"
#include "telemetry/text_format.h"
#include "telemetry/timeseries.h"

using namespace poseidon;
using namespace poseidon::serve;

namespace {

bool
validate_serve(const std::string &path, const std::string &text)
{
    Journal journal = Journal::parse_jsonl(text);
    // decompose() itself asserts terminality, chronology and
    // conservation via POSEIDON_CHECK (InternalError); re-check
    // conservation explicitly so the gate does not rely on the
    // library's asserts alone.
    BreakdownReport br = decompose(journal);
    for (const JobBreakdown &jb : br.jobs) {
        if (jb.phase_sum() != jb.endToEndCycles) {
            std::cerr << path << ": job " << jb.id
                      << " violates phase conservation ("
                      << jb.phase_sum() << " != " << jb.endToEndCycles
                      << " cycles)\n";
            return false;
        }
    }
    std::cout << path << ": OK (" << journal.size() << " events, "
              << br.jobs.size() << " jobs, " << br.cards
              << " cards)\n";
    return true;
}

bool
validate_cluster(const std::string &path, const std::string &text)
{
    using cluster::ClusterEventKind;
    auto journal = cluster::ClusterJournal::parse_jsonl(text);
    std::map<u64, std::pair<int, int>> seen; // job -> Submitted, Resolved
    for (const cluster::ClusterEvent &ev : journal.events()) {
        if (ev.kind == ClusterEventKind::Submitted) ++seen[ev.job].first;
        if (ev.kind == ClusterEventKind::Resolved) ++seen[ev.job].second;
    }
    for (const auto &[job, n] : seen) {
        if (n != std::make_pair(1, 1)) {
            std::cerr << path << ": job " << job << " has " << n.first
                      << " Submitted and " << n.second
                      << " Resolved events (want one each)\n";
            return false;
        }
    }
    std::cout << path << ": OK (" << journal.size() << " events, "
              << seen.size() << " jobs, " << journal.hosts()
              << " hosts)\n";
    return true;
}

bool
validate_tsdb(const std::string &path, const std::string &text)
{
    telemetry::Tsdb db = telemetry::Tsdb::parse_jsonl(text);
    std::cout << path << ": OK (" << db.series_count() << " series, "
              << db.annotations().size() << " annotations)\n";
    return true;
}

bool
validate(const std::string &path)
{
    try {
        std::string text = telemetry::read_text_file(path, "JSONL");
        std::string schema = telemetry::jsonl_schema_name(text);
        if (schema == Journal::kSchemaName) {
            return validate_serve(path, text);
        }
        if (schema == cluster::ClusterJournal::kSchemaName) {
            return validate_cluster(path, text);
        }
        POSEIDON_REQUIRE_T(ParseError,
                           schema == telemetry::Tsdb::kSchemaName,
                           "unknown schema \"" << schema << "\"");
        return validate_tsdb(path, text);
    } catch (const Error &e) {
        std::cerr << path << ": INVALID: " << e.what() << "\n";
        return false;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: validate_journal FILE.jsonl [...]\n";
        return 1;
    }
    bool ok = true;
    for (int i = 1; i < argc; ++i) {
        ok = validate(argv[i]) && ok;
    }
    return ok ? 0 : 1;
}
