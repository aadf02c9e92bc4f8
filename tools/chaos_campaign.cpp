/**
 * @file
 * Chaos-campaign runner: executes the scripted fault-storm scenarios
 * (serve/chaos.h) against the serving engine and gates on the
 * conservation invariants.
 *
 * Usage:
 *   chaos_campaign                  # run the standard campaign
 *   chaos_campaign --list           # print scenario names and exit
 *   chaos_campaign --only NAME      # run a single scenario
 *   chaos_campaign --dsl 'SPEC'     # ad-hoc schedule on the default
 *                                   # scenario load
 *   chaos_campaign --json           # machine-readable reports
 *   chaos_campaign --journal DIR    # write each scenario's lifecycle
 *                                   # journal to DIR/NAME.jsonl (feed
 *                                   # to poseidon_explain /
 *                                   # validate_journal)
 *
 * Exit status is non-zero when any scenario loses a job (submitted !=
 * completed + failed + expired + shed), leaves a ticket unresolved,
 * or produces a journal that disagrees with the engine's stats — the
 * CI smoke job runs exactly this binary.
 */

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "serve/chaos.h"
#include "telemetry/text_format.h"

using namespace poseidon;
using namespace poseidon::serve;

namespace {

void
print_report(const CampaignReport &r, bool json)
{
    if (json) {
        std::cout << r.to_json().dump() << "\n";
        return;
    }
    std::cout << (r.ok() ? "  PASS " : "  FAIL ") << r.scenario
              << ": " << r.completed << "/" << r.submitted
              << " completed, " << r.failed << " failed, " << r.expired
              << " expired, " << r.shed << " shed; " << r.retries
              << " retries, " << r.quarantines << " quarantines, "
              << r.readmissions << " readmissions, " << r.probes
              << " probes; availability "
              << static_cast<int>(r.availability * 100.0 + 0.5)
              << "%\n";
    if (!r.allTicketsResolved) {
        std::cout << "        unresolved ticket futures!\n";
    }
    if (!r.journalConsistent) {
        std::cout << "        journal disagrees with engine stats!\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    bool list = false;
    std::string only;
    std::string dsl;
    std::string journalDir;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
        } else if (std::strcmp(argv[i], "--list") == 0) {
            list = true;
        } else if (std::strcmp(argv[i], "--only") == 0 &&
                   i + 1 < argc) {
            only = argv[++i];
        } else if (std::strcmp(argv[i], "--dsl") == 0 &&
                   i + 1 < argc) {
            dsl = argv[++i];
        } else if (std::strcmp(argv[i], "--journal") == 0 &&
                   i + 1 < argc) {
            journalDir = argv[++i];
        } else {
            std::cerr << "usage: chaos_campaign [--list] [--json] "
                         "[--only NAME] [--dsl 'SPEC'] "
                         "[--journal DIR]\n";
            return 2;
        }
    }

    std::vector<Scenario> scenarios;
    if (!dsl.empty()) {
        Scenario sc;
        sc.name = "ad-hoc";
        sc.description = "schedule from --dsl";
        sc.schedule = ChaosSchedule::parse(dsl);
        scenarios.push_back(std::move(sc));
    } else {
        scenarios = standard_scenarios();
    }

    if (list) {
        for (const Scenario &sc : scenarios) {
            std::cout << sc.name << ": " << sc.description << "\n";
        }
        return 0;
    }

    if (!json) std::cout << "chaos campaign:\n";
    bool allOk = true;
    bool ranAny = false;
    for (const Scenario &sc : scenarios) {
        if (!only.empty() && sc.name != only) continue;
        ranAny = true;
        CampaignReport r = run_scenario(sc);
        print_report(r, json);
        if (!journalDir.empty()) {
            std::string path = journalDir + "/" + sc.name + ".jsonl";
            if (!telemetry::write_text_file(path, r.journalJsonl)) {
                std::cerr << "cannot write journal " << path << "\n";
                allOk = false;
            }
        }
        allOk = allOk && r.ok();
    }
    if (!ranAny) {
        std::cerr << "no scenario named \"" << only << "\"\n";
        return 2;
    }
    if (!json) {
        std::cout << (allOk ? "campaign PASSED\n"
                            : "campaign FAILED\n");
    }
    return allOk ? 0 : 1;
}
