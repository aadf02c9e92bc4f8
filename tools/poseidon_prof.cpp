// poseidon_prof — the bottleneck-attribution profiler CLI.
//
// Runs a named paper workload (or all of them) through the accelerator
// model, attributes every modeled cycle with hw/profiler, and renders
// the attribution + roofline tables with a top-bottleneck verdict.
//
// Usage:
//   poseidon_prof [options] [WORKLOAD ...]
//     WORKLOAD            lr | lstm | resnet-20 | bootstrapping | all
//                         (default: all; names are case-insensitive)
//   --json FILE           also write the JSON report to FILE (one
//                         workload) or FILE with "_<name>" inserted
//                         before the extension (several)
//   --quiet               suppress the text tables (verdict only)
//   --list                print the known workload names and exit
//
// Exit status: 0 on success, 1 on a profiler invariant violation or
// unknown workload, 2 on bad usage.

#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"
#include "hw/profiler.h"
#include "kernels/kernels.h"
#include "hw/sim.h"
#include "telemetry/text_format.h"
#include "workloads/workloads.h"

using namespace poseidon;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--json FILE] [--quiet] [--list] "
                 "[WORKLOAD ...]\n",
                 argv0);
    return 2;
}

std::string
json_path_for(const std::string &base, const std::string &name,
              bool multi)
{
    if (!multi) return base;
    std::string suffix;
    for (char c : name) {
        suffix += (std::isalnum(static_cast<unsigned char>(c)))
                      ? static_cast<char>(
                            std::tolower(static_cast<unsigned char>(c)))
                      : '_';
    }
    std::size_t dot = base.rfind('.');
    std::size_t slash = base.rfind('/');
    // A dot inside a directory component is not an extension.
    if (dot == std::string::npos ||
        (slash != std::string::npos && slash > dot)) {
        return base + "_" + suffix;
    }
    return base.substr(0, dot) + "_" + suffix + base.substr(dot);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonPath;
    bool quiet = false;
    std::vector<std::string> names;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json") {
            if (++i >= argc) return usage(argv[0]);
            jsonPath = argv[i];
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--list") {
            for (const std::string &n : workloads::workload_names()) {
                std::printf("%s\n", n.c_str());
            }
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return usage(argv[0]);
        } else {
            names.push_back(arg);
        }
    }
    if (names.empty() ||
        (names.size() == 1 && (names[0] == "all" || names[0] == "ALL"))) {
        names = workloads::workload_names();
    }

    if (!quiet) {
        std::printf("host kernel dispatch: %s\n",
                    kernels::level_name(kernels::active_level()));
    }

    hw::HwConfig cfg = hw::HwConfig::poseidon_u280();
    hw::PoseidonSim sim(cfg);
    bool multi = names.size() > 1;

    for (const std::string &name : names) {
        workloads::Workload wl;
        try {
            wl = workloads::find_workload(name);
        } catch (const poseidon::InvalidArgument &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }

        hw::SimTimeline tl;
        hw::SimResult r = sim.run(wl.trace, &tl);
        hw::ProfileReport rep;
        try {
            rep = hw::profile(tl, r, cfg, wl.name);
        } catch (const poseidon::InternalError &e) {
            std::fprintf(stderr,
                         "profiler invariant violation on %s: %s\n",
                         wl.name.c_str(), e.what());
            return 1;
        }
        rep.export_metrics(telemetry::MetricsRegistry::global());

        if (!quiet) {
            std::printf("== %s: %zu instructions, %.0f cycles, "
                        "%.3f ms modeled ==\n",
                        wl.name.c_str(), wl.trace.size(), r.cycles,
                        r.seconds * 1e3);
            std::fputs(rep.to_text().c_str(), stdout);
            std::printf("\n");
        } else {
            std::printf("%s: %s\n", wl.name.c_str(),
                        rep.verdict().c_str());
        }

        if (!jsonPath.empty()) {
            std::string path = json_path_for(jsonPath, wl.name, multi);
            if (!telemetry::write_text_file(
                    path, rep.to_json().dump(2) + "\n")) {
                std::fprintf(stderr, "cannot write %s\n", path.c_str());
                return 1;
            }
            std::printf("[prof] wrote %s\n", path.c_str());
        }
    }
    return 0;
}
