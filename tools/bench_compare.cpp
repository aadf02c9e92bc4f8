// bench_compare — the bench-regression gate.
//
// Diffs freshly produced BENCH_<name>.json files against the
// committed baselines and exits nonzero when any compared value moves
// beyond its tolerance (or a baseline value disappears, or the
// documents are not comparable — e.g. different hw_config/threads
// stamps). CI runs this after the bench-smoke set so the perf
// trajectory accumulates commit over commit.
//
// Usage:
//   bench_compare --baseline-dir DIR [options] FILE.json [...]
//     --baseline-dir DIR   directory of committed BENCH_*.json
//                          baselines (required)
//     --tolerance T        default relative tolerance (default 1e-9 —
//                          the model is deterministic; the default
//                          only absorbs FP-contraction differences
//                          across compilers)
//     --metric-tol K=T     per-metric override, repeatable (K is
//                          "cycles", "seconds", "bandwidth_util" or
//                          "metrics.<name>")
//     --require-baseline   treat a missing baseline file as failure
//                          (default: report it and pass, so new
//                          benches can land before their baseline)
//
// A current file's baseline is DIR/<basename of FILE>.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "telemetry/bench_diff.h"
#include "telemetry/json.h"
#include "telemetry/text_format.h"

using poseidon::telemetry::BenchDiffOptions;
using poseidon::telemetry::BenchDiffResult;
using poseidon::telemetry::Json;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --baseline-dir DIR [--tolerance T] "
                 "[--metric-tol KEY=T]... [--require-baseline] "
                 "FILE.json [...]\n",
                 argv0);
    return 2;
}

bool
read_json(const std::string &path, Json *out, std::string *err)
{
    try {
        *out = Json::parse(poseidon::telemetry::read_text_file(path, "BENCH"));
    } catch (const std::exception &e) {
        *err = e.what();
        return false;
    }
    return true;
}

std::string
basename_of(const std::string &path)
{
    std::size_t slash = path.rfind('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string baselineDir;
    BenchDiffOptions opt;
    bool requireBaseline = false;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--baseline-dir") {
            if (++i >= argc) return usage(argv[0]);
            baselineDir = argv[i];
        } else if (arg == "--tolerance") {
            if (++i >= argc) return usage(argv[0]);
            opt.defaultTolerance = std::atof(argv[i]);
        } else if (arg == "--metric-tol") {
            if (++i >= argc) return usage(argv[0]);
            std::string kv = argv[i];
            std::size_t eq = kv.find('=');
            if (eq == std::string::npos) return usage(argv[0]);
            opt.tolerances[kv.substr(0, eq)] =
                std::atof(kv.c_str() + eq + 1);
        } else if (arg == "--require-baseline") {
            requireBaseline = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return usage(argv[0]);
        } else {
            files.push_back(arg);
        }
    }
    if (baselineDir.empty() || files.empty()) return usage(argv[0]);
    if (!baselineDir.empty() && baselineDir.back() != '/') {
        baselineDir += '/';
    }

    int rc = 0;
    std::size_t regressions = 0, skipped = 0;
    for (const std::string &file : files) {
        std::string err;
        Json current;
        if (!read_json(file, &current, &err)) {
            std::fprintf(stderr, "%s: FAIL: %s\n", file.c_str(),
                         err.c_str());
            rc = 1;
            continue;
        }
        std::string basePath = baselineDir + basename_of(file);
        Json baseline;
        if (!read_json(basePath, &baseline, &err)) {
            if (requireBaseline) {
                std::fprintf(stderr, "%s: FAIL: baseline %s: %s\n",
                             file.c_str(), basePath.c_str(),
                             err.c_str());
                rc = 1;
            } else {
                std::printf("%s: NEW (no baseline at %s) — commit one "
                            "to start gating\n",
                            file.c_str(), basePath.c_str());
                ++skipped;
            }
            continue;
        }
        BenchDiffResult r =
            poseidon::telemetry::diff_bench(baseline, current, opt);
        std::fputs(poseidon::telemetry::format_diff(r).c_str(),
                   r.regressed() ? stderr : stdout);
        if (r.regressed()) {
            regressions += r.comparable ? r.regression_count() : 1;
            rc = 1;
        }
    }
    if (rc != 0) {
        std::fprintf(stderr,
                     "bench_compare: FAIL (%zu regression%s)\n",
                     regressions, regressions == 1 ? "" : "s");
    } else {
        std::printf("bench_compare: ok (%zu file%s%s)\n", files.size(),
                    files.size() == 1 ? "" : "s",
                    skipped > 0 ? ", some without baselines" : "");
    }
    return rc;
}
