#include "bench/bench_harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "common/parallel.h"
#include "kernels/kernels.h"

namespace poseidon::bench {

namespace {

std::string
run_git(const char *cmd)
{
    FILE *p = ::popen(cmd, "r");
    if (!p) return "unknown";
    char buf[128];
    std::string out;
    while (std::fgets(buf, sizeof(buf), p)) out += buf;
    int rc = ::pclose(p);
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
        out.pop_back();
    }
    if (rc != 0 || out.empty()) return "unknown";
    return out;
}

using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

long
minor_faults()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return ru.ru_minflt;
}

/// Runs one rep of `p` and returns its whole wall time, setup
/// included. A timed rep (`r` non-null) counts into `r` and replaces
/// its fastest rep if `fn` beat it.
double
run_rep(const Probe &p, ProbeResult *r)
{
    auto start = Clock::now();
    if (p.setup) p.setup();
    long faults = minor_faults();
    auto t0 = Clock::now();
    p.fn();
    double s = seconds_since(t0);
    faults = minor_faults() - faults;
    if (r && (r->reps++ == 0 || s < r->seconds)) {
        r->seconds = s;
        r->minorFaults = faults;
    }
    return seconds_since(start);
}

} // namespace

std::vector<ProbeResult>
best_in_window(const std::vector<Probe> &probes, double seconds,
               std::size_t minReps)
{
    std::vector<ProbeResult> out(probes.size());
    if (probes.empty()) return out;
    minReps = std::max<std::size_t>(minReps, 1);
    // Each probe's fastest whole rep so far, warm-up included: what a
    // round gives it to match the slowest probe.
    std::vector<double> rep(probes.size());
    for (std::size_t i = 0; i < probes.size(); ++i) {
        rep[i] = run_rep(probes[i], nullptr);
    }
    auto shortOfReps = [&] {
        return std::any_of(out.begin(), out.end(), [&](const auto &r) {
            return r.reps < minReps;
        });
    };
    auto t0 = Clock::now();
    while (shortOfReps() || seconds_since(t0) < seconds) {
        double slowest = *std::max_element(rep.begin(), rep.end());
        for (std::size_t i = 0; i < probes.size(); ++i) {
            auto n = std::max<long long>(
                1, std::llround(slowest / std::max(rep[i], 1e-9)));
            for (long long k = 0; k < n; ++k) {
                rep[i] = std::min(rep[i], run_rep(probes[i], &out[i]));
            }
        }
    }
    return out;
}

std::string
git_describe()
{
    return run_git("git describe --always --dirty 2>/dev/null");
}

std::string
git_sha()
{
    return run_git("git rev-parse HEAD 2>/dev/null");
}

Harness::Harness(std::string name, int argc, char **argv)
    : name_(std::move(name))
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--no-json") writeJson_ = false;
    }
    std::string dir;
    if (const char *env = std::getenv("POSEIDON_BENCH_DIR")) dir = env;
    if (!dir.empty() && dir.back() != '/') dir += '/';
    outPath_ = dir + "BENCH_" + name_ + ".json";
    // Provenance: which host-kernel ISA level timed this run. Config
    // entries are not diffed by the regression gate, so the stamp is
    // informational (the gated metrics are level-relative ratios).
    config_.set("simd",
                telemetry::Json(std::string(
                    kernels::level_name(kernels::active_level()))));
}

void
Harness::config(const std::string &key, telemetry::Json v)
{
    config_.set(key, std::move(v));
}

void
Harness::metric(const std::string &key, double v)
{
    metrics_.set(key, telemetry::Json(v));
}

void
Harness::set_hw_config_name(std::string name)
{
    hwConfigName_ = std::move(name);
}

void
Harness::tsdb_stamp(double cadenceCycles, std::size_t seriesCount)
{
    hasTsdb_ = true;
    tsdb_ = telemetry::Json::object();
    tsdb_.set("cadence_cycles", telemetry::Json(cadenceCycles));
    tsdb_.set("series",
              telemetry::Json(static_cast<u64>(seriesCount)));
}

void
Harness::record_sim(const std::string &prefix, const hw::SimResult &r,
                    const hw::HwConfig &cfg)
{
    metric(prefix + ".cycles", r.cycles);
    metric(prefix + ".seconds", r.seconds);
    metric(prefix + ".bandwidth_util", r.bandwidth_utilization(cfg));
    totalCycles_ += r.cycles;
    totalSeconds_ += r.seconds;
    totalBytes_ += static_cast<double>(r.bytesRead + r.bytesWritten);
    peakGBps_ = cfg.hbmPeakGBps;
}

int
Harness::finish(int rc)
{
    if (finished_ || !writeJson_) return rc;
    finished_ = true;

    double util = 0.0;
    if (totalSeconds_ > 0.0 && peakGBps_ > 0.0) {
        util = totalBytes_ / (totalSeconds_ * peakGBps_ * 1e9);
    }

    telemetry::Json root = telemetry::Json::object();
    root.set("schema_version", telemetry::Json(2));
    root.set("name", telemetry::Json(name_));
    root.set("git", telemetry::Json(git_describe()));
    root.set("git_sha", telemetry::Json(git_sha()));
    root.set("threads",
             telemetry::Json(
                 static_cast<u64>(parallel::num_threads())));
    root.set("hw_config", telemetry::Json(hwConfigName_));
    if (hasTsdb_) root.set("tsdb", tsdb_);
    root.set("config", config_);
    root.set("metrics", metrics_);
    root.set("cycles", telemetry::Json(totalCycles_));
    root.set("seconds", telemetry::Json(totalSeconds_));
    root.set("bandwidth_util", telemetry::Json(util));

    std::ofstream out(outPath_);
    if (!out) {
        std::fprintf(stderr, "bench harness: cannot write %s\n",
                     outPath_.c_str());
        return 1;
    }
    out << root.dump(2) << "\n";
    std::printf("\n[bench] wrote %s\n", outPath_.c_str());
    return rc;
}

} // namespace poseidon::bench
