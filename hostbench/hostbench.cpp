// Host wall-clock benchmark of the Poseidon reproduction: single-thread
// CKKS keyswitch and bootstrap latency plus cluster-simulator
// throughput, with a separate traced run that splits each request into
// its layers.
//
//   hostbench --workload <hybrid|classic> --seed <n> --seconds <s>
//             --trace <0|1> [--spans <file>]
//
// Set-up (contexts, keys, bootstrapper, request programs) is built
// five times over the run and reported as the median. After each
// set-up the measured loop runs the three request families
// interleaved in rounds — one bootstrap, then about a quarter of its
// wall time each of keyswitch requests and of cluster cells — for a
// fifth of --seconds, checking every output. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are each family's fastest
// request; with --trace 1 they are the per-layer medians of the span
// log, which --spans also writes out.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "families.h"

using namespace hostbench;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupRepeats = 5;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty()) return std::nan("");
    std::sort(v.begin(), v.end());
    std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansPath;
};

bool
parse_args(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const char *k = argv[i];
        const char *v = argv[i + 1];
        if (std::strcmp(k, "--workload") == 0) {
            a.workload = v;
        } else if (std::strcmp(k, "--seed") == 0) {
            a.seed = std::strtoull(v, nullptr, 10);
        } else if (std::strcmp(k, "--seconds") == 0) {
            a.seconds = std::atof(v);
        } else if (std::strcmp(k, "--trace") == 0) {
            a.trace = std::strcmp(v, "0") != 0;
        } else if (std::strcmp(k, "--spans") == 0) {
            a.spansPath = v;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

/// Everything one run measures, built in one go.
struct Families
{
    KeyswitchFamily keyswitch;
    BootstrapFamily bootstrap;
    ClusterFamily cluster;

    Families(const Workload &w, u64 seed)
        : keyswitch(w, seed), bootstrap(w, seed), cluster(w, seed)
    {}
};

struct Tally
{
    u64 attempted = 0;
    u64 failed = 0;

    void
    add(bool ok)
    {
        ++attempted;
        if (!ok) ++failed;
    }
};

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
print_result(const Tally &t, const std::vector<Metric> &metrics)
{
    bool correct = t.failed == 0;
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(t.attempted);
    out += ", \"failed\": " + std::to_string(t.failed);
    out += ", \"metrics\": {";
    char buf[256];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit);
        out += buf;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

/// Requests per round, sized from one warm-up request of each family:
/// one bootstrap, then about a quarter of its wall time each of
/// keyswitch requests and of cluster cells, so bootstraps (the longest
/// and fewest requests) get two thirds of the run.
struct RoundShape
{
    u64 keyswitch = 1;
    u64 cluster = 1;
};

RoundShape
warm_up(Families &f, Tally &tally)
{
    double ks = 0.0, boot = 0.0, cell = 0.0;
    tally.add(f.keyswitch.request(0, ks));
    tally.add(f.bootstrap.request(0, boot));
    tally.add(f.cluster.request(0, cell));
    auto share = [&](double request) {
        return std::max<u64>(1, static_cast<u64>(std::lround(boot / 4.0 /
                                                             request)));
    };
    return {share(ks), share(cell)};
}

/// What the measured rounds collect: per-request wall seconds with
/// tracing off, or the span log with tracing on.
struct Measurement
{
    SpanLog *log = nullptr;
    std::vector<double> keyswitch, bootstrap, cell;
    /// Requests issued, in total (the span log's request id) and per
    /// family (the family's request index).
    u64 requests = 0;
    u64 keyswitchIndex = 0, bootstrapIndex = 0, cellIndex = 0;
};

void
run_rounds(Families &f, const RoundShape &shape, double seconds,
           Measurement &m, Tally &tally)
{
    auto one = [&](auto &family, u64 &index, std::vector<double> &out) {
        ++index;
        if (m.log) {
            m.log->begin_request(++m.requests);
            tally.add(family.traced_request(index, *m.log));
        } else {
            double s = 0.0;
            tally.add(family.request(index, s));
            out.push_back(s);
        }
    };
    auto t0 = Clock::now();
    while (seconds_since(t0) < seconds) {
        one(f.bootstrap, m.bootstrapIndex, m.bootstrap);
        for (u64 k = 0; k < shape.keyswitch; ++k) {
            one(f.keyswitch, m.keyswitchIndex, m.keyswitch);
        }
        for (u64 k = 0; k < shape.cluster; ++k) {
            one(f.cluster, m.cellIndex, m.cell);
        }
    }
}

/// The end-to-end figures are each family's fastest request. Other
/// tenants of a shared host slow whole stretches of a run at once, and
/// only ever slow it, so the fastest of many interleaved requests is the
/// figure that repeats from run to run; the quartiles go to stderr.
std::vector<Metric>
end_to_end(const Measurement &m, double jobsPerCell, double setupS)
{
    for (auto [name, v] : {std::pair{"keyswitch", m.keyswitch},
                           std::pair{"bootstrap", m.bootstrap},
                           std::pair{"cluster cell", m.cell}}) {
        std::sort(v.begin(), v.end());
        std::fprintf(stderr,
                     "hostbench: %-12s n=%-5zu seconds: min %.5g  p25 %.5g  "
                     "p50 %.5g  p75 %.5g  max %.5g\n",
                     name, v.size(), v.front(), v[v.size() / 4],
                     v[v.size() / 2], v[3 * v.size() / 4], v.back());
    }
    auto fastest = [](const std::vector<double> &v) {
        return *std::min_element(v.begin(), v.end());
    };
    return {
        {"cmult_rotate_best_ms", 1e3 * fastest(m.keyswitch), "ms"},
        {"bootstrap_best_ms", 1e3 * fastest(m.bootstrap), "ms"},
        {"cluster_peak_jobs_per_s", jobsPerCell / fastest(m.cell), "1/s"},
        {"setup_s", setupS, "s"},
    };
}

/// Median over pairs a[k] - b[k].
double
median_difference(const std::vector<double> &a, const std::vector<double> &b)
{
    std::vector<double> d;
    for (std::size_t k = 0; k < std::min(a.size(), b.size()); ++k) {
        d.push_back(a[k] - b[k]);
    }
    return median(d);
}

/// Median over pairs a[k] / b[k].
double
median_ratio(const std::vector<double> &a, const std::vector<double> &b)
{
    std::vector<double> r;
    for (std::size_t k = 0; k < std::min(a.size(), b.size()); ++k) {
        r.push_back(a[k] / b[k]);
    }
    return median(r);
}

std::vector<Metric>
per_layer(const SpanLog &log, double jobsPerCell, double engineJobs)
{
    auto us = [&](const char *span) { return median(log.durations(span)); };
    auto ms = [&](const char *span) { return 1e-3 * us(span); };
    auto sampled = [&](const char *name) {
        return median(log.samples(name));
    };
    return {
        // CKKS keyswitch request and the layers under it.
        {"ntt_forward_us", us("ntt.forward"), "us"},
        {"ntt_inverse_us", us("ntt.inverse"), "us"},
        {"moddown_us", us("rns.moddown"), "us"},
        {"automorphism_us", us("poly.automorphism"), "us"},
        {"keyswitch_us", us("ckks.keyswitch"), "us"},
        {"mul_tensor_us",
         median_difference(log.durations("ks.mul_relin"),
                           log.samples("ks.mul_keyswitch_us")),
         "us"},
        {"rescale_us", us("ks.rescale"), "us"},
        {"rotate_us", us("ks.rotate"), "us"},
        // Bootstrap stages.
        {"boot_mod_raise_ms", ms("boot.mod_raise"), "ms"},
        {"boot_coeff_to_slot_ms", ms("boot.coeff_to_slot"), "ms"},
        {"boot_eval_mod_ms", ms("boot.eval_mod"), "ms"},
        {"boot_slot_to_coeff_ms", ms("boot.slot_to_coeff"), "ms"},
        {"boot_keyswitches", sampled("boot.keyswitches"), "count"},
        {"boot_plain_mults", sampled("boot.plain_mults"), "count"},
        {"encode_us", us("ckks.encode"), "us"},
        {"boot_keyswitch_share",
         median_ratio(log.samples("boot.keyswitch_us"),
                      log.durations("boot.request")),
         "ratio"},
        // Cluster simulator: router, one host's engine, the accelerator
        // model, the ISA compiler.
        {"router_us_per_job", us("cluster.drain") / jobsPerCell, "us"},
        {"engine_us_per_job", us("serve.engine_drain") / engineJobs, "us"},
        {"sim_run_us", us("hw.sim_run"), "us"},
        {"isa_compile_us", us("isa.compile"), "us"},
        {"locality_hit_rate", sampled("cluster.locality_hit_rate"),
         "ratio"},
        {"key_transfers", sampled("cluster.key_transfers"), "count"},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    Workload w;
    if (!parse_args(argc, argv, args) || !find_workload(args.workload, w)) {
        std::string names;
        for (const std::string &n : workload_names()) {
            names += (names.empty() ? "" : "|") + n;
        }
        std::fprintf(stderr,
                     "usage: hostbench --workload <%s> --seed <n> "
                     "--seconds <s> --trace <0|1> [--spans <file>]\n",
                     names.c_str());
        return 2;
    }
    // Single-thread host numbers: the pool runs every loop inline.
    poseidon::parallel::set_num_threads(1);

    // The set-ups are spread over the run, each followed by an equal
    // share of the measured rounds, so that a slow stretch of the host
    // reaches only some of them. Each set-up replaces the last one and
    // so starts with nothing cached.
    Tally tally;
    SpanLog log;
    Measurement m;
    if (args.trace) m.log = &log;
    std::vector<double> setup;
    std::unique_ptr<Families> f;
    RoundShape shape;
    for (int r = 0; r < kSetupRepeats; ++r) {
        f.reset();
        auto t0 = Clock::now();
        f = std::make_unique<Families>(w, args.seed);
        setup.push_back(seconds_since(t0));
        if (r == 0) shape = warm_up(*f, tally);
        run_rounds(*f, shape, args.seconds / kSetupRepeats, m, tally);
    }

    double jobsPerCell = static_cast<double>(f->cluster.jobs_per_cell());
    std::vector<Metric> metrics;
    if (args.trace) {
        metrics = per_layer(log, jobsPerCell,
                            static_cast<double>(f->cluster.engine_jobs()));
        if (!args.spansPath.empty()) {
            std::ofstream out(args.spansPath, std::ios::binary);
            out << log.to_jsonl();
            if (!out) {
                std::fprintf(stderr, "hostbench: cannot write %s\n",
                             args.spansPath.c_str());
                return 1;
            }
        }
    } else {
        metrics = end_to_end(m, jobsPerCell, median(setup));
    }
    for (const Metric &metric : metrics) {
        std::fprintf(stderr, "  %-24s %14.4f %s\n", metric.name.c_str(),
                     metric.value, metric.unit);
    }
    print_result(tally, metrics);
    return tally.failed == 0 ? 0 : 1;
}
