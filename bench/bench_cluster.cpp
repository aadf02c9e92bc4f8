// Cluster-scale closed-loop benchmark: sweeps fleet width (simulated
// hosts behind the two-level router) against placement policy and
// reports simulated throughput, p99 latency, key-cache locality hit
// rate, fairness, and the modeled key-transfer traffic.
//
// Every number is on the modeled 300 MHz accelerator clock, so
// results are bit-identical across host machines and POSEIDON_THREADS
// settings — which the in-binary byte-identity gate asserts directly
// by re-running a chaos-bearing cell at 1 and 4 host threads and
// comparing the cluster journal and merged TSDB dumps byte for byte.
//
// In-binary gates (exit 1 on violation):
//   * conservation: every admitted job reaches exactly one verdict
//   * locality beats random placement on worst-tenant p99 latency
//   * locality hit rate on the widest sweep cell stays above floor
//   * per-tenant fairness (Jain index) stays above floor
//   * journal + TSDB dumps byte-identical at POSEIDON_THREADS 1 vs 4
//   * host cost per job stays flat: the host wall time per job of a
//     16,384-job locality cell is at most 3x that of a 1,024-job cell
//     (8 hosts, 16 closed-loop clients, 64 vs 1024 requests each)
//   * heap allocations per job of the 1,024-job cell, counted at one
//     host thread (where the count is deterministic), stay at or
//     below kMaxAllocsPerJob
//
// Flags: --smoke (small sweep for CI), --hosts=<n> (single-cell
// exploration), --placement=<locality|round-robin|random|least-loaded>,
// --autoscale (gauge-driven host scaling in every cell).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_harness.h"
#include "cluster/cluster.h"
#include "common/parallel.h"
#include "common/table.h"
#include "isa/compiler.h"
#include "telemetry/text_format.h"

using namespace poseidon;

namespace {

/// Every `new` this binary makes, counted by the replacement below.
std::atomic<std::uint64_t> gAllocs{0};

} // namespace

// Counting global allocation functions (this binary only). The array
// and nothrow forms forward here; aligned forms are not counted.
void*
operator new(std::size_t n)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

/// Gate on scaling.allocs_per_job: 59.88 measured (GCC 12 libstdc++)
/// once the per-job path lost its metric name lookups, per-tag maps
/// and repeated trace walks, rounded up to a multiple of 5, so the
/// count cannot creep back up silently.
constexpr double kMaxAllocsPerJob = 60.0;

/// One client request: a keyswitch-bearing op mix at a medium shape.
isa::Trace
request_trace(unsigned sizeClass)
{
    isa::OpShape s;
    s.n = u64(1) << 13;
    s.limbs = 8 + 4 * sizeClass;
    s.dnum = 2;
    s.K = 4 + 2 * sizeClass;
    isa::Trace t;
    isa::emit_cmult(t, s);
    isa::emit_rotation(t, s);
    return t;
}

/// Modeled per-tenant evaluation-key footprint: one paper-scale
/// keyswitch key set (N = 2^16, 44 limbs, dnum 3) plus eight rotation
/// keys of the same shape.
double
tenant_key_bytes()
{
    return hw::eval_key_bytes(65536.0, 44.0, 3.0, 1.0) * 8.0;
}

struct CellSpec
{
    std::size_t hosts = 8;
    std::size_t clients = 16; ///< one tenant per client
    u64 perClient = 500;
    cluster::Placement placement = cluster::Placement::Locality;
    bool autoscale = false;
    bool telemetry = false; ///< cluster+host journals and TSDBs
    bool journals = false;  ///< cluster+host journals only
    std::string hostChaos;
};

struct CellResult
{
    cluster::ClusterStats stats;
    double throughput = 0.0; ///< completed jobs per simulated second
    double worstP99Us = 0.0; ///< worst tenant p99, simulated us
    double jain = 0.0;       ///< fairness over per-tenant p99
    std::string journalJsonl;
    std::string tsdbJsonl;
    std::size_t tsdbSeries = 0;
};

cluster::ClusterConfig
cell_config(const CellSpec &spec)
{
    cluster::ClusterConfig cfg;
    cfg.hosts = spec.hosts;
    cfg.placement = spec.placement;
    cfg.host.cards = 4;
    cfg.defaultKeyBytes = tenant_key_bytes();
    // Size each host's key cache to ~4 tenants, so placement policy
    // decides whether key uploads keep happening: locality pins a
    // tenant to its key host, random keeps missing once the tenant
    // count per host outgrows the cache.
    cfg.keyCacheShare =
        4.0 * cfg.defaultKeyBytes /
        (static_cast<double>(cfg.host.cards) *
         cfg.host.card.hbm_capacity_bytes());
    cfg.hostChaos = spec.hostChaos;
    cfg.journal = spec.telemetry || spec.journals;
    cfg.host.journal = spec.telemetry || spec.journals;
    cfg.host.tsdbCadenceCycles = spec.telemetry ? 1e5 : 0.0;
    cfg.exportTelemetry = false;
    if (spec.autoscale) {
        cfg.autoscale.enabled = true;
        cfg.autoscale.minHosts = std::max<std::size_t>(1, spec.hosts / 2);
        cfg.autoscale.scaleUpPressure = 0.6;
        cfg.autoscale.scaleDownPressure = 0.05;
        cfg.autoscale.windowCycles = 1e6;
        cfg.autoscale.cooldownCycles = 5e5;
        cfg.autoscale.spinUpCycles = 1e6;
    }
    return cfg;
}

/// Jain fairness index over a positive sample: (sum x)^2 / (n sum x^2),
/// 1.0 = perfectly even, 1/n = one tenant takes everything.
double
jain_index(const std::vector<double> &xs)
{
    if (xs.empty()) return 1.0;
    double s = 0.0;
    double s2 = 0.0;
    for (double x : xs) {
        s += x;
        s2 += x * x;
    }
    if (s2 <= 0.0) return 1.0;
    return s * s / (static_cast<double>(xs.size()) * s2);
}

CellResult
run_cell(const CellSpec &spec)
{
    cluster::ClusterRouter router(cell_config(spec));

    struct Client
    {
        std::string tenant;
        unsigned sizeClass = 0;
        u64 remaining = 0;
    };
    std::vector<Client> cs(spec.clients);
    for (std::size_t i = 0; i < spec.clients; ++i) {
        cs[i].tenant = "tenant" + std::to_string(i);
        cs[i].sizeClass = static_cast<unsigned>(i % 3);
        cs[i].remaining = spec.perClient;
    }

    std::function<void(std::size_t, double)> feed =
        [&](std::size_t i, double arrival) {
            Client &c = cs[i];
            if (c.remaining == 0) return;
            --c.remaining;
            serve::JobSpec s;
            s.tenant = c.tenant;
            s.name = "client" + std::to_string(i);
            s.trace = request_trace(c.sizeClass);
            s.arrivalCycle = arrival;
            s.callback = [&feed, i](const serve::JobResult &r) {
                feed(i, r.finishCycle);
            };
            router.submit(std::move(s));
        };
    for (std::size_t i = 0; i < spec.clients; ++i) feed(i, 0.0);
    router.drain();

    CellResult out;
    out.stats = router.stats();
    if (out.stats.horizonCycles > 0.0) {
        out.throughput = static_cast<double>(out.stats.completed) /
                         (out.stats.horizonCycles /
                          (out.stats.clockGHz * 1e9));
    }
    double toUs = 1e6 / (out.stats.clockGHz * 1e9);
    std::vector<double> p99s;
    for (const auto &[tenant, t] : out.stats.tenants) {
        (void)tenant;
        if (t.completed == 0) continue;
        p99s.push_back(t.p99LatencyCycles);
        out.worstP99Us =
            std::max(out.worstP99Us, t.p99LatencyCycles * toUs);
    }
    out.jain = jain_index(p99s);
    if (spec.telemetry) {
        out.journalJsonl = router.journal().to_jsonl();
        telemetry::Tsdb merged = router.cluster_tsdb();
        out.tsdbJsonl = merged.to_jsonl();
        out.tsdbSeries = merged.series_count();
    }
    return out;
}

/// The locality cell the host-cost gates run (8 hosts, 16 clients)
/// with its lifecycle journals on, as a router is configured by
/// default.
CellSpec
scaling_cell(u64 perClient)
{
    CellSpec spec;
    spec.hosts = 8;
    spec.clients = 16;
    spec.perClient = perClient;
    spec.journals = true;
    return spec;
}

/// Heap allocations per job of the 1,024-job scaling_cell on one host
/// thread: pricing then runs inline, so the count does not depend on
/// scheduling.
double
allocs_per_job()
{
    parallel::set_num_threads(1);
    std::uint64_t before = gAllocs.load(std::memory_order_relaxed);
    CellResult res = run_cell(scaling_cell(64));
    std::uint64_t after = gAllocs.load(std::memory_order_relaxed);
    parallel::set_num_threads(0);
    return static_cast<double>(after - before) /
           static_cast<double>(res.stats.submitted);
}

std::string
fmt(double v, const char *suffix = "")
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.1f%s", v, suffix);
    return buf;
}

void
write_artifact(const bench::Harness &h, const char *name,
               const std::string &text)
{
    if (text.empty()) return;
    const std::string &out = h.output_path();
    std::size_t slash = out.find_last_of('/');
    std::string path =
        (slash == std::string::npos ? "" : out.substr(0, slash + 1)) +
        name;
    std::ofstream f(path, std::ios::binary);
    if (f) f << text;
    if (!f) {
        std::fprintf(stderr, "bench_cluster: cannot write %s\n",
                     path.c_str());
    } else {
        std::printf("[bench] wrote %s\n", path.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const char *kUsage =
        "usage: bench_cluster [--smoke] [--hosts=N] "
        "[--placement=locality|round-robin|random|least-loaded] "
        "[--autoscale] [--no-json]\n";
    bool smoke = false;
    bool autoscale = false;
    std::size_t onlyHosts = 0;
    cluster::Placement onlyPlacement = cluster::Placement::Locality;
    bool placementForced = false;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(a, "--autoscale") == 0) {
            autoscale = true;
        } else if (std::strncmp(a, "--hosts=", 8) == 0) {
            try {
                onlyHosts = telemetry::parse_integer<std::size_t>(
                    a + 8, "--hosts");
            } catch (const InvalidArgument &) {
                onlyHosts = 0;
            }
            if (onlyHosts == 0) {
                std::fprintf(stderr,
                             "bench_cluster: --hosts wants a positive "
                             "integer, got \"%s\"\n%s",
                             a + 8, kUsage);
                return 2;
            }
        } else if (std::strncmp(a, "--placement=", 12) == 0) {
            if (!cluster::placement_from_string(a + 12,
                                                onlyPlacement)) {
                std::fprintf(stderr,
                             "bench_cluster: unknown placement "
                             "\"%s\"\n",
                             a + 12);
                return 1;
            }
            placementForced = true;
        }
    }

    bench::Harness h("cluster", argc, argv);
    std::vector<std::size_t> hostSweep =
        smoke ? std::vector<std::size_t>{2, 4}
              : std::vector<std::size_t>{8, 16, 32};
    if (onlyHosts > 0) hostSweep = {onlyHosts};
    // Deep enough per client that the one legitimate key upload a
    // locality-placed tenant pays falls below its p99 (> 100 requests
    // per tenant), so the policy gate compares steady-state tails.
    const u64 perClient = smoke ? 120 : 500;
    std::vector<cluster::Placement> placements = {
        cluster::Placement::Locality, cluster::Placement::Random};
    if (placementForced) placements = {onlyPlacement};
    // Comparative gates need both policies over the standard sweep.
    const bool gated = !placementForced && onlyHosts == 0;

    h.config("hosts", [&] {
        telemetry::Json a = telemetry::Json::array();
        for (std::size_t n : hostSweep)
            a.push_back(telemetry::Json(static_cast<u64>(n)));
        return a;
    }());
    h.config("requests_per_client",
             telemetry::Json(perClient));
    h.config("cards_per_host", telemetry::Json(4));
    h.config("tenant_key_bytes", telemetry::Json(tenant_key_bytes()));
    h.config("autoscale", telemetry::Json(autoscale));

    AsciiTable table("Cluster closed-loop: placement policy x fleet "
                     "width (simulated time)");
    table.header({"placement", "hosts", "jobs", "throughput (jobs/s)",
                  "worst p99 (us)", "locality hits", "key uploads",
                  "jain(p99)"});

    u64 totalJobs = 0;
    bool conserved = true;
    // [placement][host index] -> worst p99 us.
    std::map<cluster::Placement, std::vector<double>> p99ByPolicy;
    double widestLocalityHitRate = -1.0;
    double widestJain = -1.0;
    for (cluster::Placement p : placements) {
        for (std::size_t hi = 0; hi < hostSweep.size(); ++hi) {
            CellSpec spec;
            spec.hosts = hostSweep[hi];
            spec.clients = 2 * hostSweep[hi];
            spec.perClient = perClient;
            spec.placement = p;
            spec.autoscale = autoscale;
            CellResult r = run_cell(spec);
            totalJobs += r.stats.submitted;
            conserved = conserved && r.stats.conserved();
            p99ByPolicy[p].push_back(r.worstP99Us);
            std::string key = std::string(cluster::to_string(p)) +
                              ".h" + std::to_string(spec.hosts);
            h.metric(key + ".throughput_jobs_per_sec", r.throughput);
            h.metric(key + ".worst_p99_us", r.worstP99Us);
            h.metric(key + ".locality_hit_rate",
                     r.stats.locality_hit_rate());
            h.metric(key + ".key_transfers",
                     static_cast<double>(r.stats.keyTransfers));
            h.metric(key + ".key_transfer_bytes",
                     r.stats.keyTransferBytes);
            h.metric(key + ".jain_p99", r.jain);
            if (autoscale) {
                h.metric(key + ".scale_ups",
                         static_cast<double>(r.stats.scaleUps));
                h.metric(key + ".scale_downs",
                         static_cast<double>(r.stats.scaleDowns));
            }
            table.row({cluster::to_string(p),
                       std::to_string(spec.hosts),
                       std::to_string(r.stats.completed),
                       fmt(r.throughput), fmt(r.worstP99Us),
                       fmt(100.0 * r.stats.locality_hit_rate(), "%"),
                       std::to_string(r.stats.keyTransfers),
                       fmt(r.jain)});
            if (p == cluster::Placement::Locality &&
                hi + 1 == hostSweep.size()) {
                widestLocalityHitRate = r.stats.locality_hit_rate();
                widestJain = r.jain;
            }
        }
    }
    table.print();
    h.metric("total_jobs", static_cast<double>(totalJobs));

    // Byte-identity cell: host death + autoscale + full telemetry,
    // re-run at 1 and 4 host threads; the dumps must match byte for
    // byte (the cluster determinism contract, DESIGN.md §16).
    CellSpec idSpec;
    idSpec.hosts = 4;
    idSpec.clients = 8;
    idSpec.perClient = 25;
    idSpec.placement = cluster::Placement::Locality;
    idSpec.telemetry = true;
    idSpec.hostChaos = "HostDeath{host=1, cycle=2e6}";
    parallel::set_num_threads(1);
    CellResult serial = run_cell(idSpec);
    parallel::set_num_threads(4);
    CellResult threaded = run_cell(idSpec);
    parallel::set_num_threads(0);
    totalJobs += serial.stats.submitted + threaded.stats.submitted;
    conserved = conserved && serial.stats.conserved() &&
                threaded.stats.conserved();
    bool byteIdentical =
        !serial.journalJsonl.empty() &&
        serial.journalJsonl == threaded.journalJsonl &&
        serial.tsdbJsonl == threaded.tsdbJsonl;
    h.metric("identity.jobs",
             static_cast<double>(serial.stats.submitted));
    h.metric("identity.reroutes",
             static_cast<double>(serial.stats.rerouted));
    h.metric("identity.byte_identical", byteIdentical ? 1.0 : 0.0);
    h.tsdb_stamp(1e5, serial.tsdbSeries);
    write_artifact(h, "JOURNAL_cluster.jsonl", serial.journalJsonl);
    write_artifact(h, "TSDB_cluster.jsonl", serial.tsdbJsonl);

    // Host-cost scaling: per-job wall time must not grow with the
    // number of jobs the cell has already served. The two cells are
    // interleaved probes of one window, so noise from other processes
    // on the machine hits both alike.
    u64 jobsSmall = 0, jobsLarge = 0;
    auto best = bench::best_in_window(
        {{"jobs1024",
          [&] { jobsSmall = run_cell(scaling_cell(64)).stats.submitted; }},
         {"jobs16384",
          [&] {
              jobsLarge = run_cell(scaling_cell(1024)).stats.submitted;
          }}},
        /*seconds=*/0.3, /*minReps=*/2);
    const double usSmall =
        1e6 * best[0].seconds / static_cast<double>(jobsSmall);
    const double usLarge =
        1e6 * best[1].seconds / static_cast<double>(jobsLarge);
    const double scaling = usLarge / usSmall;
    const double allocs = allocs_per_job();
    h.metric("scaling.host_us_per_job.jobs1024", usSmall);
    h.metric("scaling.host_us_per_job.jobs16384", usLarge);
    h.metric("scaling.ratio", scaling);
    h.metric("scaling.allocs_per_job", allocs);
    std::printf("\nHost wall time per job (locality, 8 hosts, 16 "
                "clients): %.1f us at 1,024 jobs, %.1f us at 16,384 "
                "jobs, ratio %.2f\n",
                usSmall, usLarge, scaling);
    std::printf("Heap allocations per job (1,024 jobs, one host "
                "thread): %.2f (gate %.0f)\n",
                allocs, kMaxAllocsPerJob);

    int rc = 0;
    if (scaling > 3.0) {
        std::fprintf(stderr,
                     "FAIL: host cost per job grew %.2fx from 1,024 to "
                     "16,384 jobs (gate 3x)\n",
                     scaling);
        rc = 1;
    }
    if (allocs > kMaxAllocsPerJob) {
        std::fprintf(stderr,
                     "FAIL: %.2f heap allocations per job, above the "
                     "gate of %.0f\n",
                     allocs, kMaxAllocsPerJob);
        rc = 1;
    }
    if (!conserved) {
        std::fprintf(stderr, "FAIL: cluster journal conservation "
                             "violated (submitted != resolved)\n");
        rc = 1;
    }
    if (!byteIdentical) {
        std::fprintf(stderr,
                     "FAIL: cluster journal/TSDB dumps differ "
                     "between POSEIDON_THREADS 1 and 4\n");
        rc = 1;
    }
    if (gated) {
        double locP99 =
            p99ByPolicy[cluster::Placement::Locality].back();
        double rndP99 = p99ByPolicy[cluster::Placement::Random].back();
        h.metric("gate.locality_p99_us", locP99);
        h.metric("gate.random_p99_us", rndP99);
        std::printf("\nWidest cell p99: locality %.1f us vs random "
                    "%.1f us; locality hit rate %.1f%%, jain %.2f\n",
                    locP99, rndP99, 100.0 * widestLocalityHitRate,
                    widestJain);
        if (locP99 >= rndP99) {
            std::fprintf(stderr,
                         "FAIL: locality placement p99 %.1f us not "
                         "below random %.1f us\n",
                         locP99, rndP99);
            rc = 1;
        }
        if (widestLocalityHitRate < 0.7) {
            std::fprintf(stderr,
                         "FAIL: locality hit rate %.2f below 0.7\n",
                         widestLocalityHitRate);
            rc = 1;
        }
        if (widestJain < 0.6) {
            std::fprintf(stderr,
                         "FAIL: fairness (jain over tenant p99) "
                         "%.2f below 0.6\n",
                         widestJain);
            rc = 1;
        }
        if (!smoke && totalJobs < 100000) {
            std::fprintf(stderr,
                         "FAIL: sweep ran %llu jobs, below the 1e5 "
                         "floor\n",
                         static_cast<unsigned long long>(totalJobs));
            rc = 1;
        }
    }
    return h.finish(rc);
}
