#include "families.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <optional>
#include <tuple>

#include "common/prng.h"
#include "hw/config.h"
#include "isa/compiler.h"
#include "poly/automorphism.h"
#include "telemetry/metrics.h"

namespace hostbench {

using namespace poseidon;

namespace {

using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Independent stream for one (seed, purpose) pair.
u64
derive(u64 seed, u64 purpose)
{
    Prng p(seed * 0x9E3779B97F4A7C15ULL + purpose);
    return p.next();
}

/// Special primes for `digits`-way hybrid keyswitching over `limbs`
/// ciphertext primes: at least the primes per digit (1 when classic).
std::size_t
special_primes(std::size_t limbs, std::size_t dnum)
{
    return dnum == 0 ? 1 : (limbs + dnum - 1) / dnum;
}

std::vector<cdouble>
random_message(Prng &prng, std::size_t n, double half)
{
    std::vector<cdouble> v(n);
    for (auto &x : v) {
        double re = (2.0 * prng.uniform_double() - 1.0) * half;
        double im = (2.0 * prng.uniform_double() - 1.0) * half;
        x = cdouble(re, im);
    }
    return v;
}

double
max_err(const std::vector<cdouble> &want, const std::vector<cdouble> &got)
{
    double m = 0.0;
    for (std::size_t i = 0; i < want.size(); ++i) {
        m = std::max(m, std::abs(want[i] - got[i]));
    }
    return m;
}

/// Evaluator operation counts and summed keyswitch wall time, as the
/// evaluator itself records them.
struct OpTally
{
    double keyswitches = 0.0;
    double keyswitchUs = 0.0;
    double plainMults = 0.0;

    static OpTally
    now()
    {
        auto &reg = telemetry::MetricsRegistry::global();
        return {reg.counter_value("ckks.ops.keyswitch"),
                reg.histogram("ckks.keyswitch_us").sum(),
                reg.counter_value("ckks.ops.mul_plain")};
    }
};

const std::vector<Workload>&
workloads()
{
    static const std::vector<Workload> kAll = {
        {"hybrid", 3},
        {"classic", 0},
    };
    return kAll;
}

} // namespace

bool
find_workload(const std::string &name, Workload &out)
{
    for (const Workload &w : workloads()) {
        if (w.name == name) {
            out = w;
            return true;
        }
    }
    return false;
}

std::vector<std::string>
workload_names()
{
    std::vector<std::string> names;
    for (const Workload &w : workloads()) names.push_back(w.name);
    return names;
}

// ---------------------------------------------------------------- keyswitch

namespace {

constexpr std::size_t kRotationKeys = 4;

} // namespace

KeyswitchFamily::KeyswitchFamily(const Workload &w, u64 seed)
{
    CkksParams p;
    p.logN = 13;
    p.L = 12;
    p.dnum = w.dnum;
    p.K = special_primes(p.L, w.dnum);
    p.seed = derive(seed, 1);
    ctx_ = make_ckks_context(p);
    keygen_ = std::make_unique<KeyGenerator>(ctx_);
    encoder_ = std::make_unique<CkksEncoder>(ctx_);
    encryptor_ = std::make_unique<CkksEncryptor>(
        ctx_, keygen_->make_public_key(), derive(seed, 2));
    decryptor_ = std::make_unique<CkksDecryptor>(ctx_,
                                                 keygen_->secret_key());
    eval_ = std::make_unique<CkksEvaluator>(ctx_);
    relin_ = keygen_->make_relin_key();

    Prng prng(derive(seed, 3));
    std::size_t ns = ctx_->slots();
    while (steps_.size() < kRotationKeys) {
        long s = 1 + static_cast<long>(prng.uniform(ns - 1));
        if (std::find(steps_.begin(), steps_.end(), s) == steps_.end()) {
            steps_.push_back(s);
        }
    }
    galois_ = keygen_->make_galois_keys(steps_);
    za_ = random_message(prng, ns, 1.0);
    zb_ = random_message(prng, ns, 1.0);
    a_ = encryptor_->encrypt(encoder_->encode(za_, p.L));
    b_ = encryptor_->encrypt(encoder_->encode(zb_, p.L));

    std::vector<std::size_t> extIdx;
    for (std::size_t i = 0; i < p.L + p.K; ++i) extIdx.push_back(i);
    ext_ = RnsPoly(ctx_->ring(), extIdx, Domain::Coeff);
    for (std::size_t k = 0; k < ext_.num_limbs(); ++k) {
        u64 q = ext_.prime(k);
        u64 *limb = ext_.limb(k);
        for (std::size_t t = 0; t < ctx_->degree(); ++t) {
            limb[t] = prng.uniform(q);
        }
    }
}

bool
KeyswitchFamily::request(u64 i, double &seconds)
{
    long step = steps_[i % steps_.size()];
    auto t0 = Clock::now();
    Ciphertext c = eval_->mul(a_, b_, relin_);
    eval_->rescale_inplace(c);
    Ciphertext r = eval_->rotate(c, step, galois_);
    seconds = seconds_since(t0);
    return check(r, step);
}

bool
KeyswitchFamily::traced_request(u64 i, SpanLog &log)
{
    long step = steps_[i % steps_.size()];
    Ciphertext r;
    {
        SpanLog::Scope req(log, "ks.request");
        Ciphertext c;
        OpTally before = OpTally::now();
        {
            SpanLog::Scope s(log, "ks.mul_relin");
            c = eval_->mul(a_, b_, relin_);
        }
        log.sample("ks.mul_keyswitch_us",
                   OpTally::now().keyswitchUs - before.keyswitchUs);
        {
            SpanLog::Scope s(log, "ks.rescale");
            eval_->rescale_inplace(c);
        }
        {
            SpanLog::Scope s(log, "ks.rotate");
            r = eval_->rotate(c, step, galois_);
        }
    }

    // Layer probes on the same operands: one call into each layer the
    // request crosses.
    std::size_t limbs = a_.num_limbs();
    std::size_t n = ctx_->degree();
    RnsPoly p = a_.c1;
    {
        SpanLog::Scope s(log, "ntt.inverse");
        p.to_coeff();
    }
    {
        SpanLog::Scope s(log, "ntt.forward");
        p.to_eval();
    }
    RnsPoly down = RnsPoly::ct(ctx_->ring(), limbs, Domain::Coeff);
    std::vector<const u64*> xq, xp;
    std::vector<u64*> out;
    for (std::size_t k = 0; k < limbs; ++k) {
        xq.push_back(ext_.limb(k));
        out.push_back(down.limb(k));
    }
    for (std::size_t k = limbs; k < ext_.num_limbs(); ++k) {
        xp.push_back(ext_.limb(k));
    }
    const ModDown &md = ctx_->mod_down(limbs);
    {
        SpanLog::Scope s(log, "rns.moddown");
        md.apply(xq, xp, out, n);
    }
    u64 g = galois_element_for_step(n, step);
    {
        SpanLog::Scope s(log, "poly.automorphism");
        RnsPoly moved = automorphism(a_.c0, g);
    }
    {
        SpanLog::Scope s(log, "ckks.keyswitch");
        auto switched = eval_->keyswitch_core(a_.c1, relin_);
    }
    return check(r, step);
}

bool
KeyswitchFamily::check(const Ciphertext &out, long step) const
{
    std::size_t ns = ctx_->slots();
    std::vector<cdouble> want(ns);
    for (std::size_t j = 0; j < ns; ++j) {
        std::size_t src = (j + static_cast<std::size_t>(step)) % ns;
        want[j] = za_[src] * zb_[src];
    }
    auto got = encoder_->decode(decryptor_->decrypt(out));
    return max_err(want, got) < 1e-3;
}

// ---------------------------------------------------------------- bootstrap

namespace {

constexpr std::size_t kBootInputs = 2;

} // namespace

BootstrapFamily::BootstrapFamily(const Workload &w, u64 seed)
{
    CkksParams p;
    p.logN = 10;
    p.L = 24;
    p.scaleBits = 40;
    p.firstPrimeBits = 45;
    p.specialPrimeBits = 50;
    p.dnum = w.dnum;
    p.K = special_primes(p.L, w.dnum);
    p.seed = derive(seed, 11);
    ctx_ = make_ckks_context(p);
    keygen_ = std::make_unique<KeyGenerator>(ctx_);
    encoder_ = std::make_unique<CkksEncoder>(ctx_);
    encryptor_ = std::make_unique<CkksEncryptor>(
        ctx_, keygen_->make_public_key(), derive(seed, 12));
    decryptor_ = std::make_unique<CkksDecryptor>(ctx_,
                                                 keygen_->secret_key());
    eval_ = std::make_unique<CkksEvaluator>(ctx_);
    boot_ = std::make_unique<Bootstrapper>(ctx_, *encoder_, *keygen_);

    Prng prng(derive(seed, 13));
    for (std::size_t k = 0; k < kBootInputs; ++k) {
        msgs_.push_back(random_message(prng, ctx_->slots(), 0.5));
        inputs_.push_back(encryptor_->encrypt(encoder_->encode(msgs_[k], 1)));
    }
}

bool
BootstrapFamily::request(u64 i, double &seconds)
{
    std::size_t k = i % inputs_.size();
    auto t0 = Clock::now();
    Ciphertext out = boot_->bootstrap(inputs_[k], *eval_);
    seconds = seconds_since(t0);
    return check(out, k);
}

bool
BootstrapFamily::traced_request(u64 i, SpanLog &log)
{
    // The stages Bootstrapper::bootstrap runs, one span each.
    std::size_t k = i % inputs_.size();
    const Ciphertext &in = inputs_[k];
    Ciphertext out;
    OpTally before = OpTally::now();
    {
        SpanLog::Scope req(log, "boot.request");
        Ciphertext raised, lo, hi, mlo, mhi;
        {
            SpanLog::Scope s(log, "boot.mod_raise");
            raised = boot_->mod_raise(in);
        }
        {
            SpanLog::Scope s(log, "boot.coeff_to_slot");
            std::tie(lo, hi) = boot_->coeff_to_slot(raised, *eval_, in.scale);
        }
        {
            SpanLog::Scope s(log, "boot.eval_mod");
            mlo = boot_->eval_mod(lo, *eval_, in.scale);
            mhi = boot_->eval_mod(hi, *eval_, in.scale);
        }
        {
            SpanLog::Scope s(log, "boot.slot_to_coeff");
            out = boot_->slot_to_coeff(mlo, mhi, *eval_);
        }
    }
    OpTally after = OpTally::now();
    log.sample("boot.keyswitches", after.keyswitches - before.keyswitches);
    log.sample("boot.keyswitch_us", after.keyswitchUs - before.keyswitchUs);
    log.sample("boot.plain_mults", after.plainMults - before.plainMults);

    // Probe: one full-chain encoding, the step the linear transforms
    // repeat for every matrix diagonal.
    {
        SpanLog::Scope s(log, "ckks.encode");
        Plaintext pt = encoder_->encode(msgs_[k], ctx_->params().L);
    }
    return check(out, k);
}

bool
BootstrapFamily::check(const Ciphertext &out, std::size_t input) const
{
    if (out.num_limbs() <= 1) return false;
    auto got = encoder_->decode(decryptor_->decrypt(out));
    return max_err(msgs_[input], got) < 5e-2;
}

// ---------------------------------------------------------------- cluster

namespace {

constexpr std::size_t kHosts = 8;
constexpr std::size_t kCardsPerHost = 4;
constexpr std::size_t kClients = 16;
constexpr u64 kJobsPerClient = 64;
constexpr unsigned kSizeClasses = 3;
constexpr u64 kCellVariants = 2;

/// Keyswitch-bearing request program at size class `c`.
isa::Trace
request_trace(unsigned c, std::size_t dnum)
{
    isa::OpShape s;
    s.n = u64(1) << 13;
    s.limbs = 8 + 4 * c;
    s.dnum = dnum;
    s.K = special_primes(s.limbs, dnum);
    isa::Trace t;
    isa::emit_cmult(t, s);
    isa::emit_rotation(t, s);
    return t;
}

/// Modeled per-tenant key set at paper scale (N = 2^16, 44 limbs):
/// eight switching keys under the workload's decomposition.
double
tenant_key_bytes(std::size_t dnum)
{
    double digits = dnum == 0 ? 44.0 : static_cast<double>(dnum);
    double K = static_cast<double>(special_primes(44, dnum));
    return hw::eval_key_bytes(65536.0, 44.0, digits, K) * 8.0;
}

} // namespace

ClusterFamily::ClusterFamily(const Workload &w, u64 seed) : w_(w), seed_(seed)
{
    for (unsigned c = 0; c < kSizeClasses; ++c) {
        traces_.push_back(request_trace(c, w.dnum));
    }
    // Every variant holds the same multiset of size classes in a
    // seed-shuffled client order, so cells cost alike across seeds.
    for (u64 v = 0; v < kCellVariants; ++v) {
        Prng prng(derive(seed, 20 + v));
        std::vector<unsigned> classes(kClients);
        for (std::size_t i = 0; i < kClients; ++i) {
            classes[i] = static_cast<unsigned>(i % kSizeClasses);
        }
        for (std::size_t i = kClients; i > 1; --i) {
            std::swap(classes[i - 1], classes[prng.uniform(i)]);
        }
        classes_.push_back(classes);
    }
}

u64
ClusterFamily::jobs_per_cell() const
{
    return kClients * kJobsPerClient;
}

bool
ClusterFamily::Outcome::operator==(const Outcome &o) const
{
    return submitted == o.submitted && completed == o.completed &&
           localityHits == o.localityHits &&
           keyTransfers == o.keyTransfers &&
           horizonCycles == o.horizonCycles &&
           p99LatencyCycles == o.p99LatencyCycles &&
           conserved == o.conserved;
}

cluster::ClusterConfig
ClusterFamily::config(u64 variant) const
{
    cluster::ClusterConfig cfg;
    cfg.hosts = kHosts;
    cfg.host.cards = kCardsPerHost;
    cfg.placement = cluster::Placement::Locality;
    cfg.seed = derive(seed_, 30 + variant);
    cfg.defaultKeyBytes = tenant_key_bytes(w_.dnum);
    return cfg;
}

ClusterFamily::Outcome
ClusterFamily::run_cell(u64 variant, SpanLog *log)
{
    const std::vector<unsigned> &classes = classes_[variant];
    std::vector<u64> remaining(kClients, kJobsPerClient);

    cluster::ClusterRouter router(config(variant));
    std::function<void(std::size_t, double)> feed =
        [&](std::size_t i, double arrival) {
            if (remaining[i] == 0) return;
            --remaining[i];
            serve::JobSpec s;
            s.tenant = "tenant" + std::to_string(i);
            s.name = "client" + std::to_string(i);
            s.trace = traces_[classes[i]];
            s.arrivalCycle = arrival;
            s.callback = [&feed, i](const serve::JobResult &r) {
                feed(i, r.finishCycle);
            };
            router.submit(std::move(s));
        };
    {
        std::optional<SpanLog::Scope> s;
        if (log) s.emplace(*log, "cluster.submit");
        for (std::size_t i = 0; i < kClients; ++i) feed(i, 0.0);
    }
    {
        std::optional<SpanLog::Scope> s;
        if (log) s.emplace(*log, "cluster.drain");
        router.drain();
    }

    cluster::ClusterStats st = router.stats();
    Outcome o;
    o.submitted = st.submitted;
    o.completed = st.completed;
    o.localityHits = st.localityHits;
    o.keyTransfers = st.keyTransfers;
    o.horizonCycles = st.horizonCycles;
    o.p99LatencyCycles = st.p99LatencyCycles;
    o.conserved = st.conserved();
    return o;
}

bool
ClusterFamily::check(u64 variant, const Outcome &o)
{
    if (!o.conserved || o.submitted != jobs_per_cell() ||
        o.completed != o.submitted) {
        return false;
    }
    // The simulated clock is deterministic: a repeated cell must land
    // on exactly the same schedule.
    auto [it, fresh] = expected_.emplace(variant, o);
    return fresh || it->second == o;
}

bool
ClusterFamily::request(u64 i, double &seconds)
{
    u64 variant = i % kCellVariants;
    auto t0 = Clock::now();
    Outcome o = run_cell(variant, nullptr);
    seconds = seconds_since(t0);
    return check(variant, o);
}

bool
ClusterFamily::traced_request(u64 i, SpanLog &log)
{
    u64 variant = i % kCellVariants;
    Outcome o;
    {
        SpanLog::Scope s(log, "cluster.cell");
        o = run_cell(variant, &log);
    }
    log.sample("cluster.locality_hit_rate",
               static_cast<double>(o.localityHits) /
                   static_cast<double>(o.submitted));
    log.sample("cluster.key_transfers",
               static_cast<double>(o.keyTransfers));

    // Layer probes: the ISA compiler, one accelerator-model run, and
    // one host's serving engine driven by its share of the clients.
    unsigned c = static_cast<unsigned>(i % kSizeClasses);
    isa::Trace t;
    {
        SpanLog::Scope s(log, "isa.compile");
        t = request_trace(c, w_.dnum);
    }
    hw::PoseidonSim sim;
    {
        SpanLog::Scope s(log, "hw.sim_run");
        hw::SimResult r = sim.run(t);
    }

    // Configured as the router configures each of its hosts.
    serve::ServeConfig host = config(variant).host;
    host.exportTelemetry = false;
    serve::ServingEngine engine(host);
    const std::size_t clients = kClients / kHosts;
    std::vector<u64> remaining(clients, kJobsPerClient);
    std::function<void(std::size_t, double)> feed =
        [&](std::size_t k, double arrival) {
            if (remaining[k] == 0) return;
            --remaining[k];
            serve::JobSpec s;
            s.tenant = "tenant" + std::to_string(k);
            s.trace = traces_[classes_[variant][k]];
            s.arrivalCycle = arrival;
            s.callback = [&feed, k](const serve::JobResult &r) {
                feed(k, r.finishCycle);
            };
            engine.submit(std::move(s));
        };
    {
        SpanLog::Scope s(log, "serve.engine_drain");
        for (std::size_t k = 0; k < clients; ++k) feed(k, 0.0);
        engine.drain();
    }
    bool engineOk = engine.stats().completed == clients * kJobsPerClient;
    return check(variant, o) && engineOk;
}

u64
ClusterFamily::engine_jobs() const
{
    return (kClients / kHosts) * kJobsPerClient;
}

} // namespace hostbench
