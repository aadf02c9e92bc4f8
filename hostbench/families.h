#ifndef POSEIDON_HOSTBENCH_FAMILIES_H_
#define POSEIDON_HOSTBENCH_FAMILIES_H_

/**
 * @file
 * The three request families the host benchmark times, each built from
 * the workload's keyswitch decomposition and the run's seed:
 *
 *  - KeyswitchFamily: one CMult + relinearization, rescale and slot
 *    rotation on a logN=13 ciphertext (two keyswitches);
 *  - BootstrapFamily: one packed bootstrap of a bottom-level logN=10
 *    ciphertext;
 *  - ClusterFamily: one closed-loop cell of the cluster simulator (a
 *    global router over simulated hosts serving keyswitch-bearing jobs).
 *
 * Every family has a plain request (timed end to end, tracing off), a
 * traced request that wraps each layer call in a span, and a check that
 * the request's output is correct.
 */

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ckks/bootstrap.h"
#include "ckks/encryptor.h"
#include "cluster/cluster.h"
#include "isa/trace.h"
#include "spans.h"

namespace hostbench {

using poseidon::u64;

/// Keyswitch decomposition the workload applies to every family.
struct Workload
{
    std::string name;
    /// Keyswitch digits (0 = one digit per ciphertext prime).
    std::size_t dnum = 0;
};

/// Find a workload by name; false when unknown.
bool find_workload(const std::string &name, Workload &out);

/// Names of every workload, for usage messages.
std::vector<std::string> workload_names();

class KeyswitchFamily
{
  public:
    KeyswitchFamily(const Workload &w, u64 seed);

    /// Run request `i`, timing it into `seconds`; false when its
    /// output is wrong.
    bool request(u64 i, double &seconds);

    /// Request `i` decomposed into spans, plus per-layer probes.
    bool traced_request(u64 i, SpanLog &log);

  private:
    bool check(const poseidon::Ciphertext &out, long step) const;

    poseidon::CkksContextPtr ctx_;
    std::unique_ptr<poseidon::KeyGenerator> keygen_;
    std::unique_ptr<poseidon::CkksEncoder> encoder_;
    std::unique_ptr<poseidon::CkksEncryptor> encryptor_;
    std::unique_ptr<poseidon::CkksDecryptor> decryptor_;
    std::unique_ptr<poseidon::CkksEvaluator> eval_;
    poseidon::KSwitchKey relin_;
    poseidon::GaloisKeys galois_;
    std::vector<long> steps_;
    std::vector<poseidon::cdouble> za_, zb_;
    poseidon::Ciphertext a_, b_;
    /// Extended-basis coefficient polynomial for the ModDown probe.
    poseidon::RnsPoly ext_;
};

class BootstrapFamily
{
  public:
    BootstrapFamily(const Workload &w, u64 seed);

    bool request(u64 i, double &seconds);
    bool traced_request(u64 i, SpanLog &log);

  private:
    bool check(const poseidon::Ciphertext &out, std::size_t input) const;

    poseidon::CkksContextPtr ctx_;
    std::unique_ptr<poseidon::KeyGenerator> keygen_;
    std::unique_ptr<poseidon::CkksEncoder> encoder_;
    std::unique_ptr<poseidon::CkksEncryptor> encryptor_;
    std::unique_ptr<poseidon::CkksDecryptor> decryptor_;
    std::unique_ptr<poseidon::CkksEvaluator> eval_;
    std::unique_ptr<poseidon::Bootstrapper> boot_;
    std::vector<std::vector<poseidon::cdouble>> msgs_;
    std::vector<poseidon::Ciphertext> inputs_;
};

class ClusterFamily
{
  public:
    ClusterFamily(const Workload &w, u64 seed);

    /// Jobs one cell submits.
    u64 jobs_per_cell() const;

    /// Jobs the single-host engine probe of a traced request submits.
    u64 engine_jobs() const;

    bool request(u64 i, double &seconds);
    bool traced_request(u64 i, SpanLog &log);

  private:
    /// Simulated-clock outcome of one cell; equal inputs must give
    /// equal outcomes on every run.
    struct Outcome
    {
        u64 submitted = 0;
        u64 completed = 0;
        u64 localityHits = 0;
        u64 keyTransfers = 0;
        double horizonCycles = 0.0;
        double p99LatencyCycles = 0.0;
        bool conserved = false;

        bool operator==(const Outcome &o) const;
    };

    poseidon::cluster::ClusterConfig config(u64 variant) const;
    Outcome run_cell(u64 variant, SpanLog *log);
    bool check(u64 variant, const Outcome &o);

    Workload w_;
    u64 seed_;
    /// Request programs per size class.
    std::vector<poseidon::isa::Trace> traces_;
    /// Size class of each client, per cell variant.
    std::vector<std::vector<unsigned>> classes_;
    std::map<u64, Outcome> expected_;
};

} // namespace hostbench

#endif // POSEIDON_HOSTBENCH_FAMILIES_H_
