#ifndef POSEIDON_BASELINES_CPU_H_
#define POSEIDON_BASELINES_CPU_H_

/**
 * @file
 * CPU baseline: single-threaded timings of this library's own CKKS
 * implementation, playing the role of the paper's Xeon baseline. The
 * benches measure it directly at the shape they report.
 */

#include "ckks/params.h"

namespace poseidon::baselines {

/// Seconds per basic operation on the CPU.
struct CpuOpTimes
{
    double hadd = 0;
    double pmult = 0;
    double cmult = 0;
    double ntt = 0;       ///< full-ciphertext-poly NTT (all limbs)
    double keyswitch = 0;
    double rotation = 0;
    double rescale = 0;
};

/// Measures the CPU baseline.
class CpuBaseline
{
  public:
    /// The library's operations at `params`, each the fastest of `reps`
    /// timed runs.
    static CpuOpTimes measure(const CkksParams &params, int reps = 3);
};

} // namespace poseidon::baselines

#endif // POSEIDON_BASELINES_CPU_H_
