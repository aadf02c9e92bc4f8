#ifndef POSEIDON_HW_CONFIG_H_
#define POSEIDON_HW_CONFIG_H_

/**
 * @file
 * Configuration of the modeled Poseidon accelerator.
 *
 * Defaults follow the paper's Xilinx Alveo U280 implementation:
 * 512 vector lanes at 300 MHz, 64 radix-8 NTT cores (k = 3), a 8.6 MB
 * scratchpad, and two HBM2 stacks (32 channels, 460 GB/s peak).
 */

#include <cstddef>

#include "hw/faults.h"

namespace poseidon::hw {

/// Knobs of the modeled accelerator instance.
struct HwConfig
{
    /// Vector datapath width (elements per cycle for MA/MM).
    std::size_t lanes = 512;

    /// Accelerator clock in GHz.
    double clockGHz = 0.30;

    /// NTT-fusion radix exponent k (the paper picks 3).
    unsigned nttRadixLog2 = 3;

    /// Peak HBM bandwidth in GB/s.
    double hbmPeakGBps = 460.0;

    /// Achievable fraction of peak on streaming access.
    double hbmEfficiency = 0.98;

    /// Total HBM capacity in GB (two 4 GB HBM2 stacks on the U280).
    /// Bounds the per-card evaluation-key cache the cluster router's
    /// placement model works against.
    double hbmCapacityGB = 8.0;

    /// Host-to-card interconnect bandwidth in GB/s (PCIe Gen3 x16 on
    /// the U280 deployment). Prices evaluation-key uploads when a
    /// tenant's jobs are placed on a host that does not hold its keys.
    double pcieGBps = 16.0;

    /// On-chip scratchpad capacity in MB.
    double scratchpadMB = 8.6;

    /**
     * Limb-tiles the pipeline keeps resident (operand tiles, twiddle
     * tables, FIFO buffers) — the scratchpad requirement is
     * scratchpadTiles * N * wordBytes. When the scratchpad is smaller,
     * tiles respill to HBM and memory time scales up accordingly.
     */
    double scratchpadTiles = 24.0;

    /// Word width of one RNS residue in bytes (32-bit in the paper).
    unsigned wordBytes = 4;

    /// Use the HFAuto 4-stage automorphism core (vs 1 elem/cycle).
    bool hfauto = true;

    /// HFAuto sub-vector length C.
    std::size_t hfautoSubvec = 512;

    /**
     * HBM fault model (see hw/faults.h). The default BER of 0 keeps
     * the reliable-memory behaviour of the paper's prototype,
     * bit-identical to a model without the injector; nonzero BER adds
     * ECC retry cycles to memory time and fault statistics to
     * SimResult.
     */
    FaultConfig faults;

    /// Peak HBM bytes per accelerator cycle.
    double
    bytes_per_cycle() const
    {
        return hbmPeakGBps * 1e9 / (clockGHz * 1e9);
    }

    /// Interconnect (PCIe) bytes per accelerator cycle.
    double
    pcie_bytes_per_cycle() const
    {
        return pcieGBps * 1e9 / (clockGHz * 1e9);
    }

    /// Modeled accelerator cycles to move `bytes` over the host-card
    /// interconnect (the key-transfer cost the cluster router charges
    /// on non-resident placement).
    double
    transfer_cycles(double bytes) const
    {
        return bytes / pcie_bytes_per_cycle();
    }

    /// HBM capacity in bytes.
    double hbm_capacity_bytes() const { return hbmCapacityGB * 1e9; }

    /// The paper's U280 configuration (the defaults).
    static HwConfig poseidon_u280() { return HwConfig{}; }
};

/**
 * Modeled evaluation-key footprint of one tenant, in bytes: `dnum`
 * keyswitch key components, each a pair of polynomials in the extended
 * base (`limbs + K` residues of `n` coefficients, `wordBytes` each).
 * This is the quantity the cluster placement model weighs against
 * hbmCapacityGB and prices over pcieGBps (see docs/CLUSTER.md).
 */
inline double
eval_key_bytes(double n, double limbs, double dnum, double K,
               unsigned wordBytes = 4)
{
    return dnum * 2.0 * n * (limbs + K) * static_cast<double>(wordBytes);
}

} // namespace poseidon::hw

#endif // POSEIDON_HW_CONFIG_H_
