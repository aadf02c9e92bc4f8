#ifndef POSEIDON_CKKS_ENCODER_H_
#define POSEIDON_CKKS_ENCODER_H_

/**
 * @file
 * CKKS encoder: canonical-embedding encoding of complex vectors.
 *
 * A message vector z in C^{N/2} maps to a real polynomial m(X) whose
 * evaluations at the primitive 2N-th roots of unity (one per conjugate
 * orbit, ordered by powers of 5) equal Delta * z. Encoding runs the
 * special inverse FFT over the rot-group ordering (HEAAN-style), scales
 * by Delta and rounds; decoding is the forward special FFT. Slot
 * rotation by r then corresponds to the Galois map X -> X^{5^r}.
 */

#include <complex>
#include <vector>

#include "ckks/ciphertext.h"
#include "ckks/params.h"

namespace poseidon {

using cdouble = std::complex<double>;

/// Encoder/decoder for one context (owns the root/rot-group tables).
class CkksEncoder
{
  public:
    explicit CkksEncoder(CkksContextPtr ctx);

    std::size_t slots() const { return slots_; }

    /**
     * Encode a complex vector into a plaintext over `limbs` primes.
     * The vector may be shorter than slots(); it is zero-padded.
     *
     * @param scale  encoding scale; <= 0 means the context default
     */
    Plaintext encode(const std::vector<cdouble> &values,
                     std::size_t limbs, double scale = -1.0) const;

    /**
     * encode() over the extended basis of a `limbs`-prime level
     * (CkksContext::extended_indices): the same integer polynomial,
     * also reduced mod the K special primes, to multiply
     * CkksEvaluator's extended-basis ciphertexts.
     */
    Plaintext encode_extended(const std::vector<cdouble> &values,
                              std::size_t limbs, double scale = -1.0) const;

    /// Encode a real vector (imaginary parts zero).
    Plaintext encode_real(const std::vector<double> &values,
                          std::size_t limbs, double scale = -1.0) const;

    /**
     * Encode the same scalar into every slot; byte-equal to encode()
     * of a constant vector. X^{N/2} is i in every slot, so a + bi
     * encodes to round(a*scale) + round(b*scale)*X^{N/2}: computed
     * per limb from the precomputed monomial, with no FFT or NTT.
     */
    Plaintext encode_scalar(cdouble value, std::size_t limbs,
                            double scale = -1.0) const;

    /// Decode a plaintext back to slots() complex values.
    std::vector<cdouble> decode(const Plaintext &pt) const;

    /// The special FFT used by decode: bit reversal, then
    /// fft_layers(vals, 0, log2 n).
    void fft_special(std::vector<cdouble> &vals) const;

    /// The inverse used by encode: fft_inv_layers(vals, 0, log2 n),
    /// then bit reversal and a 1/n scale.
    void fft_special_inv(std::vector<cdouble> &vals) const;

    /**
     * Butterfly layers [begin, end) of fft_special, without its bit
     * reversal; layer l pairs slots 2^l apart. The bootstrapper builds
     * its SlotToCoeff matrix from these.
     */
    void fft_layers(std::vector<cdouble> &vals, unsigned begin,
                    unsigned end) const;

    /**
     * Butterfly layers [begin, end) of fft_special_inv, without its
     * bit reversal and 1/n scale; layer l pairs slots n/2^{l+1} apart.
     * The bootstrapper builds its CoeffToSlot stages from these.
     */
    void fft_inv_layers(std::vector<cdouble> &vals, unsigned begin,
                        unsigned end) const;

  private:
    /// encode() onto the primes of `primeIdx`.
    Plaintext encode_on(const std::vector<cdouble> &values,
                        std::vector<std::size_t> primeIdx,
                        double scale) const;

    CkksContextPtr ctx_;
    std::size_t slots_;
    /// Per-layer butterfly twiddles; the layer of half-width h holds
    /// its h twiddles at [h-1, 2h-1).
    std::vector<cdouble> fwdTwiddles_;
    std::vector<cdouble> invTwiddles_;
    /// X^{N/2} in the evaluation domain over every chain prime.
    RnsPoly imagUnit_;
};

} // namespace poseidon

#endif // POSEIDON_CKKS_ENCODER_H_
