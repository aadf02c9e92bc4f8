// Encrypted image filtering: a 3x3 box blur over an encrypted image,
// using the rotation+PMult pattern that backs the paper's ResNet-20
// benchmark (each convolution tap is one rotation and one plaintext
// multiplication).
//
// Build & run:  ./examples/encrypted_image_filter

#include <cmath>
#include <cstdio>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"

using namespace poseidon;

namespace {

constexpr std::size_t kW = 16; // image width
constexpr std::size_t kH = 12; // image height

/// Row-major pixel index.
std::size_t
at(std::size_t r, std::size_t c)
{
    return r * kW + c;
}

/// Plaintext reference: 3x3 box blur with zero padding, cyclic layout
/// caveats handled the same way the homomorphic version does (the
/// rotation is cyclic over the slot vector).
std::vector<double>
blur_reference(const std::vector<double> &img, std::size_t slots)
{
    std::vector<double> out(slots, 0.0);
    for (std::size_t i = 0; i < slots; ++i) {
        double acc = 0;
        for (int dr = -1; dr <= 1; ++dr) {
            for (int dc = -1; dc <= 1; ++dc) {
                long shift = dr * static_cast<long>(kW) + dc;
                long src = (static_cast<long>(i) + shift) %
                           static_cast<long>(slots);
                if (src < 0) src += static_cast<long>(slots);
                acc += img[static_cast<std::size_t>(src)];
            }
        }
        out[i] = acc / 9.0;
    }
    return out;
}

} // namespace

int
main()
{
    CkksParams params;
    params.logN = 12;
    params.L = 4;
    params.scaleBits = 35;
    auto ctx = make_ckks_context(params);

    KeyGenerator keygen(ctx);
    CkksEncoder encoder(ctx);
    CkksEncryptor encryptor(ctx, keygen.make_public_key());
    CkksDecryptor decryptor(ctx, keygen.secret_key());
    CkksEvaluator eval(ctx);

    // Keys for the 8 nonzero tap shifts.
    std::vector<long> taps;
    for (int dr = -1; dr <= 1; ++dr) {
        for (int dc = -1; dc <= 1; ++dc) {
            long s = dr * static_cast<long>(kW) + dc;
            if (s != 0) taps.push_back(s);
        }
    }
    GaloisKeys gk = keygen.make_galois_keys(taps);

    // A synthetic "image": bright diagonal stripe on dark background.
    std::vector<double> img(ctx->slots(), 0.0);
    for (std::size_t r = 0; r < kH; ++r) {
        for (std::size_t c = 0; c < kW; ++c) {
            img[at(r, c)] = (std::abs(static_cast<int>(r) -
                                      static_cast<int>(c)) <= 1)
                                ? 1.0
                                : 0.1;
        }
    }

    Ciphertext ct = encryptor.encrypt(encoder.encode_real(img, params.L));

    // 3x3 blur: one hoisted multi-rotation (9 taps share the single
    // digit decomposition), accumulated over the extended basis QP and
    // scaled by 1/9 there; one fused ModDown + rescale ends it.
    std::vector<long> allShifts = {0};
    allShifts.insert(allShifts.end(), taps.begin(), taps.end());
    auto rots = eval.rotate_hoisted_ext(ct, allShifts, gk);

    Ciphertext acc = rots[0];
    for (std::size_t i = 1; i < rots.size(); ++i) {
        eval.add_inplace(acc, rots[i]);
    }
    Ciphertext blurred = eval.mul_scalar(acc, 1.0 / 9.0);
    eval.rescale_inplace(blurred);

    // Decrypt and compare against the plaintext blur.
    auto back = encoder.decode(decryptor.decrypt(blurred));
    auto expect = blur_reference(img, ctx->slots());

    double maxErr = 0;
    for (std::size_t i = 0; i < kW * kH; ++i) {
        maxErr = std::max(maxErr, std::abs(back[i].real() - expect[i]));
    }

    std::printf("encrypted 3x3 blur over a %zux%zu image "
                "(9 taps, hoisted rotations)\n", kW, kH);
    std::printf("original / blurred (row 4, columns 0-11):\n  in:  ");
    for (std::size_t c = 0; c < 12; ++c) {
        std::printf("%.2f ", img[at(4, c)]);
    }
    std::printf("\n  out: ");
    for (std::size_t c = 0; c < 12; ++c) {
        std::printf("%.2f ", back[at(4, c)].real());
    }
    std::printf("\nmax error vs plaintext blur: %.2e\n", maxErr);

    bool ok = maxErr < 1e-3;
    std::printf("%s\n", ok ? "OK" : "MISMATCH");
    return ok ? 0 : 1;
}
