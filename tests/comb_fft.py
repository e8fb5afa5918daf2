"""The level-N comb's coefficients by one real FFT of its atoms, with an
a-priori rounding bound: a comb-sum oracle independent of the coefficient
kernel (fourier.coeff_table), which never builds the atoms.

comb_fft(p, N) gives mu_N^(t) for t = 0..2^N-1 and the bound B that covers
every one of them.  With u = 2^-53, s the pre-shift (atoms w' = w >> s and
total T' = T >> s, both integers, sum w' <= T'; s > 0 only when T is beyond
the double range), w^ = fl(w') and T^ = fl(T') (each within a relative u),
the value of mu_N^(t) = (sum_n w_n e^{-2 pi i t n/2^N})/T is the bin divided
by T^ part by part, and differs from it by at most

    B = ((1+u) g + 3u/(1-u)) (1+u)/(1-u)  (+ (2^N + 1) 2^s/T when s > 0),
    g = (1 + eta)^N - 1,   eta = mu + gamma_4 (sqrt 2 + mu),

about 3.0e-14 at N = 18.  The terms:
  * FFT (g).  Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., Thm 24.2 in componentwise form: a radix-2 stage is (A_k + dA_k) x
    with |dA_k| <= eta |A_k| when the computed twiddles are within mu of the
    exact ones, and |A_N|...|A_1| is the all-ones matrix, so |computed bin -
    exact DFT of w^| <= g sum w^_n (the atoms are non-negative).
  * Conversion (u/(1-u)), division (u + u/(1-u) + u g), and the shift: the
    dropped low bits of the w and of T, below 2^s each.
B is raised by a relative 2^-40 to cover its own evaluation.

Assumptions about pocketfft (numpy.fft), which is not the textbook complex
radix-2 algorithm: its twiddles are within mu = 9u of the exact roots of
unity (two libm table entries of a rounded angle, within 3u each, and their
product), and for 2^N real points it runs radix-4 passes and at most one
radix-2 pass (FFTPACK's radf4 and radf2), no more rounding per output than
N radix-2 stages.
"""

import math

import numpy as np

from ghostmeasure import big_sigma, eval_region

U = 2.0**-53
MU = 9 * U
ETA = MU + 4 * U / (1 - 4 * U) * (math.sqrt(2.0) + MU)


def fft_bound(level: int, shift: int, total: int) -> float:
    """B of the module docstring."""
    g = math.expm1(level * math.log1p(ETA))
    bound = ((1 + U) * g + 3 * U / (1 - U)) * (1 + U) / (1 - U)
    if shift:
        bound += math.ldexp((1 << level) + 1, shift - total.bit_length() + 1)
    return bound * (1 + 2.0**-40)


def comb_fft(p, level: int) -> tuple[np.ndarray, float]:
    """(mu_N^(t) for t = 0..2^N-1, B): one rfft of the shifted double atoms,
    mirrored by conjugation (the atoms are real), each part over the double
    total; t = 0 is exactly 1."""
    total = big_sigma(p, level)
    shift = max(total.bit_length() - 900, 0)
    atoms = np.array([float(w >> shift) for w in eval_region(p, level)])
    bins = np.fft.rfft(atoms)
    full = np.concatenate([bins, np.conj(bins[1:-1][::-1])])
    den = float(total >> shift)
    values = full.real / den + 1j * (full.imag / den)
    values[0] = 1.0
    return values, fft_bound(level, shift, total)
