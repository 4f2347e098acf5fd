"""The two hot kernels: the steered-power scan and fractional-delay mixing.

Both are deterministic: repeated calls with the same inputs produce the same
bytes.
"""

import numpy as np

# (key, cos, sin) of the last steering input seen by ``steered_power``.  One
# corpus uses one geometry, grid and band, so a single entry hits on every
# call after the first.  The tuple is replaced whole, never mutated.
_tables = (None, None, None)


def steered_power(g_re, g_im, tau, omega):
    """Steered response r[b] = sum_{p,k} Re{G[p,k] * exp(i*omega[k]*tau[b,p])}.

    g_re, g_im : (pairs, bins) frame-summed cross-spectra, real and imag parts
    tau        : (azimuths, pairs) steering delay differences in seconds
    omega      : (bins,) angular frequencies 2*pi*f

    The cos/sin tables depend only on ``tau`` and ``omega``; they are kept for
    the last pair seen, keyed by shape and bytes, so a cache hit is exact.
    """
    global _tables
    key = (tau.shape, tau.tobytes(), omega.tobytes())
    cached, cos_t, sin_t = _tables
    if cached != key:
        phase = tau[:, :, None] * omega[None, None, :]
        cos_t, sin_t = np.cos(phase), np.sin(phase)
        _tables = (key, cos_t, sin_t)
    return np.einsum("pk,bpk->b", g_re, cos_t) - np.einsum("pk,bpk->b", g_im, sin_t)


def lerp_mix(out, sig, delay, amp, lead):
    """Accumulate a time-varying fractional delay of ``sig`` into ``out``.

    out[n] += amp[n] * sig(lead + n - delay[n]) with linear interpolation
    between samples.  ``lead`` is the number of warm-up samples prepended to
    ``sig`` so that early output samples can look back before t = 0.  ``amp``
    applies to every sample (where it is zero the sample adds 0 * x, which
    leaves ``out`` unchanged); samples whose read position falls outside
    ``sig`` add nothing.
    """
    pos = np.arange(lead, lead + out.shape[0], dtype=np.float64)
    pos -= delay
    lo = np.floor(pos)
    idx = lo.astype(np.int64)
    frac = np.subtract(pos, lo, out=pos)
    ok = slice(None)  # only a call whose reads leave sig pays for a mask
    if idx.size and (idx.min() < 0 or idx.max() + 1 >= sig.shape[0]):
        ok = (idx >= 0) & (idx + 1 < sig.shape[0])
        idx, frac, amp = idx[ok], frac[ok], amp[ok]
    left = sig[idx]
    mix = sig[1:][idx]
    mix -= left
    mix *= frac
    mix += left
    mix *= amp
    out[ok] += mix
