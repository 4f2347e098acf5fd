"""Far-field steered response power with phase transform weighting.

Azimuth convention: -90 degrees is hard left, 0 straight ahead, +90 hard
right; the steering unit vector is u = (sin a, 0, cos a) and a microphone at
position p hears a plane wave from direction a at relative delay -(u . p) / c.

The response sums Re{G_ij[t, k] * exp(+2i pi f_k (d_i - d_j))} over all
unordered microphone pairs, frames and retained bins, clamps each azimuth bin
at zero from below after the full summation, and normalizes by
pairs * frames * bins.  Frames are summed before the steering scan (the
steering term does not depend on t) and the remaining reduction runs in a
fixed loop order, so results are reproducible call to call.

The phase transform of Knapp & Carter (IEEE TASSP 24(4), 1976) divides each
cross-spectrum cell by its magnitude, G_ij = X_i conj X_j / |X_i conj X_j|.
Since |X_i conj X_j| = |X_i| |X_j|, that equals U_i conj U_j with each
channel whitened once, U = X / max(|X|, 1e-12).  The frame-summed cross-
spectra of all pairs are then one batched matrix product per bin.  The guard
against dividing by zero applies per channel rather than per pair: an
all-zero cell stays exactly zero under either rule, and the two rules differ
only in cells where 0 < |X| < 1e-12.

``srp_phat_segments`` scans consecutive frame ranges of one stack, the L
segments of a feature window: it whitens the stack and sets up the pair
indices, steering-delay differences and angular frequencies once, so each
range costs one batched Gram product and one ``steered_power`` call.
``srp_phat`` is its one-range case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels_np
from .audio import ArrayGeometry
from .stft import StftStack

PHAT_EPSILON = 1e-12


@dataclass(frozen=True)
class AzimuthGrid:
    """B equal-width bins partitioning [-90, +90] degrees."""

    n_bins: int = 30

    def __post_init__(self):
        if self.n_bins < 2:
            raise ValueError("need at least 2 azimuth bins")

    @property
    def bin_width(self) -> float:
        return 180.0 / self.n_bins

    @property
    def bin_centers(self) -> np.ndarray:
        b = np.arange(self.n_bins, dtype=np.float64)
        return -90.0 + (b + 0.5) * self.bin_width


@dataclass
class DoaResponse:
    """Steered energy per azimuth bin."""

    energies: np.ndarray
    grid: AzimuthGrid

    def __post_init__(self):
        self.energies = np.asarray(self.energies, dtype=np.float64)
        if self.energies.shape != (self.grid.n_bins,):
            raise ValueError("energies length must match the grid")
        if not np.all(np.isfinite(self.energies)):
            raise ValueError("energies must be finite")


def steering_delays(geometry: ArrayGeometry, azimuth_deg) -> np.ndarray:
    """Relative arrival delay per microphone for a far-field plane wave.

    A scalar azimuth gives one delay per microphone, shaped (mics,); an array
    of azimuths gives one row per azimuth, shaped (*azimuths, mics).  Each
    row is bit-identical to the scalar call for its azimuth.
    """
    a = np.deg2rad(np.asarray(azimuth_deg, dtype=np.float64))[..., None]
    x, _, z = geometry.positions.T  # u = (sin a, 0, cos a) has no y part
    return -(np.sin(a) * x + np.cos(a) * z) / geometry.speed_of_sound


def _whiten(spectrum: np.ndarray) -> np.ndarray:
    """Each cell divided by max(|.|, 1e-12): phase only, and zero stays zero.

    The real and imaginary parts are each multiplied by one real reciprocal.
    That gives a complex division's bits for less work, except that a zero
    part keeps its sign, where the division may flip it.
    """
    scale = 1.0 / np.maximum(np.abs(spectrum), PHAT_EPSILON)
    whitened = np.empty_like(spectrum)
    np.multiply(spectrum.real, scale, out=whitened.real)
    np.multiply(spectrum.imag, scale, out=whitened.imag)
    return whitened


def gcc_phat_cross(stack: StftStack, i, j) -> np.ndarray:
    """Phase-transform cross-spectrum of channels i and j, shaped (frames, bins).

    Each time-frequency cell is U_i * conj(U_j) with both channels whitened
    (module docstring), so cells carry phase only and an all-zero frame stays
    exactly zero.  With equal-length index arrays for i and j the result
    stacks one cross-spectrum per pair, shaped (pairs, frames, bins).
    """
    return _whiten(stack.data[i]) * np.conj(_whiten(stack.data[j]))


def srp_phat(stack: StftStack, geometry: ArrayGeometry, grid: AzimuthGrid | None = None) -> DoaResponse:
    """Scan the azimuth grid with PHAT-weighted steered response power."""
    if grid is None:
        grid = AzimuthGrid()
    return DoaResponse(srp_phat_segments(stack, geometry, grid, 1)[0], grid)


def srp_phat_segments(stack: StftStack, geometry: ArrayGeometry, grid: AzimuthGrid,
                      segments: int) -> np.ndarray:
    """``srp_phat`` energies of ``segments`` consecutive frame ranges, one row each.

    Each range holds n_frames // segments frames, and the remainder goes to
    the last range, the most recent one.  The stack is whitened once, and
    the pair indices, steering-delay differences and angular frequencies are
    set up once; each range then costs one batched Gram product of its
    frames and one ``steered_power`` call.  Row s holds the bits that
    ``srp_phat`` gives for the stack cut down to range s.
    """
    m = stack.channels
    if m < 2:
        raise ValueError("beamforming needs at least 2 channels")
    if geometry.n_mics != m:
        raise ValueError(
            f"geometry has {geometry.n_mics} microphones but the stack has {m} channels"
        )
    if stack.n_frames < 1 or stack.n_bins < 1:
        raise ValueError("empty spectrogram stack")

    left, right = np.triu_indices(m, 1)
    u = _whiten(stack.data.transpose(2, 0, 1))  # (bins, channels, frames)
    u_conj = u.conj()
    delays = steering_delays(geometry, grid.bin_centers)
    tau = delays[:, left] - delays[:, right]
    omega = 2.0 * np.pi * stack.bin_freqs

    base = stack.n_frames // segments
    energies = np.empty((segments, grid.n_bins))
    for row in range(segments):
        start = row * base
        stop = start + base if row < segments - 1 else stack.n_frames
        frames = slice(start, stop)
        gram = u[:, :, frames] @ u_conj[:, :, frames].transpose(0, 2, 1)
        g_sum = gram[:, left, right].T  # (pairs, bins)
        r = _kernels_np.steered_power(
            np.ascontiguousarray(g_sum.real),
            np.ascontiguousarray(g_sum.imag),
            tau,
            omega,
        )
        norm = left.size * (stop - start) * stack.n_bins
        energies[row] = np.maximum(r, 0.0) / norm
    return energies


def argmax_doa(response: DoaResponse) -> float:
    """Center of the highest-energy bin.

    Exact ties resolve toward the bin nearest 0 degrees, and toward the left
    between the two equidistant candidates.
    """
    energies = response.energies
    centers = response.grid.bin_centers
    peak = energies.max()
    tied = np.flatnonzero(energies == peak)
    best = min(tied, key=lambda b: (abs(centers[b]), centers[b]))
    return float(centers[best])
