"""Periodic Fourier fields and diagonal application of the spectral maps.

Fields live on the period-2 torus with convention f(z) = sum_k fhat_k
e^{i pi k z}, stored densely for -K_max <= k <= K_max.  Every operator in
the toolkit is diagonal in this basis, so applying a forward or inverse
map is coefficient-wise multiplication by 1/lambda or lambda.  The k = 0
mode is excluded from all operators (it corresponds to the 2D fundamental
solution, which does not decay); feeding a field with nonzero mean to an
operator is a hard error rather than a silent drop.

Sobolev convention: ||f||_{H^s}^2 = 2 sum_k (1 + pi^2 k^2)^s |fhat_k|^2,
the factor 2 being Parseval's constant for the length-2 period, so that
a single unit mode has L2 norm sqrt(2) and H1 norm sqrt(2(1 + pi^2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectra import EigenFamily, PoleError, eigenvalues

#: largest K_max a field or state may hold: each component stores 2 K_max + 1
#: complex coefficients, about 34 MB per component at 2**20
K_MAX_LIMIT = 2**20


def check_count(name, n):
    """Reject a count above K_MAX_LIMIT, before the count sizes anything."""
    if n > K_MAX_LIMIT:
        raise ValueError(f"{name} = {n} exceeds K_MAX_LIMIT = {K_MAX_LIMIT}")


class MeanModeError(ValueError):
    """A field with nonzero k = 0 coefficient was fed to an operator."""


@dataclass(frozen=True)
class PeriodicField:
    """components x (2 K_max + 1) complex coefficient table, k = -K..K."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim == 1:
            c = c[None, :]
        if c.shape[0] not in (1, 3):
            raise ValueError("fields have 1 (scalar) or 3 (vector) components")
        if c.shape[1] % 2 == 0 or c.shape[1] < 3:
            raise ValueError("coefficient axis must have odd length 2*K_max+1 >= 3")
        object.__setattr__(self, "coeffs", c)

    @property
    def n_components(self):
        return self.coeffs.shape[0]

    @property
    def k_max(self):
        return (self.coeffs.shape[1] - 1) // 2

    @property
    def k_values(self):
        return np.arange(-self.k_max, self.k_max + 1)

    @property
    def mean_free(self):
        return bool(np.all(self.coeffs[:, self.k_max] == 0))


def sobolev_norm(field, s):
    """H^s norm under the (1 + pi^2 k^2)^s weight, Parseval constant 2.  |fhat_k|^2 is the one
    temporary, weighted in place for s > 0; at s = 0 the weight is 1.0 and x * 1.0 = x."""
    if s < 0:
        raise ValueError("s >= 0 required")
    sq = np.abs(field.coeffs) ** 2
    if s:
        sq *= (1.0 + (math.pi * field.k_values) ** 2) ** s
    return math.sqrt(2.0 * float(np.sum(sq)))


def _component_family(family, component_index, n_components):
    if n_components == 1:
        return family
    direction = "tangential" if component_index == 2 else "normal"
    return EigenFamily(family.setting, direction, family.method,
                       cutoff=family.cutoff, delta=family.delta)


def apply_operator(family, field, eps, inverse):
    """Apply the diagonal map: multiply by lambda (inverse) or 1/lambda (forward).

    Scalar fields use ``family`` as given.  Vector fields resolve the
    direction per component: z -> tangential, x/y -> normal, with the
    family's setting/method/parameters shared.  ``inverse=True`` is the
    velocity-to-force direction.

    Eigenvalues depend on |k| only: the distinct component families (x and
    y share the normal one) are evaluated together on k = 1..K_max, and
    each spectrum is written to k > 0 as is and to k < 0 reversed, straight into
    the output (no other full-size array is made), whose k = 0 column is zeroed.
    """
    if not field.mean_free:
        raise MeanModeError("k = 0 coefficient must vanish before applying operators")
    k_max = field.k_max
    fams = [_component_family(family, ci, field.n_components)
            for ci in range(field.n_components)]
    distinct = tuple(dict.fromkeys(fams))
    spectra = dict(zip(distinct, eigenvalues(distinct, eps, np.arange(1, k_max + 1))))
    c = field.coeffs
    out = np.empty_like(c)
    out[:, k_max] = 0.0
    op = np.multiply if inverse else np.divide
    for ci, fam in enumerate(fams):
        lam = spectra[fam]
        if not inverse:
            bad = (lam == 0.0) | ~np.isfinite(lam)
            if np.any(bad):
                k_bad = np.flatnonzero(bad) + 1
                k_bad = np.concatenate([-k_bad[::-1], k_bad])
                # truncated families legitimately zero out the high band;
                # forward application there is division by zero = a pole hit
                raise PoleError(f"forward map undefined at k in {k_bad[:5].tolist()} (1/lambda = 0)")
        op(c[ci, k_max + 1:], lam, out=out[ci, k_max + 1:])
        op(c[ci, :k_max], lam[::-1], out=out[ci, :k_max])
    return PeriodicField(out)


def make_test_field(profile, k_max, seed=0, n_components=1, mode_k=None):
    """Deterministic synthetic input fields for the experiments.

    h1_rough:  |fhat_k| = |k|^{-1.6}, random unit-modulus phases (H1 not H2)
    h2_rough:  |fhat_k| = |k|^{-2.6}  (H2 not H3)
    smooth:    |fhat_k| = e^{-|k|/4}
    single_mode: unit amplitude at k = +/- mode_k only
    All are real-valued (conjugate-symmetric) with zero mean.
    """
    k_max = int(k_max)
    if k_max < 8:
        raise ValueError("k_max >= 8 required")
    check_count("k_max", k_max)
    if profile == "single_mode":
        if mode_k is None or not (1 <= abs(int(mode_k)) <= k_max):
            raise ValueError("single_mode needs mode_k with 1 <= |mode_k| <= k_max")
        amp = np.zeros(k_max)
        amp[abs(int(mode_k)) - 1] = 1.0
        phase = np.zeros((n_components, k_max))
    else:
        kpos = np.arange(1, k_max + 1)
        if profile == "h1_rough":
            amp = kpos.astype(float) ** -1.6
        elif profile == "h2_rough":
            amp = kpos.astype(float) ** -2.6
        elif profile == "smooth":
            amp = np.exp(-kpos / 4.0)
        else:
            raise ValueError(f"unknown profile {profile!r}")
        # one draw of n rows is the stream of n draws of one row each
        phase = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, (n_components, k_max))
    coeffs = np.zeros((n_components, 2 * k_max + 1), dtype=complex)
    for ci in range(n_components):
        # one row on a fresh temporary: from 2**14 points on numpy forms the product in it,
        # operands swapped, which fixes the sign of a zero part where amp is subnormal
        pos = amp * np.exp(1j * phase[ci])
        coeffs[ci, k_max + 1:] = pos
        coeffs[ci, :k_max] = np.conj(pos[::-1])
    return PeriodicField(coeffs)
