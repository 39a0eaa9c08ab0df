"""Periodic Fourier fields and diagonal application of the spectral maps.

Fields live on the period-2 torus with convention f(z) = sum_k fhat_k
e^{i pi k z}, stored densely for -K_max <= k <= K_max.  ``PeriodicField`` is
the one coefficient-table type (``dynamics.DynamicsState`` adds eps and t),
and each class states the component counts it holds; every coefficient is a
finite double.  The velocity-to-force map is diagonal in this basis: it
multiplies each coefficient by the eigenvalue lambda of its wavenumber.  The
k = 0 mode (the 2D fundamental solution, which does not decay) is excluded;
a field with nonzero mean is a hard error there rather than a silent drop.

Sobolev convention: ||f||_{H^s}^2 = 2 sum_k (1 + pi^2 k^2)^s |fhat_k|^2,
the factor 2 being Parseval's constant for the length-2 period, so that
a single unit mode has L2 norm sqrt(2) and H1 norm sqrt(2(1 + pi^2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bessel import _as_float
from .spectra import K_MAX_LIMIT, _count, eigenvalues


#: values of |fhat_k|^2 ``sobolev_norm`` holds at a time: its 256 KiB buffer stays in cache.
#: numpy's pairwise sum recurses past 128 values, so any size from there up keeps the bits;
#: against 8192, 32768 took a 60 000-mode Stokes norm from 1.3-1.6 ms to 1.0-1.3 ms
_NORM_LEAF = 32768


class MeanModeError(ValueError):
    """A field with nonzero k = 0 coefficient was fed to an operator."""


@dataclass(frozen=True)
class PeriodicField:
    """components x (2 K_max + 1) complex coefficient table, k = -K..K."""

    coeffs: np.ndarray
    _COMPONENTS = (1, 3)  # scalar or vector; a subclass states its own counts

    def __post_init__(self):
        try:
            c = np.atleast_2d(np.asarray(self.coeffs, dtype=complex))
        except OverflowError:  # an int that no double holds
            raise ValueError("a coefficient is past the double range") from None
        if c.ndim != 2 or c.shape[0] not in self._COMPONENTS:
            counts = " or ".join(map(str, self._COMPONENTS))
            raise ValueError(f"a {type(self).__name__} has {counts} components")
        if c.shape[1] % 2 == 0 or c.shape[1] < 3:
            raise ValueError("coefficient axis must have odd length 2*K_max+1 >= 3")
        if not np.isfinite(c).all():
            raise ValueError("every coefficient must be a finite double")
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
    """H^s norm under the (1 + pi^2 k^2)^s weight, Parseval constant 2, for finite s >= 0.

    |fhat_k|^2, weighted for s > 0, is formed ``_NORM_LEAF`` values at a time in one buffer
    and summed as ``np.sum`` sums the full table of them (``_pairwise_sum``), so the norm makes
    no full-size square and moves no bit; s > 0 adds the weight row, one value per k.  At s = 0
    no weight is applied, as x * 1.0 = x.
    OverflowError where the squared norm or a weight leaves the double range."""
    if not 0.0 <= _as_float(s, math.inf) < math.inf:
        raise ValueError("s must be finite and >= 0")
    table = field.coeffs
    k_last = abs(table.strides[0]) >= abs(table.strides[1])  # np.sum adds in memory order
    table = table if k_last else table.T
    flat, buf = table.reshape(-1), np.empty(min(table.size, _NORM_LEAF))

    def leaf_sum(lo, hi):
        sq = np.square(np.abs(flat[lo:hi], out=buf[:hi - lo]), out=buf[:hi - lo])
        if s:  # each value's weight: its flat index wraps over a row of k, or its row is one k
            at = np.arange(lo, hi)
            sq *= weight.take(at, mode="wrap") if k_last else weight[at // table.shape[1]]
        return np.sum(sq, initial=0.0)

    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        weight = (1.0 + (math.pi * field.k_values) ** 2) ** s if s else None
        total = 2.0 * float(_pairwise_sum(leaf_sum, 0, flat.size))
    if not math.isfinite(total):
        raise OverflowError(f"the squared H^{s} norm or its weight overflows a double")
    return math.sqrt(total)


def _pairwise_sum(leaf_sum, lo, hi):
    """numpy's pairwise sum of a contiguous float array's [lo, hi): halves split as numpy splits
    them (the first a multiple of 8), down to leaves of at most ``_NORM_LEAF`` values, where
    ``leaf_sum(lo, hi)`` sums as ``np.sum`` does.  A module function, not a closure that calls
    itself: such a closure is a reference cycle and keeps the field alive until gc runs."""
    if hi - lo <= _NORM_LEAF:
        return leaf_sum(lo, hi)
    half = (hi - lo) // 2
    half -= half % 8
    return _pairwise_sum(leaf_sum, lo, lo + half) + _pairwise_sum(leaf_sum, lo + half, hi)


def _spectra(family, field, eps):
    """Each component's lambda on k = 1..K_max, from one ``eigenvalues`` call on a checked field."""
    if field.n_components not in PeriodicField._COMPONENTS:
        raise ValueError(f"apply_operator takes a scalar or vector field, not a "
                         f"{type(field).__name__} of {field.n_components} components")
    if not field.mean_free:
        raise MeanModeError("k = 0 coefficient must vanish before applying operators")
    fams = (family,) if field.n_components == 1 else tuple(
        replace(family, direction=d) for d in ("normal", "tangential"))
    rows = list(eigenvalues(fams, eps, np.arange(1, field.k_max + 1)))
    return rows if len(rows) == 1 else [rows[0], *rows]  # x and y share the normal row


def _sides(lam):
    """A row's k > 0 and k < 0 columns, each with its spectrum: lam, and lam reversed."""
    return (slice(-lam.size, None), lam), (slice(lam.size), lam[::-1])


def _multiply(coeffs, lam, out):
    """``out`` = ``coeffs`` times lam; OverflowError where a product leaves the double range."""
    try:
        with np.errstate(over="raise"):
            return np.multiply(coeffs, lam, out=out)
    except FloatingPointError:
        raise OverflowError("a coefficient times lambda overflows a double") from None


def apply_operator(family, field, eps):
    """The velocity-to-force map: multiply each coefficient by lambda of its wavenumber.

    Scalar fields use ``family`` as given.  Vector fields resolve the
    direction per component: z -> tangential, x/y -> normal, with the
    family's setting/method/parameters shared.

    Eigenvalues depend on |k| only: ``_spectra`` checks the field, then evaluates the distinct
    component families together on k = 1..K_max, and each spectrum multiplies k > 0 as is and
    k < 0 reversed (``_sides``), straight into the output, whose k = 0 column is zeroed.
    """
    lams, out = _spectra(family, field, eps), np.empty_like(field.coeffs)
    out[:, field.k_max] = 0.0
    for row, lam, out_row in zip(field.coeffs, lams, out):
        for at, lam_at in _sides(lam):
            _multiply(row[at], lam_at, out_row[at])
    return PeriodicField(out)


def make_test_field(profile, k_max, seed=0, n_components=1):
    """Deterministic rough input fields for the experiments.

    h1_rough:  |fhat_k| = |k|^{-1.6}, random unit-modulus phases (H1 not H2)
    h2_rough:  |fhat_k| = |k|^{-2.6}  (H2 not H3)
    Both are real-valued (conjugate-symmetric) with zero mean.
    """
    k_max = _count(k_max, "k_max", 8, K_MAX_LIMIT)
    n_components = _count(n_components, "n_components", 1, 3)
    if profile not in (powers := {"h1_rough": -1.6, "h2_rough": -2.6}):
        raise ValueError(f"unknown profile {profile!r}")
    amp = np.arange(1, k_max + 1).astype(float) ** powers[profile]
    # one draw of n rows is the stream of n draws of one row each
    phase = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, (n_components, k_max))
    coeffs = np.zeros((n_components, 2 * k_max + 1), dtype=complex)
    for ci in range(n_components):
        pos = np.exp(1j * phase[ci], out=coeffs[ci, k_max + 1:])
        pos *= amp
        np.conj(pos[::-1], out=coeffs[ci, :k_max])
    return PeriodicField(coeffs)
