import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slenderspec import bessel, spectra

# independently frozen oracle values (adaptive quadrature of the integral
# representation, self-estimated error below 1e-14 relative)
FROZEN = {
    (0, 1.0): 0.42102443824070834,
    (1, 1.0): 0.60190723019723458,
    (2, 1.0): 1.6248388986351774,
    (0, 0.45): 1.0129146202923123,
    (1, 0.45): 1.8915216248893028,
    (0, 2.0): 0.1138938727495334,
    (1, 3.7): 0.017628035102223261,
}


@pytest.mark.parametrize("order,z", sorted(FROZEN))
def test_frozen_oracle_values(order, z):
    assert bessel.bessel_k(order, z) == pytest.approx(FROZEN[(order, z)], rel=1e-12)
    assert bessel.oracle_bessel_k(order, z) == pytest.approx(FROZEN[(order, z)], rel=1e-13)


def test_small_z_log_expansion():
    # K0(z) = log 2 - gamma - log z + O(z^2 log z)
    for z in (1e-6, 1e-5, 1e-4):
        lead = math.log(2.0) - bessel.EULER_GAMMA - math.log(z)
        assert bessel.bessel_k(0, z) == pytest.approx(lead, abs=5 * z * z * abs(math.log(z)))
    # z K1(z) -> 1
    for z in (1e-8, 1e-5, 1e-3):
        assert z * bessel.bessel_k(1, z) == pytest.approx(1.0, abs=2 * z * z * (1 + abs(math.log(z))))


def test_accuracy_vs_oracle_grid():
    z = np.geomspace(1e-8, 100.0, 400)
    for order in (0, 1, 2):
        mine = bessel.bessel_k(order, z)
        ref = bessel.oracle_bessel_k(order, z)
        assert np.max(np.abs(mine - ref) / ref) <= 1e-12


def test_scaled_values_vs_scipy_to_underflow():
    # a third route, independent of both the kernel and the quadrature
    # oracle, reaching past the oracle sweep's z = 100 up to z = 700
    special = pytest.importorskip("scipy.special")
    z = np.geomspace(2.0, 700.0, 5000)
    for order, ref in ((0, special.k0e(z)), (1, special.k1e(z))):
        scaled = bessel.bessel_k(order, z) * np.exp(z)
        assert np.max(np.abs(scaled - ref) / ref) <= 1e-13
    z = np.geomspace(1e-8, 1500.0, 5000)
    ref = special.k0e(z) / special.k1e(z)
    assert np.max(np.abs(bessel.ratio_A(z) - ref) / ref) <= 1e-13


@pytest.mark.parametrize("route", [bessel.bessel_k, bessel.oracle_bessel_k],
                         ids=["bessel_k", "oracle"])
@pytest.mark.parametrize("z", [np.geomspace(1e-8, 100.0, 10_000),  # verify_bessel grid
                               np.geomspace(1e-6, 90.0, 200),       # verify_oracle grid
                               np.geomspace(1e-150, 700.0, 3001),   # deep form to the upper edge
                               50.0])
def test_oracle_orders_tuple_matches_single_order_bitwise(route, z):
    rows = route((0, 1, 2), z)
    assert rows.shape == (3,) + np.shape(z)
    for order in (0, 1, 2):
        single = route(order, z)
        assert type(single) is (float if np.ndim(z) == 0 else np.ndarray)
        assert np.array_equal(rows[order], single)
    assert np.array_equal(route((2,), z)[0], rows[2])
    with pytest.raises(ValueError):
        route((0, 3), z)


def test_oracle_certifies_each_point_on_its_own():
    # one point of 9003 that stalled at 1.523e-14 failed the whole call, though
    # every entry certifies when called alone
    z = np.geomspace(1e-150, 700.0, 3001)
    got, want = bessel.oracle_bessel_k((0, 1, 2), z), bessel.bessel_k((0, 1, 2), z)
    assert np.max(np.abs(got - want) / want) <= 1e-12


def test_oracle_slow_point_refines_alone():
    # at z = 1e-120 order 2's 32- and 64-panel values differ by 1.2e-12: the
    # point refines past 64 panels, and the other columns keep their bits
    z = np.geomspace(1e-8, 100.0, 16)
    slow = np.append(z[:-1], 1e-120)
    rows, base = bessel.oracle_bessel_k((0, 1, 2), slow), bessel.oracle_bessel_k((0, 1, 2), z)
    assert rows[:, :-1].tobytes() == base[:, :-1].tobytes()
    want = bessel.bessel_k((0, 1, 2), slow)
    assert np.max(np.abs(rows - want) / want) <= 1e-12


def test_oracle_stall_names_the_worst_relative_error():
    with mock.patch.object(bessel, "_ORACLE_RTOL", 0.0):
        with pytest.raises(bessel.BesselAccuracyError, match=r"stalled at relative error \d"):
            bessel.oracle_bessel_k((0, 1, 2), np.array([0.5, 3.0]))


def test_recurrence_identity():
    z = np.geomspace(1e-6, 300.0, 500)
    k0, k1, k2 = (bessel.bessel_k(n, z) for n in (0, 1, 2))
    assert np.max(np.abs(k2 - k0 - 2.0 * k1 / z) / k2) <= 1e-12


def test_monotone_decreasing():
    z = np.geomspace(1e-6, 100.0, 2000)
    for order in (0, 1, 2):
        assert np.all(np.diff(bessel.bessel_k(order, z)) < 0)


def test_crossover_continuity():
    zc = bessel.SERIES_CUTOFF
    for order in (0, 1, 2):
        left = bessel.bessel_k(order, zc)
        right = bessel.bessel_k(order, np.nextafter(zc, 10.0))
        assert abs(left - right) <= 1e-12 * left


def test_domain_errors():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(bessel.BesselDomainError):
            bessel.bessel_k(0, bad)
    with pytest.raises(ValueError):
        bessel.bessel_k(3, 1.0)


def test_underflow_flagged():
    # bessel_k's values, in type and bytes, and the flag z > UNDERFLOW_Z
    for z, flagged in ((700.0, False), (705.0, False), (np.nextafter(705.0, 706.0), True),
                       (720.0, True), (800.0, True)):
        for order in (0, 1, 2, (0, 1, 2)):
            values, underflowed = bessel.bessel_k_detail(order, z)
            expected = bessel.bessel_k(order, z)
            assert type(values) is type(expected)
            assert np.asarray(values).tobytes() == np.asarray(expected).tobytes()
            assert type(underflowed) is bool and underflowed is flagged
    # past UNDERFLOW_Z the values are subnormal before they reach 0.0
    values, _ = bessel.bessel_k_detail((0, 1, 2), 720.0)
    assert np.all((0.0 < values) & (values < sys.float_info.min))
    assert bessel.bessel_k_detail(0, 800.0) == (0.0, True)


def test_oracle_deep_decay():
    v = bessel.oracle_bessel_k(0, 50.0)
    assert 0.0 < v < 1e-20 and math.isfinite(v)


def test_ratio_B_limits():
    # small z: B(z) ~ -1/(log(z/2) + gamma), a slow log decay
    z = 1e-8
    assert bessel.ratio_B(z) == pytest.approx(-1.0 / (math.log(z / 2) + bessel.EULER_GAMMA), rel=1e-4)
    assert bessel.ratio_B(2.0) > 39.0 / 16.0
    # large-argument expansion B(z) = z + 1/2 - 1/(8z) + 1/(8z^2) + ...
    z = 50.0
    expansion = z + 0.5 - 1.0 / (8.0 * z) + 1.0 / (8.0 * z * z)
    assert abs(bessel.ratio_B(z) - expansion) < 1e-3


def test_ratio_A_values():
    assert bessel.ratio_A(1.0) == pytest.approx(0.6995, abs=1e-3)
    for z in (0.1, 1.0, 10.0):
        a = bessel.ratio_A(z)
        assert 2.0 * z / (2.0 * z + 1.0) < a < 1.0
    assert 0.99 < bessel.ratio_A(100.0) < 1.0


def test_ratios_return_float_only_for_scalar_input():
    for fn in (bessel.ratio_A, bessel.ratio_B):
        assert type(fn(3.0)) is float
        assert type(fn(np.float64(3.0))) is float
        assert type(fn(np.array(3.0))) is float
        out = fn(np.array([3.0]))
        assert type(out) is np.ndarray and out.shape == (1,)


def test_ratios_beyond_underflow():
    # the ratio route must survive far past the underflow point of K itself
    for z in (1e3, 1e4):
        assert bessel.ratio_B(z) == pytest.approx(z + 0.5, rel=1e-3)
        assert 0.999 < bessel.ratio_A(z) < 1.0


def test_b_ode_consistency():
    z = np.geomspace(0.01, 10.0, 60)
    h = z * 1e-6
    dB = (bessel.ratio_B(z + h) - bessel.ratio_B(z - h)) / (2.0 * h)
    rhs = (bessel.ratio_B(z) ** 2 - z * z) / z
    assert np.max(np.abs(dB - rhs) / np.abs(rhs)) < 1e-5


def test_check_ratio_bounds_grid():
    lower, upper = bessel.check_ratio_bounds(np.geomspace(1e-6, 100.0, 5000))
    assert lower.shape == upper.shape == (5000,)
    assert np.all(lower > 0) and np.all(upper > 0)
    # tiny z: upper margin dominated by 1/(2z)
    _, upper = bessel.check_ratio_bounds(np.array([1e-8]))
    assert upper[0] > 1e7


def test_check_small_z_bounds():
    m0, m1 = bessel.check_small_z_bounds(np.linspace(1e-4, 1.0, 2000, endpoint=False))
    assert np.all(m0 >= 0) and np.all(m1 >= 0)
    with pytest.raises(ValueError):
        bessel.check_small_z_bounds(np.array([1.5]))


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=1e-6, max_value=100.0))
def test_property_ratio_bounds_everywhere(z):
    ratio = bessel.bessel_k(1, z) / bessel.bessel_k(0, z)
    assert (math.sqrt(z * z + z + 1.0) + 1.0) / (z + 1.0) < ratio < 1.0 + 1.0 / (2.0 * z)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-4, max_value=500.0))
def test_property_recurrence(z):
    k0, k1, k2 = (bessel.bessel_k(n, z) for n in (0, 1, 2))
    assert abs(k2 - k0 - 2.0 * k1 / z) <= 1e-12 * k2


_NEAR_CUTOFF = st.floats(min_value=bessel.SERIES_CUTOFF, max_value=bessel.SERIES_CUTOFF + 1e-6,
                         exclude_min=True)
_ANY_Z = st.floats(min_value=1e-8, max_value=1500.0)


@st.composite
def _mixed_z(draw):
    zs = (draw(st.lists(_NEAR_CUTOFF, min_size=1, max_size=8))
          + draw(st.lists(_ANY_Z, min_size=1, max_size=32)) + [1500.0])
    return np.array(draw(st.permutations(zs)))


@settings(max_examples=60, deadline=None)
@given(_mixed_z())
def test_property_array_call_matches_scalar_calls_bitwise(z):
    # each element of an array call runs exactly the arithmetic of its own
    # scalar call, whatever its neighbours need (slow-converging z just
    # above the cutoff next to fast large z)
    rows = bessel.bessel_k((0, 1, 2), z)
    for order in (0, 1, 2):
        scalar = np.array([bessel.bessel_k(order, float(x)) for x in z])
        assert np.array_equal(bessel.bessel_k(order, z), scalar)
        assert np.array_equal(rows[order], scalar)
    for fn in (bessel.ratio_A, bessel.ratio_B):
        assert np.array_equal(fn(z), np.array([fn(float(x)) for x in z]))


def test_blocks_give_each_point_the_bits_of_its_own_scalar_call():
    # _k0_k1 runs series and continued fraction block by block: in a shuffle over
    # three blocks each series point takes its own block's term count
    rng, block = np.random.default_rng(36), bessel._KERNEL_BLOCK
    z = rng.permutation(np.concatenate([
        np.geomspace(1e-8, bessel.SERIES_CUTOFF, block), rng.uniform(1e-3, 2.0, 500),
        bessel.SERIES_CUTOFF + rng.uniform(0.0, 1e-6, 100), rng.uniform(2.0, 1500.0, block)]))
    assert z.size > 2 * block
    rows = bessel.bessel_k((0, 1, 2), z)
    scalar = np.array([bessel.bessel_k((0, 1, 2), x) for x in z.tolist()]).T
    assert rows.tobytes() == np.ascontiguousarray(scalar).tobytes()
    ratios = np.array([bessel.ratio_A(x) for x in z.tolist()])
    assert bessel.ratio_A(z).tobytes() == ratios.tobytes()


def test_series_bits_hold_from_a_point_own_term_count_to_13():
    # a block's largest t sets the term count of all its series points: no K0 or K1
    # bit may depend on it
    z = np.concatenate([np.geomspace(bessel.Z_MIN, 1e-4, 1000), np.geomspace(1e-4, 2.0, 10_000),
                        np.linspace(0.0, 2.0, 10_001)[1:]])
    t, log_half_z = 0.25 * z * z, np.log(0.5 * z)
    own = np.array([bessel._series_terms(x) for x in t.tolist()])
    assert (own.min(), own.max()) == (1, 13)
    k = np.array([bessel._series_k(z, log_half_z, *bessel._series_sums(t, n))
                  for n in range(1, 14)])
    want = k[own - 1, :, np.arange(z.size)].T  # (K0, K1) at each point's own count
    for n in range(1, 14):
        at = own <= n
        assert k[n - 1][:, at].tobytes() == want[:, at].tobytes(), n


def _compacting_cf(z, with_s):
    """The continued-fraction loop as it was before suffix slicing: every
    retirement compacts the live arrays with a boolean mask."""
    h_out, s_out = np.empty_like(z), np.empty_like(z)
    live = np.arange(z.size)
    b = 2.0 * (1.0 + z)
    d = 1.0 / b
    h, delh = d.copy(), d.copy()
    q1, q2, q = np.zeros_like(z), np.ones_like(z), np.full_like(z, 0.25)
    s = 1.0 + q * delh
    c, a = 0.25, -0.25
    for i in range(2, 4000):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q = q + c * qnew
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h = h + delh
        dels = q * delh
        s = s + dels
        done = np.abs(dels) <= 1e-17 * np.abs(s) if with_s else np.abs(delh) <= 1e-17 * np.abs(h)
        if done.any():
            s_out[live[done]], h_out[live[done]] = s[done], h[done]
            keep = ~done
            live, b, d, h, delh, q1, q2, q, s = (
                v[keep] for v in (live, b, d, h, delh, q1, q2, q, s))
            if not live.size:
                break
    return h_out, s_out


def _cf_grids():
    rng, block = np.random.default_rng(20201), bessel._KERNEL_BLOCK
    spectrum = [math.pi * eps * np.arange(1, 20001) for eps in (0.01, 0.003, 0.0316)]
    ascending = [z[z > bessel.SERIES_CUTOFF] for z in spectrum]
    near = np.sort(bessel.SERIES_CUTOFF + rng.uniform(0.0, 1e-6, 200))
    wide = np.sort(rng.uniform(bessel.SERIES_CUTOFF, 1500.0, 5000))
    return (ascending + [near, wide]                    # retirements are suffixes
            + [z[::-1] for z in ascending[:1] + [wide]]  # prefixes: compaction
            + [rng.permutation(np.concatenate([near, wide]))]
            + [np.array([x]) for x in (np.nextafter(2.0, 3.0), 2.5, 30.0, 700.0, 1500.0)]
            # sizes about the kernel's block edge, and a shuffle longer than a
            # block, each run as one loop
            + [ascending[0][:n] for n in (block - 1, block, block + 1, 2 * block + 7)]
            + [rng.permutation(np.concatenate([near, wide, ascending[2]]))])


@pytest.mark.parametrize("z", _cf_grids(), ids=lambda z: f"{z.size}pts")
def test_cf_matches_compacting_loop_bitwise(z):
    # the one loop, on the array and point by point on Python floats
    h_ref, s_ref = _compacting_cf(z, with_s=True)
    h, s = bessel._cf(z, with_s=True)
    assert h.tobytes() == h_ref.tobytes() and s.tobytes() == s_ref.tobytes()
    h, s = zip(*(bessel._cf(x, with_s=True) for x in z.tolist()))
    assert np.array(h).tobytes() == h_ref.tobytes() and np.array(s).tobytes() == s_ref.tobytes()
    h_ref, _ = _compacting_cf(z, with_s=False)
    assert bessel._cf(z, with_s=False).tobytes() == h_ref.tobytes()


def _term_counts(bits):
    """The series' term count at each double whose bit pattern is in ``bits``."""
    return [bessel._series_terms(t) for t in np.asarray(bits, dtype=np.int64).view(float).tolist()]


def test_series_term_count_never_falls_as_t_grows():
    # every series point of a batch takes the count of the batch's largest t,
    # which is where the joint stop of all their own tests falls only if the
    # count is monotone in t on [0, 1]: check it on a log grid, then over
    # +/-2000 adjacent doubles around each step of the count
    counts = [bessel._series_terms(t) for t in np.geomspace(1e-300, 1.0, 20001).tolist()]
    assert counts == sorted(counts) and (counts[0], counts[-1]) == (1, 13)
    assert bessel._series_terms(0.0) == 1
    lo, hi = (int(np.float64(t).view(np.int64)) for t in (1e-300, 1.0))
    for count in range(1, 13):
        a, b = lo, hi  # the count is at most ``count`` at a, above it at b
        while b - a > 1:
            mid = (a + b) // 2
            a, b = (a, mid) if _term_counts([mid])[0] > count else (mid, b)
        near = _term_counts(np.arange(b - 2000, b + 2001))
        assert near == sorted(near) and near[1999] == count and near[2000] == count + 1


# ---------------------------------------------------------------------------
# the small-batch path on Python floats against the numpy loops
# ---------------------------------------------------------------------------

#: z where the series' joint stop moves a bit of the psi-weighted I1 sum (it
#: crosses zero near here) against the element's own stop, next to z = 2
_JOINT_STOP_Z = 0.930778


def _kernel_outputs(z):
    """bessel_k on a tuple and on single orders, ratio_A and ratio_B at z."""
    outs = [bessel.ratio_A(z), bessel.ratio_B(z), bessel.bessel_k((0, 1), z),
            bessel.bessel_k(0, z), bessel.bessel_k(1, z)]
    if np.min(z) >= bessel.Z_MIN_K2:
        outs += [bessel.bessel_k((0, 1, 2), z), bessel.bessel_k(2, z)]
    return outs


def _assert_same_bits_as_numpy_loops(outputs, z):
    got = outputs(z)
    with mock.patch.object(bessel, "_SMALL", 0):
        want = outputs(z)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _small_grids():
    rng = np.random.default_rng(9)
    zc = bessel.SERIES_CUTOFF
    n = bessel._SMALL
    wide = [np.exp(rng.uniform(math.log(1e-8), math.log(1500.0), size)) for size in range(1, n + 2)]
    straddle = np.concatenate([np.linspace(zc - 0.3, zc + 0.3, n - 3),
                               [zc, np.nextafter(zc, 3.0), np.nextafter(zc, 1.0)]])
    straddle.sort()
    spectrum = math.pi * 0.05 * np.arange(1, n + 1)
    return [("wide", z) for z in wide] + [
        ("straddle", straddle), ("straddle-desc", straddle[::-1]),
        ("straddle-shuffled", rng.permutation(straddle)),
        ("spectrum-desc", spectrum[::-1]), ("spectrum-shuffled", rng.permutation(spectrum)),
        ("to-1500", np.array([700.0, 705.0, 1000.0, 1499.0, 1500.0])),
        ("joint-stop", np.array([1e-8, _JOINT_STOP_Z, 2.0, 1500.0])),
        ("tiny-and-large", np.array([1500.0, 1e-8, 3.5, 1e-6, 1.9999, 0.5, 40.0])),
        ("lower-edge", np.array([bessel.Z_MIN, np.nextafter(bessel.Z_MIN, 1.0), 1e-300,
                                 bessel.Z_MIN_K2, 1e-100, 1.0])),
        ("lower-edge-k2", np.array([bessel.Z_MIN_K2, np.nextafter(bessel.Z_MIN_K2, 1.0), 1e-100])),
    ]


@pytest.mark.parametrize("name, z", _small_grids(),
                         ids=[f"{name}-{z.size}" for name, z in _small_grids()])
def test_small_batch_path_matches_numpy_loops_bitwise(name, z):
    # the Python-float path runs the loops point by point, the numpy path on
    # arrays: the same operations in the same order, which IEEE rounds alike
    _assert_same_bits_as_numpy_loops(_kernel_outputs, z)


def _joint_and_own_count_sums(first, t):
    """The psi-weighted I1 sum at ``first``, t[0] as an array or a float, to
    the count of max(t) and to its own count."""
    return [bessel._series_sums(first, bessel._series_terms(float(x)))[3] for x in (max(t), t[0])]


def test_joint_stop_grid_moves_bits_against_a_per_element_stop():
    # the "joint-stop" grid above has teeth: the count of the batch's largest
    # t gives the element at _JOINT_STOP_Z other bits than its own count
    t = 0.25 * np.array([_JOINT_STOP_Z, 2.0]) ** 2
    joint, own = _joint_and_own_count_sums(t[:1], t)
    assert joint[0] != own[0]


def test_every_series_point_takes_the_count_of_the_batch_largest_t():
    # extra terms are below 1e-18 of the sums and moved no K bit on 600 000
    # sampled z, so the outputs alone cannot show the count each form uses
    for small in (bessel._SMALL, 0):
        with (mock.patch.object(bessel, "_SMALL", small),
              mock.patch.object(bessel, "_series_sums", wraps=bessel._series_sums) as sums):
            bessel.bessel_k((0, 1), np.array([1e-8, _JOINT_STOP_Z, 2.0, 1500.0]))
        assert {call.args[1] for call in sums.call_args_list} == {bessel._series_terms(1.0)}


@pytest.mark.parametrize("z", [0.5, 2.0, np.nextafter(2.0, 3.0), 2.5, 30.0, 705.0, 1500.0])
def test_scalar_calls_match_numpy_loops_bitwise(z):
    _assert_same_bits_as_numpy_loops(_kernel_outputs, z)


@settings(max_examples=80, deadline=None)
@given(st.lists(_ANY_Z, min_size=1, max_size=bessel._SMALL))
def test_property_small_batch_path_matches_numpy_loops(zs):
    _assert_same_bits_as_numpy_loops(_kernel_outputs, np.array(zs))


def _assert_float_loops_match_numpy_loops(z):
    """The one series loop and the one continued-fraction loop, run on the
    array z and on each of its points as a Python float, output by output: a
    per-element series count or a reordered continued-fraction step can leave
    every kernel output's bits as they are."""
    t = 0.25 * z[z <= bessel.SERIES_CUTOFF] ** 2
    if t.size:
        terms = bessel._series_terms(float(t.max()))
        points = zip(*(bessel._series_sums(x, terms) for x in t.tolist()))
        for got, want in zip(points, bessel._series_sums(t, terms), strict=True):
            assert np.array(got).tobytes() == want.tobytes()
    cf_z = np.maximum(z, np.nextafter(bessel.SERIES_CUTOFF, 3.0))
    for got, want in zip(zip(*(bessel._cf(x, with_s=True) for x in cf_z.tolist())),
                         bessel._cf(cf_z, with_s=True), strict=True):
        assert np.array(got).tobytes() == want.tobytes()
    h = [bessel._cf(x, with_s=False) for x in cf_z.tolist()]
    assert np.array(h).tobytes() == bessel._cf(cf_z, with_s=False).tobytes()


@pytest.mark.parametrize("name, z", _small_grids(),
                         ids=[f"{name}-{z.size}" for name, z in _small_grids()])
def test_float_loops_match_numpy_loops_bitwise(name, z):
    _assert_float_loops_match_numpy_loops(z)


@settings(max_examples=80, deadline=None)
@given(st.lists(_ANY_Z, min_size=1, max_size=bessel._SMALL))
def test_property_float_loops_match_numpy_loops(zs):
    _assert_float_loops_match_numpy_loops(np.array(zs))


def test_float_series_joint_stop_moves_bits_against_a_per_element_stop():
    # as for the array: on floats too the count of the batch's largest t moves bits
    t = [0.25 * _JOINT_STOP_Z ** 2, 0.25 * 2.0 ** 2]
    joint, own = _joint_and_own_count_sums(t[0], t)
    assert joint != own


# ---------------------------------------------------------------------------
# the public entries: small batches on Python floats against the numpy path
# ---------------------------------------------------------------------------

#: every public kernel entry that takes any z
_ENTRIES = {
    **{f"bessel_k{order}": (lambda z, order=order: bessel.bessel_k(order, z))
       for order in (0, 1, 2, (0, 1), (0, 1, 2), (2, 0))},
    "ratio_A": bessel.ratio_A,
    "ratio_B": bessel.ratio_B,
    "check_ratio_bounds": bessel.check_ratio_bounds,
    "check_small_z_bounds": bessel.check_small_z_bounds,
}
#: ``bessel_k_detail`` takes scalar z only
_SCALAR_ENTRIES = {**_ENTRIES, **{f"detail{order}": (lambda z, order=order:
                                                     bessel.bessel_k_detail(order, z))
                                  for order in (1, (0, 1, 2))}}
#: edges of the domain and of the two routes, and values outside the domain
_EDGE_Z = (bessel.Z_MIN, np.nextafter(bessel.Z_MIN, 0.0), bessel.Z_MIN_K2,
           np.nextafter(bessel.Z_MIN_K2, 0.0), bessel.Z_MAX, 1.5 * bessel.Z_MAX,
           bessel.SERIES_CUTOFF, np.nextafter(bessel.SERIES_CUTOFF, 3.0), 0.5, 720.0,
           math.nan, math.inf, -math.inf, 0.0, -1.0)
#: up to 1e6: past ~1e154 the numpy loops overflow (with RuntimeWarnings) where
#: the float loops do so silently
_ENTRY_Z = st.one_of(st.floats(min_value=1e-300, max_value=1e6), st.sampled_from(_EDGE_Z))
_SCALAR_FORMS = {"float": float, "float64": np.float64, "0-d": np.array}


def _bits(out):
    """Type, dtype, shape and bytes of a result, recursively through tuples."""
    if isinstance(out, tuple):
        return tuple(map(_bits, out))
    return type(out), np.asarray(out).dtype, np.shape(out), np.asarray(out).tobytes()


def _outcome(fn, z):
    try:
        return _bits(fn(z))
    except Exception as err:  # the error type and text are the outcome
        return type(err), str(err)


def _assert_entry_matches_numpy_path(entry, z):
    got = _outcome(entry, z)
    with mock.patch.object(bessel, "_SMALL", 0):
        want = _outcome(entry, z)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_SCALAR_ENTRIES)),
       st.one_of(st.builds(lambda form, z: _SCALAR_FORMS[form](z),
                           st.sampled_from(sorted(_SCALAR_FORMS)), _ENTRY_Z),
                 st.integers(min_value=-3, max_value=10**6)))
def test_property_scalar_entry_matches_numpy_path(name, z):
    # result type, bits and error text as on the numpy path, for a Python
    # float, np.float64, 0-d array or int
    _assert_entry_matches_numpy_path(_SCALAR_ENTRIES[name], z)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_ENTRIES)), st.lists(_ENTRY_Z, max_size=bessel._SMALL))
def test_property_small_batch_entry_matches_numpy_path(name, zs):
    _assert_entry_matches_numpy_path(_ENTRIES[name], np.array(zs, dtype=float))


def test_small_batch_entry_covers_scalars_and_batches():
    # the switch sits at the entry: up to _SMALL points never reach the numpy
    # kernel, and one more point always does
    with mock.patch.object(bessel, "_k0_k1", side_effect=AssertionError("numpy path")):
        for z in (3.0, np.float64(3.0), np.array(3.0), 3, np.full(bessel._SMALL, 3.0)):
            bessel.bessel_k((0, 1, 2), z), bessel.ratio_A(z), bessel.ratio_B(z)
        with pytest.raises(AssertionError, match="numpy path"):
            bessel.bessel_k(0, np.full(bessel._SMALL + 1, 3.0))


def test_checks_validate_once():
    # the margin checks validated z themselves and again in the kernel
    for check, z in ((bessel.check_ratio_bounds, np.geomspace(1e-6, 100.0, 100)),
                     (bessel.check_small_z_bounds, np.linspace(1e-4, 0.9, 100))):
        with mock.patch.object(bessel, "_validate_z", wraps=bessel._validate_z) as validate:
            check(z)
        assert validate.call_count == 1
    with pytest.raises(bessel.BesselDomainError):
        bessel.check_small_z_bounds(np.array([0.5, math.nan, 2.0]))


def test_lower_edge_of_z():
    # K1 ~ 1/z overflowed below ~5.6e-309 and K2 ~ 2/z^2 below ~1.05e-154
    for with_k2, z_min in ((False, bessel.Z_MIN), (True, bessel.Z_MIN_K2)):
        orders = (0, 1, 2) if with_k2 else (0, 1)
        for z in (z_min, np.array([z_min, 1.0])):
            assert np.all(np.isfinite(bessel.bessel_k(orders, z)))
        for bad in (np.nextafter(z_min, 0.0), np.array([1.0, 0.5 * z_min])):
            with pytest.raises(bessel.BesselDomainError, match="overflows a double below"):
                bessel.bessel_k(orders, bad)
    assert np.isfinite(bessel.ratio_A(bessel.Z_MIN)) and np.isfinite(bessel.ratio_B(bessel.Z_MIN))
    for fn in (bessel.ratio_A, bessel.ratio_B):
        with pytest.raises(bessel.BesselDomainError):
            fn(1e-310)


def test_upper_edge_of_z():
    # the continued fraction's 2 (1 + z) overflowed from 2**1023, and the ratios gave nan
    top = np.nextafter(bessel.Z_MAX, 0.0)
    for z in (8.98e307, top, np.array([1.0, top])):
        assert np.all(np.isfinite(bessel.ratio_A(z))) and np.all(np.isfinite(bessel.ratio_B(z)))
        assert np.all(bessel.bessel_k((0, 1), z) >= 0.0)
    for fn in (bessel.ratio_A, bessel.ratio_B, lambda z: bessel.bessel_k(0, z),
               bessel.check_ratio_bounds):
        for bad in (bessel.Z_MAX, np.array([1.0, 1.5 * bessel.Z_MAX])):
            with pytest.raises(bessel.BesselDomainError, match=r"z < 2\*\*1023"):
                fn(bad)


def test_oracle_checks_the_k2_lower_edge():
    # the oracle warned "invalid value encountered in subtract" and returned nan for K2
    for order in (2, (0, 1, 2)):
        for z in (1e-200, np.nextafter(bessel.Z_MIN_K2, 0.0), np.array([1.0, 1e-200])):
            with pytest.raises(bessel.BesselDomainError, match="K2"):
                bessel.oracle_bessel_k(order, z)
    assert np.isfinite(bessel.oracle_bessel_k((0, 1, 2), 1e-150)).all()
    assert bessel.oracle_bessel_k(0, 1e-200) == pytest.approx(bessel.bessel_k(0, 1e-200),
                                                               rel=1e-12)


@pytest.mark.parametrize("order, z", [
    (0, bessel.Z_MIN), (1, bessel.Z_MIN), ((0, 1), np.array([bessel.Z_MIN, 1e-200, 1.0])),
    (2, bessel.Z_MIN_K2), ((0, 1, 2), bessel.Z_MIN_K2),
    ((0, 1, 2), np.array([np.nextafter(bessel._ORACLE_DEEP_Z, 0.0), bessel._ORACLE_DEEP_Z])),
])
def test_oracle_at_the_lower_edges(order, z):
    # 120/z overflowed at Z_MIN (an infinite truncation point) and cosh(2t)
    # at Z_MIN_K2 (inf - inf), with RuntimeWarnings, where bessel_k is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bessel.oracle_bessel_k(order, z)
    want = bessel.bessel_k(order, z)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want) / want) <= 1e-12
    if np.ndim(order):
        for row, o in zip(got, order):
            assert np.array_equal(row, bessel.oracle_bessel_k(o, z))


#: the 26 of the 2000 points of np.geomspace(Z_MIN, 705, 2000), each called alone, where the
#: oracle's old deep log form (t + log(z/2), two terms of size ~700) stalled for K1
_K1_DEEP_STALLS = (6, 23, 24, 39, 48, 64, 81, 82, 92, 116, 117, 137, 145, 181, 222, 230, 245,
                   264, 265, 291, 299, 333, 387, 395, 440, 470)


def _deep_oracle_error(order, z):
    """Relative error of the oracle against mpmath's K at 50 digits, over the points z."""
    mpmath = pytest.importorskip("mpmath")
    got = [bessel.oracle_bessel_k(order, float(x)) for x in z]
    with mpmath.workdps(50):
        return max(float(abs(mpmath.mpf(g) / mpmath.besselk(order, float(x)) - 1))
                   for g, x in zip(got, z))


def test_deep_oracle_certifies_where_the_log_form_stalled():
    # each point raised BesselAccuracyError (1.009e-14, 1.489e-14, ... against 1e-14)
    grid = np.geomspace(bessel.Z_MIN, bessel.UNDERFLOW_Z, 2000)
    assert _deep_oracle_error(1, grid[list(_K1_DEEP_STALLS)]) <= bessel._ORACLE_RTOL
    assert _deep_oracle_error(2, [1.0859582503275125e-153]) <= bessel._ORACLE_RTOL
    assert _deep_oracle_error(0, grid[:480:16]) <= bessel._ORACLE_RTOL


def test_deep_oracle_k2_on_a_dense_grid():
    # order 2 reaches the deep form only between Z_MIN_K2 and _ORACLE_DEEP_Z
    z = np.geomspace(bessel.Z_MIN_K2, bessel._ORACLE_DEEP_Z, 150, endpoint=False)
    assert _deep_oracle_error(2, z) <= bessel._ORACLE_RTOL


def test_oracle_at_the_upper_edge():
    # past UNDERFLOW_Z K is subnormal: the oracle stalled (2.082e-08 at z = 720)
    # and from z ~ 740 returned a "certified" 0.0 where bessel_k gives 2e-323
    for order in (0, 1, 2):
        got = bessel.oracle_bessel_k(order, bessel.UNDERFLOW_Z)
        assert got == pytest.approx(bessel.bessel_k(order, bessel.UNDERFLOW_Z), rel=1e-12)
    for z in (np.nextafter(bessel.UNDERFLOW_Z, 1e3), 710.0, 740.0, 1e4):
        for arg in (z, np.array([1.0, z])):
            for order in (0, 1, 2, (0, 1, 2)):
                with pytest.raises(bessel.BesselDomainError, match="705"):
                    bessel.oracle_bessel_k(order, arg)


def test_k_is_zero_where_exp_underflows():
    # the continued fraction's s-recurrence overflows from z ~ 1e154: K0 and K1 were
    # nan there (bessel_k((0, 1), 9.329304026284543e+293) gave [nan nan]), with
    # overflow and invalid RuntimeWarnings on arrays, although exp(-z) is 0.0
    z = np.geomspace(746.0, 2.0**1022, 400)
    assert np.exp(-z[0]) == 0.0
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
        warnings.simplefilter("error")
        rows = bessel.bessel_k((0, 1, 2), z)
        scalars = np.transpose([bessel.bessel_k((0, 1, 2), float(x)) for x in z])
        ratios = bessel.ratio_A(z), bessel.ratio_B(z)
    for got in (rows, scalars):
        assert got.shape == (3, z.size)
        assert np.all(got == 0.0) and not np.any(np.signbit(got))
    assert all(np.all(np.isfinite(r) & (r > 0.0)) for r in ratios)


@pytest.mark.parametrize("order", [{0, 2}, frozenset({1}), "0", None],
                         ids=["set", "frozenset", "str", "None"])
def test_order_is_one_order_or_a_sequence_of_them(order):
    # a set has no order for its rows; np.ndim of a set is 0, so it is one (bad) order
    for route in (bessel.bessel_k, bessel.bessel_k_detail):
        with pytest.raises(ValueError, match="order must be 0, 1 or 2"):
            route(order, 1.0)


@pytest.mark.parametrize("order", [1.0, np.float64(0.0), 2.0 + 0j, (0, 1.0), (np.float64(2.0),)],
                         ids=["float", "float64", "complex", "tuple-float", "tuple-float64"])
def test_order_must_be_an_integer(order):
    # 1.0 == 1, so a float order passed the check: bessel_k raised "tuple indices
    # must be integers" and the oracle returned K1
    for route in (bessel.bessel_k, bessel.bessel_k_detail, bessel.oracle_bessel_k):
        with pytest.raises(ValueError, match="order must be 0, 1 or 2"):
            route(order, 3.0)


def test_numpy_integer_orders_work():
    one = np.int64(1)
    assert bessel.bessel_k(one, 3.0) == bessel.bessel_k(1, 3.0)
    assert bessel.oracle_bessel_k(one, 3.0) == bessel.oracle_bessel_k(1, 3.0)
    assert bessel.bessel_k_detail(one, 3.0) == bessel.bessel_k_detail(1, 3.0)
    rows = bessel.bessel_k((one, np.int32(0)), np.array([3.0, 4.0]))
    assert np.array_equal(rows, bessel.bessel_k((1, 0), np.array([3.0, 4.0])))


@pytest.mark.parametrize("z, match", [(10**400, r"K_nu requires z < 2\*\*1023"),
                                      ([1.0, 10**400], r"K_nu requires z < 2\*\*1023"),
                                      (-(10**400), "requires finite z >=")],
                         ids=["int", "list", "negative"])
def test_int_past_the_double_range_is_a_domain_error(z, match):
    # float(z) raised a raw OverflowError ("int too large to convert to float")
    routes = [bessel.ratio_A, bessel.ratio_B, bessel.check_ratio_bounds,
              bessel.check_small_z_bounds, lambda z: bessel.bessel_k(0, z),
              lambda z: bessel.bessel_k((0, 1, 2), z), lambda z: bessel.oracle_bessel_k(1, z)]
    if np.ndim(z) == 0:
        routes.append(lambda z: bessel.bessel_k_detail((0, 1), z))
    for route in routes:
        with pytest.raises(bessel.BesselDomainError, match=match):
            route(z)
    for small in (bessel._SMALL, 0):
        with mock.patch.object(bessel, "_SMALL", small), pytest.raises(bessel.BesselDomainError):
            bessel.bessel_k(1, z)


def test_exp_underflow_band_raises_no_flag_on_the_point_route():
    # exp(-z) is subnormal from z ~ 708.40 and 0.0 from z ~ 745.13: the point route
    # runs np.exp under np.errstate only past 708, and its bits are the arrays'
    z = np.unique(np.concatenate([np.linspace(700.0, 760.0, 2401), [708.0, 745.0, 745.2],
                                  np.nextafter([708.0, 708.3964, 745.1332], [0.0, 1e3, 1e3])]))
    assert np.exp(-z.max()) == 0.0 and 0.0 < np.exp(-710.0) < sys.float_info.min
    with np.errstate(under="ignore"):
        k0, k1 = bessel._k0_k1(z)
        want = np.array([k0, k1, k0 + 2.0 * k1 / z])
    ratio = bessel._k0_k1(z, ratio=True)
    n = bessel._SMALL
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        scalars = np.transpose([bessel.bessel_k((0, 1, 2), x) for x in z.tolist()])
        batches = np.hstack([bessel.bessel_k((0, 1, 2), z[i:i + n]) for i in range(0, z.size, n)])
        ratio_b = [bessel.ratio_B(x) for x in z.tolist()]
    assert scalars.tobytes() == want.tobytes() and batches.tobytes() == want.tobytes()
    assert np.array(ratio_b).tobytes() == (z * ratio).tobytes()


# ---------------------------------------------------------------------------
# the K1/K0 table cache
# ---------------------------------------------------------------------------

def _ratio_outputs(z):
    """Every reader of the ratio route at z: ratio_A, ratio_B, both margins of
    check_ratio_bounds, and the B, B_t and B_n rows of b_function."""
    return [bessel.ratio_A(z), bessel.ratio_B(z), *bessel.check_ratio_bounds(z),
            *spectra.b_function(("B", "B_t", "B_n"), z)]


def _cold(outputs, z):
    bessel._ratio_tables.clear()
    return outputs(z)


def _cache_grids():
    z = np.geomspace(1e-3, 900.0, 6000)  # series and continued-fraction points, past UNDERFLOW_Z
    wide = np.random.default_rng(37).uniform(1e-6, 50.0, (3, 2 * bessel._KERNEL_BLOCK))
    return [("1d", z), ("2d", z[:5400].reshape(60, 90)), ("2d-two-blocks", wide),
            ("strided", z[::3]), ("reversed", z[::-1]), ("fortran", z[:5400].reshape(90, 60).T)]


@pytest.mark.parametrize("name, z", _cache_grids(), ids=[name for name, _ in _cache_grids()])
def test_warm_and_cold_calls_give_the_same_bits(name, z):
    cold = _cold(_ratio_outputs, z)
    assert len(bessel._ratio_tables) == 1
    with mock.patch.object(bessel, "_k0_k1_block", side_effect=AssertionError("recomputed")):
        warm = _ratio_outputs(z)
        copy = _ratio_outputs(np.array(z, order="C"))  # the same bytes hit the same table
    for a, b, c in zip(cold, warm, copy):
        assert a.shape == z.shape and a.tobytes() == b.tobytes() == c.tobytes()


def test_a_table_belongs_to_its_shape():
    z = np.geomspace(1e-3, 900.0, 600)
    flat, square = bessel.ratio_B(z), bessel.ratio_B(z.reshape(20, 30))
    assert len(bessel._ratio_tables) >= 2 and square.shape == (20, 30)
    assert square.tobytes() == flat.tobytes() == _cold(bessel.ratio_B, z).tobytes()


def test_a_z_one_ulp_away_misses():
    z = np.geomspace(1e-3, 900.0, 600)
    bessel.ratio_A(z)
    for at in (0, 299, 599):
        near = z.copy()
        near[at] = np.nextafter(near[at], math.inf)
        with mock.patch.object(bessel, "_k0_k1_block", wraps=bessel._k0_k1_block) as block:
            got = bessel.ratio_A(near)
        assert block.call_count == 1
        assert got.tobytes() == _cold(bessel.ratio_A, near).tobytes()


def test_a_hit_is_read_only_and_the_caller_z_stays_its_own():
    z = np.geomspace(1e-3, 900.0, 600)
    want = _cold(_ratio_outputs, z.copy())
    for table in (bessel._k0_k1(z, ratio=True), bessel._k0_k1(z, ratio=True)):  # a miss, a hit
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0
    assert all(out.flags.writeable for out in _ratio_outputs(z))
    z[100:200] = 5.0  # the caller's array changes after its table was kept
    mutated = _ratio_outputs(z)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(mutated, _cold(_ratio_outputs, z)))
    z[100:200] = np.geomspace(1e-3, 900.0, 600)[100:200]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(_ratio_outputs(z), want))


def test_a_stream_of_distinct_arrays_keeps_at_most_the_byte_cap():
    # 5000 points fill the cap: each new table evicts the least recently used ones, and
    # one past the cap alone is returned but not kept
    cap, rng = 40_000, np.random.default_rng(38)
    bessel._ratio_tables.clear()
    with mock.patch.object(bessel, "_RATIO_CACHE_BYTES", cap):
        first = rng.uniform(0.1, 50.0, 400)
        for size in (40, 500, 1200, 5001, 64, 3000, 40, 700, 4600, 2000, 9000):
            bessel.ratio_A(first)  # the most recently used, so never evicted
            z = rng.uniform(0.1, 50.0, size)
            assert bessel.ratio_A(z).tobytes() == (1.0 / bessel._k0_k1(z, ratio=True)).tobytes()
            sizes = [t.size for t in bessel._ratio_tables.values()]  # least recently used first
            assert 8 * sum(sizes) == bessel._ratio_tables.nbytes <= cap
            assert sizes[-2:] == [first.size, size] if size <= 5000 else sizes[-1] == first.size


def test_the_k0_k1_route_keeps_no_table():
    bessel._ratio_tables.clear()
    z = np.geomspace(1e-3, 900.0, 600)
    bessel.bessel_k((0, 1, 2), z), bessel.check_small_z_bounds(z[z < 1.0])
    assert not bessel._ratio_tables


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0, bessel.Z_MAX])
def test_a_domain_error_is_the_same_with_a_table_of_that_shape_kept(bad):
    z = np.geomspace(1e-3, 900.0, 600)
    wrong = z.copy()
    wrong[300] = bad
    for fn in (bessel.ratio_A, bessel.ratio_B, bessel.check_ratio_bounds):
        messages = []
        for warm in (False, True):
            bessel._ratio_tables.clear()
            if warm:
                fn(z)
            with pytest.raises(bessel.BesselDomainError) as err:
                fn(wrong)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
