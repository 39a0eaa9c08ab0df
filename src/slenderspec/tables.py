"""The paper's constant tables and the command line's choice lists, on the stdlib alone: the
parser and every ``--help`` load no numpy.  ``spectra`` reads the tables from here."""

import math
from collections import namedtuple

SQRT_E = math.sqrt(math.e)


#: The constants of one direction, each written only here:
#: setting      the setting the direction belongs to
#: prefactor    the pde eigenvalue is prefactor * B(z)
#: log_family   (num, c0, m): the sbt and delta families are num / (c0 + m L), with
#:              L = -(log(z/2) + g) for sbt and L = log(delta) + K0(delta z) for delta_reg
#: growth       (lo, width): lo pi^2 eps |k| < lambda_pde < lo pi^2 eps |k| + width
#: delta_term   the delta Gronwall constant is delta_term(w) + B_pde(w) at the delta window w
#: bounds       'sbt' / 'delta_reg' -> (window, Gronwall constant, proof constant as a
#:              function of it): the difference bound holds up to z = pi eps |k| = window,
#:              and the sbt window is also the truncation default
_Direction = namedtuple("_Direction", "setting prefactor log_family growth delta_term bounds")
_DIRECTIONS = {
    "longitudinal": _Direction(
        "laplace", 2.0 * math.pi, (1.0, 0.0, 1.0), (2.0, math.pi), lambda w: 1.0 / abs(math.log(w)),
        {"sbt": (0.45, "c_B", lambda c: 2.0 * math.pi**3 / (2.0 - c)),
         "delta_reg": (0.4, "c_l2", lambda c: 82.0 * math.pi**3)}),
    "tangential": _Direction(
        "stokes", 4.0 * math.pi, (1.0, -1.0, 2.0), (4.0, 2.0 * math.pi),
        lambda w: 4.0 / (5.0 * abs(math.log(w))),
        {"sbt": (0.25, "c_t", lambda c: 4.0 * math.pi**3 / (1.0 - c)),
         "delta_reg": (0.25, "c_t2", lambda c: 24.0 * math.pi**3 / (1.0 - c))}),
    "normal": _Direction(
        "stokes", 2.0 * math.pi, (4.0, 1.0, 2.0), (3.0, 3.0 * math.pi),
        lambda w: 4.0 / (1.0 + 2.0 * abs(math.log(w))),
        {"sbt": (0.73, "c_n", lambda c: 9.0 * math.pi**3 / (2.0 * (4.0 - c))),
         "delta_reg": (2.0 / 3.0, "c_n2", lambda c: 40.0 * math.pi**3 / (4.0 - c))}),
}

#: The constants of one setting: delta_reg needs delta > threshold, and the
#: experiments use ``direction`` on fields of ``n_components`` components.
_Setting = namedtuple("_Setting", "threshold direction n_components")
_SETTINGS = {"laplace": _Setting(1.0, "longitudinal", 1),
             "stokes": _Setting(SQRT_E, "tangential", 3)}

#: the keys of profiles._PROFILES, and of checks.SUITES in the order ``verify all`` runs them
PROFILE_DIRECTIONS = ("laplace_scalar", "tangential", "normal")
SUITE_NAMES = ("bessel", "oracle", "inequalities", "appendixC", "differences", "dynamics")
