"""Spectral toolkit for the slender-body inverse problem on a straight periodic fiber.

Modules:
    bessel      from-scratch K0/K1/K2 with a quadrature oracle
    tables      the paper's constant tables and the CLI's choice lists, numpy-free
    spectra     closed-form eigenvalue families and their ODE machinery
    profiles    exterior radial mode solutions and the traction oracle
    operators   periodic Fourier fields and diagonal operator application
    dynamics    linearized filament relaxation and time-step stability
    experiments convergence rates, well-posedness constants, optimal delta
    checks      verification suites
    cli         command-line interface

The exports in ``__all__`` are resolved on first access (PEP 562), from
``bessel`` or ``spectra``: ``import slenderspec`` loads neither, nor numpy, so
the command line pays only for the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "bessel_k", "oracle_bessel_k", "ratio_A", "ratio_B",
    "EigenFamily", "Mode", "b_function", "eigenvalue", "eigenvalues",
    "__version__",
]

#: the module that defines each lazy export, in the order of ``__all__``
_HOMES = dict.fromkeys(__all__[:4], "bessel") | dict.fromkeys(__all__[4:-1], "spectra")


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
