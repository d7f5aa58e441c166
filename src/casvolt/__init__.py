"""Vacuum electric-field correlators near reflecting plates and the
energy/voltage fluctuation statistics they induce on a charged particle
flying perpendicular to them.

Natural units throughout the numerics: energies in eV, lengths and times in
1/eV, with converters in casvolt.units. The closed forms continue through
the light-cone pole; the quadrature oracle refuses such domains, which is
what makes it an independent check where both are defined.

Each module's __all__ declares what it makes public, and the package
re-exports those names. The oracle loads on first use: the names in
_ORACLE_NAMES resolve through the module __getattr__. numpy loads only with
a pair block longer than closed_forms._SCALAR_BLOCK or a call of
oracle.brute_dual_correlator, so `import casvolt`, `verify` (its
quadrature is pure Python) and every CLI command whose two-plate sums keep
to short blocks run without it.
"""
from . import closed_forms, correlators, errors, experiment, summation, units, variance
from .closed_forms import *
from .correlators import *
from .errors import *
from .experiment import *
from .summation import *
from .units import *
from .variance import *

__version__ = "0.1.0"

# casvolt.oracle's __all__
_ORACLE_NAMES = (
    "CscSeriesComparison",
    "DerivativeReport",
    "QuadratureResult",
    "VerificationReport",
    "brute_dual_correlator",
    "csc_identity",
    "deriv_check",
    "quad_image",
    "quad_one_plate",
    "run_verification",
    "variance_two_plate_series_smallv",
    "zeta_two_series",
)

__all__ = sorted({
    *closed_forms.__all__, *correlators.__all__, *errors.__all__, *experiment.__all__,
    *summation.__all__, *units.__all__, *variance.__all__, *_ORACLE_NAMES, "__version__",
})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from importlib import import_module

        return getattr(import_module(".oracle", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
