"""Power series of square matrices and their Frechet differentials.

The package evaluates ``g(T) = sum_n a_n T^n`` for dense square matrices
``T`` inside the series' convergence ball, and computes the differential
``g'(T)(h)`` by four independent expansions (a direct monomial sum and
three commutant-based forms), with truncation lengths chosen from analytic
tail majorants.  Executable algebraic identities, independent numerical
oracles, parametric curve derivatives and an integral identity check round
out the toolbox; a JSON command-line interface lives in
:mod:`matseries.cli`.

The public names are those each submodule lists in its ``__all__``.
"""

from . import algebra, frechet, identities, oracle, series
from .algebra import *
from .frechet import *
from .identities import *
from .oracle import *
from .series import *

__version__ = "0.1.0"

__all__ = [*algebra.__all__, *frechet.__all__, *identities.__all__, *oracle.__all__, *series.__all__]
