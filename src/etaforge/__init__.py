"""etaforge: a cross-checking toolkit for the Dedekind eta function.

Exact q-series identities (Euler product, pentagonal numbers, Jacobi triple
product), exact Dedekind sums with a logarithmic-time algorithm, modular-group
generator words, multi-route floating-point eta evaluation with rigorous
truncation bounds, and a CLI for verification campaigns.

The package exports exactly the names each submodule lists in its `__all__`.
"""

from . import campaigns, dedekind, evaluate, modgroup, qseries
from .campaigns import *
from .dedekind import *
from .evaluate import *
from .modgroup import *
from .qseries import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *qseries.__all__,
    *dedekind.__all__,
    *modgroup.__all__,
    *evaluate.__all__,
    *campaigns.__all__,
]
