"""Exact lift counting and dimension bounds for coded self-affine carpets.

The package takes a shift of finite type with a one-block letter map
(or a torus carpet description, which induces one) and computes, with
tracked error bounds: exact preimage counts, partition sums, two-sided
pressure and Hausdorff-dimension brackets, finite-depth cylinder
measures with their Gibbs-type envelopes, almost-additivity scans, and
growth rates of lift counts at eventually periodic points.

Each module's ``__all__`` is the one declaration of its public names,
and the package re-exports the union of those of ``sft``, ``errors``,
``counting``, ``pressure``, ``measures``, ``render`` and ``specfile``.
``fixtures`` and ``cli`` stay out: import them as ``carpetdim.fixtures``
and ``carpetdim.cli``.
"""

from . import counting, errors, measures, pressure, render, sft, specfile
from .counting import *
from .errors import *
from .measures import *
from .pressure import *
from .render import *
from .sft import *
from .specfile import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name for module in (sft, errors, counting, pressure, measures, render, specfile) for name in module.__all__
]
