"""Error exponents for discriminating translation-invariant bosonic Gaussian states.

Closed-form finite-volume and asymptotic quantities (Chernoff and Hoeffding
distances, relative entropies, the rate polar function) for a pair of
gauge-invariant Gaussian states on a cubic lattice, together with a
truncated Fock-space simulator that independently verifies every closed
form.

Each quantity has one way in: the methods of ``FiniteProblem`` (the cube of
side n) and ``AsymptoticProblem`` (the per-site limit), and the functions of
``fock``.  The imports below are the whole public surface.
"""

from .symbols import (
    DiscriminationProblem,
    DisplacementSpec,
    GaussianStateSpec,
    SymbolSpec,
    make_displacement,
    make_trig_symbol,
    strict_positivity_required,
)
from .lattice import restrict_displacement, restrict_symbol
from .calculus import EigenSystem, eigh
from .finite import (
    FiniteProblem,
    FiniteStateData,
    build_state_data,
)
from .asymptotics import (
    AsymptoticProblem,
    QuadratureRule,
    make_rule,
)
from .fock import (
    FockBasis,
    NPResult,
    TruncatedFockState,
    build_basis,
    displacement_operator,
    displace_state,
    error_exponent_sweep,
    gaussian_density,
    lattice_state,
    neyman_pearson,
    nussbaum_szkola,
    quasi_power_trace,
)
from . import errors

__version__ = "0.1.0"
