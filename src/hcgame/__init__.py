"""Toolkit for the m-player hypercube labelling game.

Computes the game's classical value exactly by enumeration, its quantum
value through GHZ statevector simulation plus a one-parameter
maximisation, and a perfect no-signalling correlation with exact rational
verification, together with numerical checks of the supporting operator
inequalities.

Imported before numpy, hcgame runs BLAS on one thread: it sets
OPENBLAS_NUM_THREADS and MKL_NUM_THREADS to 1 unless one of them or
OMP_NUM_THREADS is already set.
"""

import os
import sys

# Every kernel works on 2x2 gates or operators of at most 64 dimensions, so
# BLAS threads never help, and OpenBLAS's idle workers spin: about 40% of a
# run's CPU on two cores.  numpy reads these once, when it first loads.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(name in os.environ for name in _BLAS_THREADS):
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["MKL_NUM_THREADS"] = "1"

from .classical import (
    DeterministicStrategy,
    brute_force_classical_value,
    canonical_strategy,
    classical_value_formula,
    strategy_value,
)
from .game import (
    Answer,
    FacetAssignment,
    chsh_bit_embedding,
    consistency_ok,
    facet_vertices,
    intersection_vertices,
    parity_ok,
    predicate,
    product_over_intersection,
    relaxed_predicate,
)
from .inequalities import (
    ConstrainedPair,
    build_S_T,
    chsh_style_pair,
    induced_edge_observable,
    lemma2_lhs,
    random_constrained_pairs,
    verify_converse_chain,
    verify_lemma2,
    verify_lemma3,
)
from .nosignalling import (
    SparseCorrelation,
    build_ns_correlation,
    in_Z,
    ns_winning_probability,
    verify_no_signalling,
    verify_normalization,
)
from .quantum import (
    QuantumStrategy,
    average_win_analytic,
    ghz_state,
    maximize_r,
    outcome_probability,
    outcome_to_answer,
    quantum_value,
    quantum_value_bounds,
    quantum_value_excess,
    r_function,
    winning_probability_operator,
    winning_probability_simulated,
    z_theta,
)

__version__ = "0.1.0"
