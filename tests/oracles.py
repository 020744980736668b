"""Exhaustive enumerators and plain reference kernels that the tests use
as oracles.

The answer space of a question has (2^(2^(m-1)))^m elements and the
strategy space of the game its square, so these walks stay cheap only at
m = 2 (strategies) and m <= 3 (answers); no library code calls them.
"""

import itertools
import math

import numpy as np

from hcgame import game, quantum
from hcgame.classical import DeterministicStrategy, _candidate_masks
from hcgame.game import FacetAssignment, answer_from_masks


def all_answers(m: int, q):
    """Every answer to question q: each player labels its facet in every way."""
    masks = itertools.product(range(1 << (1 << (m - 1))), repeat=m)
    return (answer_from_masks(m, q, row) for row in masks)


def enumerate_strategies(m: int):
    """Every deterministic strategy: each player picks a labelling for each
    value of its question bit."""
    candidates = _candidate_masks(m, restrict_parity=False)
    pools = [
        [
            (FacetAssignment(m, p + 1, 0, m0), FacetAssignment(m, p + 1, 1, m1))
            for m0 in candidates[p][0]
            for m1 in candidates[p][1]
        ]
        for p in range(m)
    ]
    return (DeterministicStrategy(m, combo) for combo in itertools.product(*pools))


def maximize_r_grid_per_call(power: int) -> quantum.RMaximum:
    """quantum.maximize_r with its theta grid and the grid's (1+cos)/2 and
    (1+sin)/2 bases built inside the call, and each golden-section step
    through the checked r_excess_scaled."""
    quantum.check_power(power)
    grid = np.linspace(0.0, math.pi / 4.0, quantum.GRID_POINTS)
    values = ((1.0 + np.cos(grid)) / 2.0) ** power + ((1.0 + np.sin(grid)) / 2.0) ** power
    k = int(np.argmax(values))
    a = float(grid[max(k - 1, 0)])
    b = float(grid[min(k + 1, quantum.GRID_POINTS - 1)])
    invphi = quantum._INVPHI
    log_width = min(math.log(quantum.THETA_INTERVAL_TOL), math.log(quantum.THETA_RELATIVE_TOL) - power * math.log(2.0))
    steps = math.ceil((math.log(b - a) - log_width) / -math.log(invphi))
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = quantum.r_excess_scaled(x1, power), quantum.r_excess_scaled(x2, power)
    for _ in range(steps):
        if b - a <= quantum.THETA_INTERVAL_TOL and b - a <= quantum.THETA_RELATIVE_TOL * b:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = quantum.r_excess_scaled(x2, power)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = quantum.r_excess_scaled(x1, power)
    theta = 0.5 * (a + b)
    return quantum.RMaximum(theta, quantum.r_function(theta, power))


def lemma2_pair_draws(dim_half: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """The betas and phis of one lemma-2 pair, drawn as two uniform calls of
    one generator: the betas, then the phis."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, dim_half), rng.uniform(0.0, 2.0 * math.pi, dim_half)


def random_state_two_draws(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A unit state from two standard_normal(dim) draws, the real parts and
    then the imaginary parts, divided by its np.linalg.norm."""
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def mask_bits_by_shifts(masks: np.ndarray, size: int) -> np.ndarray:
    """game._mask_bits by shifts: numpy shifts of uint64 masks, Python integer
    shifts of wider ones."""
    if game.mask_dtype(size) is np.uint64:
        wide = masks.astype(np.uint64)
        return ((wide[..., None] >> np.arange(size, dtype=np.uint64)) & np.uint64(1)).astype(np.uint8)
    bits = [[(int(mask) >> k) & 1 for k in range(size)] for mask in masks.ravel()]
    return np.array(bits, dtype=np.uint8).reshape(masks.shape + (size,))
