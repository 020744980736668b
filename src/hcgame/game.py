"""Hypercube game board: vertices, facets, sign labellings, and the winning rules.

The board is the m-dimensional hypercube {0,1}^m.  Player i receives a
question bit q_i and must label every vertex of the facet {x : x_i = q_i}
with +1 or -1.  A round is won when each player's labels multiply to the
required parity (+1, except player 1 needs (-1)^q1) and any two players
agree on every vertex their facets share.

Signs are packed into bitmasks (bit set means -1) so parity reduces to a
popcount and exhaustive enumeration can walk plain integers; +/-1 tuples
appear only at the API surface.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

Bits = tuple[int, ...]

MIN_DIMENSION = 2
MAX_DIMENSION = 24
# label-grid cells (bytes) the batched win rule works on at once
_GRID_CELLS = 1 << 22
# the types an index, count, exponent or mask may have; testing these concrete
# types takes a few dozen ns, the abstract integer type about 600 ns (on every
# angle lookup)
INTEGERS = (int, np.integer)


def check_int(value, lo: int, hi: float, what: str) -> None:
    """The one integer rule: raise ValueError unless value is an integer
    (numpy integers count) in [lo, hi]; hi = math.inf leaves it unbounded."""
    if not isinstance(value, INTEGERS) or not lo <= value <= hi:
        fault = "out of range" if isinstance(value, INTEGERS) else "not an integer"
        raise ValueError(f"{what} must be an integer in [{lo}, {hi}], got {value!r}, {fault}")


def check_masks(masks, size: int) -> None:
    """The one mask rule: raise ValueError unless every mask of a facet of
    ``size`` vertices (one mask, or an array or nested sequence of them) is
    an integer in [0, 2^size)."""
    if isinstance(masks, INTEGERS):
        entries = (masks,)
    elif (arr := mask_array(masks)).dtype.kind in "iu":
        entries = (int(arr.min()), int(arr.max())) if arr.size else ()
    else:
        # one by one, exactly
        entries = arr.flat
    hi = (1 << size) - 1
    for mask in entries:
        check_int(mask, 0, hi, "mask")


def mask_array(masks) -> np.ndarray:
    """Masks as an array: of numpy's integer dtype where it gives one, else of
    the given objects, since np.asarray([0, 2**63]) is a float array."""
    arr = np.asarray(masks)
    return arr if arr.dtype.kind in "iu" else np.asarray(masks, dtype=object)


def validate_dimension(m: int) -> None:
    """The player-count rule within the board cap MAX_DIMENSION."""
    check_int(m, MIN_DIMENSION, MAX_DIMENSION, "player count")


def check_bit(b, what: str = "question bit") -> int:
    """The one bit rule: any value equal to 0 or 1 (1.0, True and np.int64(1)
    count) is a bit, returned as an int; anything else raises ValueError."""
    if b not in (0, 1):
        raise ValueError(f"{what} must be 0 or 1, got {b}")
    return int(b == 1)


def question_rows(m: int, questions) -> np.ndarray:
    """The one question rule: questions as an (N, m) int64 array of bits;
    raises ValueError unless there is at least one, each has m entries and
    every entry equals 0 or 1.  One question q is ``question_rows(m, [q])``."""
    given = np.array(questions)
    if given.ndim != 2 or given.shape[0] == 0 or given.shape[1] != m:
        raise ValueError(f"expected one or more questions of {m} bits, got shape {given.shape}")
    ones = given == 1
    if not (ones | (given == 0)).all():
        raise ValueError("question bits must be 0 or 1")
    return ones.astype(np.int64)


def vertex_index(bits: Bits) -> int:
    """Big-endian integer encoding: (x1, ..., xm) -> sum of xk * 2^(m-k)."""
    index = 0
    for b in bits:
        index = (index << 1) | check_bit(b, "vertex bit")
    return index


def vertex_bits(index: int, m: int) -> Bits:
    """Inverse of :func:`vertex_index` for an m-bit vertex."""
    validate_dimension(m)
    check_int(index, 0, (1 << m) - 1, "vertex index")
    return tuple((index >> (m - k)) & 1 for k in range(1, m + 1))


def check_player_count(m: int) -> None:
    """The rule of every closed form in m: an integer count of at least two
    players."""
    check_int(m, MIN_DIMENSION, math.inf, "player count")


# typed caches, so a float such as 2.0 is checked instead of hitting the entry of 2
@lru_cache(maxsize=None, typed=True)
def _facet_indices(m: int, i: int, q: int) -> tuple[int, ...]:
    validate_dimension(m)
    check_int(i, 1, m, "player index")
    q = check_bit(q)
    shift = m - i
    return tuple(e for e in range(1 << m) if (e >> shift) & 1 == q)


def facet_slot(m: int, player: int, vertex: int) -> int:
    """The one layout rule: the mask bit that labels a vertex (given by its
    index) on the player's facet, which is the vertex index with the player's
    coordinate removed.  It numbers the facet's vertices in ascending order."""
    validate_dimension(m)
    check_int(player, 1, m, "player index")
    check_int(vertex, 0, (1 << m) - 1, "vertex index")
    shift = m - player
    return (vertex >> (shift + 1)) << shift | vertex & ((1 << shift) - 1)


@lru_cache(maxsize=None, typed=True)
def intersection_mask(m: int, player: int, q1: int, i: int, q_i: int) -> int:
    """Bit k set iff slot k of the player's facet (player 1's {x_1 = q1} or
    player i's {x_i = q_i}) holds a vertex of both facets: the slots an
    intersection product multiplies."""
    validate_dimension(m)
    check_int(i, 2, m, "intersection partner")
    if player not in (1, i):
        raise ValueError(f"player {player} is neither player 1 nor intersection partner {i}")
    shared = set(_facet_indices(m, i, q_i))
    return sum(1 << facet_slot(m, player, e) for e in _facet_indices(m, 1, q1) if e in shared)


def facet_vertices(m: int, i: int, q_i: int) -> list[Bits]:
    """The 2^(m-1) vertices with x_i = q_i, ascending by canonical encoding."""
    return [vertex_bits(e, m) for e in _facet_indices(m, i, q_i)]


def intersection_vertices(m: int, q1: int, i: int, q_i: int) -> list[Bits]:
    """The 2^(m-2) vertices shared by player 1's and player i's facets."""
    mask = intersection_mask(m, 1, q1, i, q_i)
    return [v for k, v in enumerate(facet_vertices(m, 1, q1)) if mask >> k & 1]


@dataclass(frozen=True)
class FacetAssignment:
    """One player's +/-1 labels on their facet.

    ``mask`` bit k set means the k-th facet vertex (facet vertices sorted
    ascending by canonical encoding) carries -1.
    """

    m: int
    player: int
    question_bit: int
    mask: int

    def __post_init__(self):
        validate_dimension(self.m)
        check_int(self.player, 1, self.m, "player index")
        object.__setattr__(self, "question_bit", check_bit(self.question_bit))
        check_masks(self.mask, self.size)

    @property
    def size(self) -> int:
        return 1 << (self.m - 1)

    @classmethod
    def from_values(cls, m: int, player: int, question_bit: int, values) -> "FacetAssignment":
        validate_dimension(m)
        values = tuple(values)
        if len(values) != 1 << (m - 1):
            raise ValueError(f"expected {1 << (m - 1)} signs, got {len(values)}")
        if any(v not in (1, -1) for v in values):
            raise ValueError("signs must be +1 or -1")
        mask = 0
        for k, v in enumerate(values):
            if v == -1:
                mask |= 1 << k
        return cls(m, player, question_bit, mask)

    @property
    def values(self) -> Bits:
        """Signs in facet order, as a tuple of +1/-1."""
        return tuple(1 - 2 * ((self.mask >> k) & 1) for k in range(self.size))

    def value_at(self, vertex: Bits) -> int:
        if len(vertex) != self.m:
            raise ValueError(f"expected a vertex of {self.m} bits, got {vertex}")
        index = vertex_index(vertex)
        if vertex[self.player - 1] != self.question_bit:
            raise ValueError(f"vertex {vertex} is not on this facet")
        return 1 - 2 * ((self.mask >> facet_slot(self.m, self.player, index)) & 1)


@dataclass(frozen=True)
class Answer:
    """One facet labelling per player, all for the same question."""

    assignments: tuple[FacetAssignment, ...]

    def __post_init__(self):
        if not self.assignments:
            raise ValueError("answer needs at least one assignment")
        m = self.assignments[0].m
        for k, fa in enumerate(self.assignments, start=1):
            if fa.m != m:
                raise ValueError("assignments disagree on the dimension")
            if fa.player != k:
                raise ValueError(f"assignment {k} carries player index {fa.player}")
        if len(self.assignments) != m:
            raise ValueError(f"expected {m} assignments, got {len(self.assignments)}")

    @property
    def m(self) -> int:
        return self.assignments[0].m

    @property
    def question(self) -> Bits:
        return tuple(fa.question_bit for fa in self.assignments)


def answer_from_masks(m: int, q: Bits, masks) -> Answer:
    """The answer giving player i+1 the facet mask masks[i]."""
    [q] = question_rows(m, [q]).tolist()
    pairs = enumerate(zip(q, masks, strict=True), start=1)
    return Answer(tuple(FacetAssignment(m, player, bit, mask) for player, (bit, mask) in pairs))


def _check_question(answer: Answer, q: Bits) -> Bits:
    """q as a tuple of int bits; raises ValueError unless the answer was given for it."""
    q = tuple(question_rows(answer.m, [q]).tolist()[0])
    if answer.question != q:
        raise ValueError(f"answer was given for question {answer.question}, not {q}")
    return q


def required_parity(player: int, question_bit: int) -> int:
    """Number of -1 labels mod 2 the player must give: q1 for player 1, else 0."""
    return question_bit if player == 1 else 0


def parity_ok(assignment: FacetAssignment) -> bool:
    """Product of labels is (-1)^q1 for player 1 and +1 for everyone else."""
    required = required_parity(assignment.player, assignment.question_bit)
    return (assignment.mask.bit_count() & 1) == required


def mask_dtype(width: int):
    """The dtype that holds masks of ``width`` bits without wrapping around:
    uint64 up to 64 bits, Python integers (object) above."""
    return np.uint64 if width <= 64 else object


def _mask_bits(masks: np.ndarray, size: int, axis: int = -1) -> np.ndarray:
    """Unpack an integer array of facet masks to its bits along a new last
    axis of length size, then swapped with ``axis`` (bit k of a mask is the
    label of facet vertex k)."""
    check_masks(masks, size)
    # each mask's little-endian bytes, bit k of the mask at bit k % 8 of byte k // 8
    if mask_dtype(size) is np.uint64:
        raw = masks.astype("<u8", order="C").view(np.uint8).reshape(masks.shape + (8,))
    else:
        # facets past 64 vertices (m >= 8) only fit Python integers
        joined = b"".join(int(mask).to_bytes(size // 8, "little") for mask in masks.ravel())
        raw = np.frombuffer(joined, dtype=np.uint8).reshape(masks.shape + (size // 8,))
    return np.unpackbits(raw.swapaxes(-1, axis), axis=axis, count=size, bitorder="little")


def _rule_checks(m: int, rows: np.ndarray, masks) -> tuple[np.ndarray, np.ndarray]:
    """The two halves of the win rule for N answers, answer n to question n.

    ``rows`` is an (N, m) array of question bits that went through
    :func:`question_rows` and ``masks`` an (N, m) integer array, row n
    holding the facet masks of answer n (column i for player i+1); masks
    wider than 64 bits need an object array of Python integers.  Returns two
    length-N boolean arrays: every player's parity holds (the XOR of a
    mask's bits), and all players agree on every vertex their facets share
    (checked vertex by vertex on an (m, 2^m, N) label grid, not through
    intersection products).
    """
    validate_dimension(m)
    masks = mask_array(masks)
    if masks.ndim != 2 or masks.shape[1] != m or np.shape(rows) != masks.shape:
        raise ValueError(f"expected (N, {m}) arrays of questions and masks, got {np.shape(rows)} and {masks.shape}")
    # required[i, n]: the parity player i+1 owes row n's question
    parity_rule = np.array([[required_parity(i + 1, bit) for bit in (0, 1)] for i in range(m)])
    required = parity_rule[np.arange(m)[:, None], rows.T]
    # rows go through in chunks so the label grid stays near _GRID_CELLS bytes;
    # rows run along the last axis, so that a row's question selects by broadcasting
    step = max(1, _GRID_CELLS // (m << m))
    parity, agree = [], []
    for start in range(0, max(masks.shape[0], 1), step):
        chunk = slice(start, start + step)
        # labels[i, k, n]: bit k of player i+1's mask in row n
        labels = _mask_bits(masks[chunk].T, 1 << (m - 1), axis=1)
        n = labels.shape[2]
        parity.append((np.bitwise_xor.reduce(labels, axis=1) == required[:, chunk]).all(axis=0))
        # now 1 for a +1 label and 2 for a -1 label
        labels += np.uint8(1)
        # on_facet[i, b, n]: 1 where row n asks player i+1 for bit b
        on_facet = (np.ascontiguousarray(rows[chunk].T)[:, None] == np.arange(2)[:, None]).astype(np.uint8)
        # grid[i, e, n]: 0 if vertex e is off player i+1's facet, else its
        # label; OR over players gives 3 where two disagree
        grid = np.empty((m, 1 << m, n), dtype=np.uint8)
        for i in range(m):
            # facet_slot numbers the facet in increasing vertex order, so the
            # cube with axis i fixed to q_i takes facet bit k in order and the
            # other half of the cube gets 0
            high, low = 1 << i, 1 << (m - 1 - i)
            np.multiply(labels[i].reshape(high, 1, low, n), on_facet[i, :, None], out=grid[i].reshape(high, 2, low, n))
        agree.append((np.bitwise_or.reduce(grid, axis=0) != 3).all(axis=0))
    return np.concatenate(parity), np.concatenate(agree)


def batch_predicate(m: int, q: Bits, masks) -> np.ndarray:
    """Win bits (uint8) of N answers to question q, given as an (N, m) mask array."""
    row = question_rows(m, [q])
    masks = mask_array(masks)
    parity, agree = _rule_checks(m, np.broadcast_to(row, masks.shape[:1] + row.shape[1:]), masks)
    return (parity & agree).astype(np.uint8)


def win_table(m: int, q: Bits, candidates) -> np.ndarray:
    """Win bits (uint8) of every answer to question q that takes one mask from
    each player's list of candidates (integers within the mask rule), with
    shape (K_1, ..., K_m) for K_i candidates of player i."""
    validate_dimension(m)
    if len(candidates) != m:
        raise ValueError(f"expected candidate masks for {m} players, got {len(candidates)}")
    shape = tuple(len(column) for column in candidates)
    # checked before the cast, which would truncate 1.5 to 1
    check_masks([mask for column in candidates for mask in column], 1 << (m - 1))
    masks = np.empty(shape + (m,), dtype=mask_dtype(1 << (m - 1)))
    for i, column in enumerate(candidates):
        # trailing unit axes broadcast player i's masks along axis i
        masks[..., i] = np.array(column, dtype=masks.dtype).reshape((-1,) + (1,) * (m - 1 - i))
    return batch_predicate(m, q, masks.reshape(-1, m)).reshape(shape)


def _one_row(answer: Answer) -> np.ndarray:
    return np.array([[fa.mask for fa in answer.assignments]], dtype=object)


def consistency_ok(answer: Answer, q: Bits) -> bool:
    """All pairs of players agree on every vertex their facets share."""
    q = _check_question(answer, q)
    return bool(_rule_checks(answer.m, np.array([q]), _one_row(answer))[1][0])


def predicate(answer: Answer, q: Bits) -> int:
    """1 iff every player's parity holds and all shared vertices agree."""
    _check_question(answer, q)
    return int(batch_predicate(answer.m, q, _one_row(answer))[0])


def product_over_intersection(m: int, player: int, mask: int, q1: int, i: int, q_i: int) -> int:
    """The one intersection-product rule: the product (+1 or -1) of the labels
    that ``mask``, the player's labelling of its facet (player 1's {x_1 = q1}
    or player i's {x_i = q_i}), gives the vertices the two facets share."""
    shared = intersection_mask(m, player, q1, i, q_i)
    check_masks(mask, 1 << (m - 1))
    return -1 if (mask & shared).bit_count() & 1 else 1


def relaxed_predicate(answer: Answer, q: Bits) -> int:
    """1 iff every player's parity holds and player 1 and each player i agree
    on the *product* over shared vertices.

    Weaker than :func:`predicate`: vertexwise agreement implies equal
    products, not conversely.
    """
    q = _check_question(answer, q)
    if not all(parity_ok(fa) for fa in answer.assignments):
        return 0
    m, masks = answer.m, [fa.mask for fa in answer.assignments]
    for i in range(2, m + 1):
        edge = (q[0], i, q[i - 1])
        if product_over_intersection(m, 1, masks[0], *edge) != product_over_intersection(m, i, masks[i - 1], *edge):
            return 0
    return 1


def chsh_bit_embedding(a1: int, a2: int, q: Bits) -> Answer:
    """Embed a one-bit-per-player answer into the two-player game.

    Player 1 labels {(q1,0),(q1,1)} with {s1, (-1)^q1 * s1} and player 2
    labels {(0,q2),(1,q2)} with {s2, s2}, where sk = (-1)^ak.  With this
    embedding the game is won exactly when a1 XOR a2 equals q1*q2.
    """
    [q] = question_rows(2, [q]).tolist()
    a1, a2 = check_bit(a1, "answer bit"), check_bit(a2, "answer bit")
    s1 = 1 - 2 * a1
    s2 = 1 - 2 * a2
    first = FacetAssignment.from_values(2, 1, q[0], (s1, -s1 if q[0] else s1))
    second = FacetAssignment.from_values(2, 2, q[1], (s2, s2))
    return Answer((first, second))


def all_questions(m: int):
    """All 2^m questions in ascending canonical order."""
    validate_dimension(m)
    return itertools.product((0, 1), repeat=m)

