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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

Bits = tuple[int, ...]

MIN_DIMENSION = 2
MAX_DIMENSION = 24
ENUMERATION_MAX_DIMENSION = 3
# label-grid cells (bytes) the batched win rule works on at once
_GRID_CELLS = 1 << 22


def validate_dimension(m: int) -> None:
    if not MIN_DIMENSION <= m <= MAX_DIMENSION:
        raise ValueError(
            f"dimension must be in [{MIN_DIMENSION}, {MAX_DIMENSION}], got {m}"
        )


def vertex_index(bits: Bits) -> int:
    """Big-endian integer encoding: (x1, ..., xm) -> sum of xk * 2^(m-k)."""
    index = 0
    for b in bits:
        index = (index << 1) | (b & 1)
    return index


def vertex_bits(index: int, m: int) -> Bits:
    """Inverse of :func:`vertex_index` for an m-bit vertex."""
    return tuple((index >> (m - k)) & 1 for k in range(1, m + 1))


def _validate_player(m: int, i: int) -> None:
    if not 1 <= i <= m:
        raise ValueError(f"player index must be in [1, {m}], got {i}")


def _validate_bit(b: int) -> None:
    if b not in (0, 1):
        raise ValueError(f"question bit must be 0 or 1, got {b}")


@lru_cache(maxsize=None)
def _facet_indices(m: int, i: int, q: int) -> tuple[int, ...]:
    validate_dimension(m)
    _validate_player(m, i)
    _validate_bit(q)
    shift = m - i
    return tuple(e for e in range(1 << m) if (e >> shift) & 1 == q)


@lru_cache(maxsize=None)
def _facet_position(m: int, i: int, q: int) -> dict[int, int]:
    return {e: k for k, e in enumerate(_facet_indices(m, i, q))}


@lru_cache(maxsize=None)
def intersection_mask(m: int, player: int, question_bit: int, q1: int, i: int, q_i: int) -> int:
    """Bit k set iff vertex k of the player's facet {x_player = question_bit}
    (facet order) lies on both player 1's facet {x_1 = q1} and player i's
    facet {x_i = q_i}: the slots an intersection product multiplies."""
    validate_dimension(m)
    for b in (question_bit, q1, q_i):
        _validate_bit(b)
    if i < 2:
        raise ValueError(f"intersection partner must be a player index >= 2, got {i}")
    _validate_player(m, i)
    _validate_player(m, player)
    cube = np.zeros((2,) * m, dtype=bool)
    cube[(q1,) + (slice(None),) * (i - 2) + (q_i,)] = True
    facet = cube.take(question_bit, axis=player - 1)
    return int.from_bytes(np.packbits(facet, bitorder="little").tobytes(), "little")


def facet_vertices(m: int, i: int, q_i: int) -> list[Bits]:
    """The 2^(m-1) vertices with x_i = q_i, ascending by canonical encoding."""
    return [vertex_bits(e, m) for e in _facet_indices(m, i, q_i)]


def intersection_vertices(m: int, q1: int, i: int, q_i: int) -> list[Bits]:
    """The 2^(m-2) vertices shared by player 1's and player i's facets."""
    mask = intersection_mask(m, 1, q1, q1, i, q_i)
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
        _validate_player(self.m, self.player)
        _validate_bit(self.question_bit)
        if not 0 <= self.mask < (1 << self.size):
            raise ValueError(f"mask out of range for facet of size {self.size}")

    @property
    def size(self) -> int:
        return 1 << (self.m - 1)

    @classmethod
    def from_values(cls, m: int, player: int, question_bit: int, values) -> "FacetAssignment":
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

    def vertices(self) -> list[Bits]:
        return facet_vertices(self.m, self.player, self.question_bit)

    def value_at(self, vertex: Bits) -> int:
        pos = _facet_position(self.m, self.player, self.question_bit).get(
            vertex_index(vertex)
        )
        if pos is None:
            raise ValueError(f"vertex {vertex} is not on this facet")
        return 1 - 2 * ((self.mask >> pos) & 1)


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
    return Answer(
        tuple(
            FacetAssignment(m, i + 1, q[i], masks[i]) for i in range(m)
        )
    )


def _check_question(answer: Answer, q: Bits) -> None:
    if answer.question != tuple(q):
        raise ValueError(f"answer was given for question {answer.question}, not {tuple(q)}")


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


def _mask_bits(masks: np.ndarray, size: int) -> np.ndarray:
    """Unpack an integer array of facet masks to its bits along a new last
    axis of length size (bit k of a mask is the label of facet vertex k)."""
    if masks.dtype.kind != "u" and (masks < 0).any():
        raise ValueError("masks must be non-negative")
    if mask_dtype(size) is np.uint64:
        wide = masks.astype(np.uint64)
        if size < 64 and (wide >> np.uint64(size)).any():
            raise ValueError(f"mask out of range for facet of size {size}")
        return ((wide[..., None] >> np.arange(size, dtype=np.uint64)) & np.uint64(1)).astype(np.uint8)
    # facets past 64 vertices (m >= 8) only fit Python integers
    try:
        raw = b"".join(int(mask).to_bytes(size // 8, "little") for mask in masks.ravel())
    except OverflowError:
        raise ValueError(f"mask out of range for facet of size {size}") from None
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits.reshape(masks.shape + (size,))


def _rule_checks(m: int, q: Bits, masks) -> tuple[np.ndarray, np.ndarray]:
    """The two halves of the win rule for N answers to one question.

    ``masks`` is an (N, m) integer array, row n holding the facet masks of
    answer n (column i for player i+1); masks wider than 64 bits need an
    object array of Python integers.  Returns two length-N boolean arrays:
    every player's parity holds (a popcount per mask), and all players
    agree on every vertex their facets share (checked vertex by vertex on
    an (N, 2^m) label grid, not through intersection products).
    """
    validate_dimension(m)
    q = tuple(q)
    if len(q) != m:
        raise ValueError(f"question must have {m} bits, got {len(q)}")
    for b in q:
        _validate_bit(b)
    masks = np.asarray(masks)
    if masks.dtype.kind not in "iuO" or masks.ndim != 2 or masks.shape[1] != m:
        raise ValueError(f"expected an (N, {m}) integer array of masks, got {masks.dtype} {masks.shape}")
    required = [required_parity(i + 1, q[i]) for i in range(m)]
    # rows go through in chunks so the label grid stays near _GRID_CELLS bytes
    step = max(1, _GRID_CELLS // (m << m))
    parity, agree = [], []
    for start in range(0, max(masks.shape[0], 1), step):
        bits = _mask_bits(masks[start : start + step], 1 << (m - 1))
        n = bits.shape[0]
        parity.append(((bits.sum(axis=2, dtype=np.int64) & 1) == required).all(axis=1))
        # grid[n, i, e]: 0 if vertex e is off player i+1's facet, 1 for a +1
        # label, 2 for a -1 label; OR over players gives 3 where two disagree
        grid = np.zeros((n, m, 1 << m), dtype=np.uint8)
        for i in range(m):
            # facet vertices in increasing index order are the cube with
            # axis i fixed to q_i, so facet bit k lands by a strided copy
            high, low = 1 << i, 1 << (m - 1 - i)
            cube = grid.reshape(n, m, high, 2, low)
            cube[:, i, :, q[i], :] = bits[:, i].reshape(n, high, low) + 1
        agree.append((np.bitwise_or.reduce(grid, axis=1) != 3).all(axis=1))
    return np.concatenate(parity), np.concatenate(agree)


def batch_predicate(m: int, q: Bits, masks) -> np.ndarray:
    """Win bits (uint8) of N answers to question q, given as an (N, m) mask array."""
    parity, agree = _rule_checks(m, q, masks)
    return (parity & agree).astype(np.uint8)


def win_table(m: int, q: Bits, candidates) -> np.ndarray:
    """Win bits (uint8) of every answer to question q that takes one mask from
    each player's list of candidates (non-negative Python integers), with
    shape (K_1, ..., K_m) for K_i candidates of player i."""
    validate_dimension(m)
    if len(candidates) != m:
        raise ValueError(f"expected candidate masks for {m} players, got {len(candidates)}")
    shape = tuple(len(column) for column in candidates)
    masks = np.empty(shape + (m,), dtype=mask_dtype(1 << (m - 1)))
    for i, column in enumerate(candidates):
        # trailing unit axes broadcast player i's masks along axis i
        masks[..., i] = np.array(column, dtype=masks.dtype).reshape((-1,) + (1,) * (m - 1 - i))
    return batch_predicate(m, q, masks.reshape(-1, m)).reshape(shape)


def _one_row(answer: Answer) -> np.ndarray:
    return np.array([[fa.mask for fa in answer.assignments]], dtype=object)


def consistency_ok(answer: Answer, q: Bits) -> bool:
    """All pairs of players agree on every vertex their facets share."""
    _check_question(answer, q)
    return bool(_rule_checks(answer.m, q, _one_row(answer))[1][0])


def predicate(answer: Answer, q: Bits) -> int:
    """1 iff every player's parity holds and all shared vertices agree."""
    _check_question(answer, q)
    return int(batch_predicate(answer.m, q, _one_row(answer))[0])


def product_over_intersection(
    assignment: FacetAssignment, q1: int, q_i: int, partner: int | None = None
) -> int:
    """Product of the assignment's labels over the vertices shared with player 1.

    For a player-1 assignment the intersection also depends on which other
    player is meant; pass ``partner`` (defaults to 2 when m == 2, required
    otherwise).
    """
    m = assignment.m
    if assignment.player == 1:
        if assignment.question_bit != q1:
            raise ValueError("facet is disjoint from the requested intersection")
        if partner is None:
            if m > 2:
                raise ValueError("partner player index required for player 1 when m > 2")
            partner = 2
        if not 2 <= partner <= m:
            raise ValueError(f"partner must be in [2, {m}], got {partner}")
        i = partner
    else:
        i = assignment.player
        if partner is not None and partner != i:
            raise ValueError("partner does not match the assignment's player")
        if assignment.question_bit != q_i:
            raise ValueError("facet is disjoint from the requested intersection")
    shared = intersection_mask(m, assignment.player, assignment.question_bit, q1, i, q_i)
    return -1 if (assignment.mask & shared).bit_count() & 1 else 1


def relaxed_predicate(answer: Answer, q: Bits) -> int:
    """1 iff player 1 and each player i agree on the *product* over shared vertices.

    Weaker than :func:`predicate`: vertexwise agreement implies equal
    products, not conversely.
    """
    _check_question(answer, q)
    m = answer.m
    a1 = answer.assignments[0]
    for i in range(2, m + 1):
        lhs = product_over_intersection(a1, q[0], q[i - 1], partner=i)
        rhs = product_over_intersection(answer.assignments[i - 1], q[0], q[i - 1])
        if lhs != rhs:
            return 0
    return 1


def chsh_bit_embedding(a1: int, a2: int, q: Bits) -> Answer:
    """Embed a one-bit-per-player answer into the two-player game.

    Player 1 labels {(q1,0),(q1,1)} with {s1, (-1)^q1 * s1} and player 2
    labels {(0,q2),(1,q2)} with {s2, s2}, where sk = (-1)^ak.  With this
    embedding the game is won exactly when a1 XOR a2 equals q1*q2.
    """
    q = tuple(q)
    if len(q) != 2:
        raise ValueError("bit embedding is defined for the two-player game only")
    _validate_bit(a1)
    _validate_bit(a2)
    s1 = 1 - 2 * a1
    s2 = 1 - 2 * a2
    first = FacetAssignment.from_values(2, 1, q[0], (s1, -s1 if q[0] else s1))
    second = FacetAssignment.from_values(2, 2, q[1], (s2, s2))
    return Answer((first, second))


def all_questions(m: int):
    """All 2^m questions in ascending canonical order."""
    return itertools.product((0, 1), repeat=m)


def all_answers(m: int, q: Bits):
    """Every possible answer for a question.  Exposed only for m <= 3.

    The answer space has (2^(2^(m-1)))^m elements, so exhaustive walks are
    capped where they stay cheap.
    """
    if m > ENUMERATION_MAX_DIMENSION:
        raise ValueError(
            f"exhaustive answer enumeration is limited to m <= {ENUMERATION_MAX_DIMENSION}"
        )
    size = 1 << (m - 1)
    for masks in itertools.product(range(1 << size), repeat=m):
        yield answer_from_masks(m, q, masks)

