"""Fully inert subgroups and self-inert classification.

A subgroup is fully inert when it is phi-inert for every endomorphism
of the ambient group.  That quantifier is over an infinite set, so the
decidable fragment matters: finite ambients (trivially true), free
abelian ambients (true iff zero or finite index), and Q^n with finitely
generated subgroups (true iff rank 0 or full).  Everything else raises
rather than guessing.

The classifier for "fully inert in the divisible hull" works on a
symbolic descriptor: per-prime divisible rank and Ulm-Kaplansky
invariants with finite support, a torsion-free part tag, and a default
clause covering all but the finitely many listed primes.
"""

from dataclasses import dataclass
from fractions import Fraction

from .abelian import (
    Endo,
    FgAbGroup,
    Subgroup,
    subgroup_from_generators,
    subgroup_index,
    subgroup_intersect,
    subgroup_sum,
)
from .base import INFINITE, _is_prime, is_finite
from .cayley import FiniteGroup
from .errors import DomainError, StabilizationError, UnsupportedAmbientError
from .inertia import inert_index, iterated_inert_index
from .intlinalg import rank as lattice_rank_of_rows
from .rational import RationalEndo, RationalLattice

__all__ = [
    "PrimePart",
    "TorsionFreePart",
    "GroupDescriptor",
    "SelfInertVerdict",
    "UniformVerdict",
    "BoxDecomposition",
    "is_fully_inert",
    "commensurable_fully_invariant",
    "is_uniformly_fully_inert",
    "classify_self_inert",
    "box_decompose_fully_inert",
]

DEFAULT_UNIFORM_THRESHOLD = 10**6


def _check_cardinal(value, allow_zero=True):
    if value is INFINITE:
        return value
    if isinstance(value, int) and (value > 0 or (allow_zero and value == 0)):
        return value
    raise DomainError(f"not a cardinal value: {value!r}")


@dataclass(frozen=True)
class PrimePart:
    """The p-primary component: divisible rank plus Ulm-Kaplansky data.

    ``uk_invariants`` maps exponent e >= 1 to the cardinal number of
    Z/p^e summands; exponents not listed carry invariant zero, so the
    reduced part described is always bounded.
    """

    divisible_rank: object = 0
    uk_invariants: tuple = ()

    def __post_init__(self):
        _check_cardinal(self.divisible_rank)
        items = sorted(dict(self.uk_invariants).items())
        for exponent, value in items:
            if not isinstance(exponent, int) or exponent < 1:
                raise DomainError("exponents must be integers >= 1")
            _check_cardinal(value, allow_zero=False)
        object.__setattr__(self, "uk_invariants", tuple(items))

    def is_divisible(self):
        return not self.uk_invariants

    def infinite_uk_count(self):
        return sum(1 for _, v in self.uk_invariants if v is INFINITE)


@dataclass(frozen=True)
class TorsionFreePart:
    """Tag for the torsion-free part: zero, divisible, homogeneous
    completely decomposable of known rank, or unclassified."""

    kind: str
    rank: object = None

    KINDS = ("zero", "divisible", "homogeneous_cd", "other")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise DomainError(f"unknown torsion-free kind {self.kind!r}")
        if self.kind in ("divisible", "homogeneous_cd"):
            _check_cardinal(self.rank)
        elif self.rank is not None:
            raise DomainError(f"kind {self.kind!r} takes no rank")


@dataclass(frozen=True)
class GroupDescriptor:
    """Finite data describing a (possibly infinite) abelian group."""

    torsion_free: TorsionFreePart = TorsionFreePart("zero")
    primes: tuple = ()
    cofinite_default: str = "divisible"

    DEFAULTS = ("divisible", "single_nonzero_uk", "neither")

    def __post_init__(self):
        listed = sorted(dict(self.primes).items())
        for p, part in listed:
            if not isinstance(p, int) or p < 2 or not _is_prime(p):
                raise DomainError(f"{p!r} is not a prime")
            if not isinstance(part, PrimePart):
                raise DomainError("prime entries must be PrimePart values")
        object.__setattr__(self, "primes", tuple(listed))
        if self.cofinite_default not in self.DEFAULTS:
            raise DomainError(
                f"unknown cofinite default {self.cofinite_default!r}"
            )


@dataclass(frozen=True)
class SelfInertVerdict:
    """Three-valued outcome with the clause that decided it."""

    verdict: object
    reason: str


@dataclass(frozen=True)
class UniformVerdict:
    """Uniform full inertness, with a concrete refuting power when false."""

    uniform: bool
    witness: object = None
    witness_power: object = None
    witness_index: object = None


@dataclass(frozen=True)
class BoxDecomposition:
    """H cut along a marked direct sum: pieces, their box sum, defect."""

    pieces: tuple
    boxlike: object
    defect: object
    factor_verdicts: tuple
    fully_inert: object
    refutation: object = None


def is_fully_inert(h, ambient=None):
    """Whether h is phi-inert for every endomorphism of the ambient.

    >>> from .abelian import FgAbGroup, subgroup_from_generators
    >>> Z2 = FgAbGroup([], 2)
    >>> is_fully_inert(subgroup_from_generators(Z2, [[2, 0], [0, 3]]))
    True
    >>> is_fully_inert(subgroup_from_generators(Z2, [[1, 0]]))
    False
    >>> is_fully_inert(RationalLattice.standard(2))
    True
    """
    if isinstance(h, Subgroup):
        group = h.group
        if group.is_finite():
            return True
        if not group.invariant_factors:
            return h.is_zero() or is_finite(
                subgroup_index(group.full_subgroup(), h)
            )
        raise UnsupportedAmbientError(
            "mixed infinite ambients are outside the decidable fragment"
        )
    if isinstance(h, RationalLattice):
        return h.rank() in (0, h.ambient_dim)
    if isinstance(h, (set, frozenset)):
        if not isinstance(ambient, FiniteGroup):
            raise UnsupportedAmbientError(
                "finite-group check needs the ambient FiniteGroup"
            )
        if not ambient.is_subgroup(frozenset(h)):
            raise DomainError("subset is not a subgroup")
        return True
    raise UnsupportedAmbientError(
        f"no fully-inert procedure for {type(h).__name__}"
    )


def commensurable_fully_invariant(h):
    """A scalar n with h commensurable to n*Z^r, or None.

    Free ambients only.  Returns 0 for the zero subgroup, the exact n
    when h literally equals n*Z^r, 1 for any other finite-index
    subgroup (all of which are commensurable with Z^r itself), and
    None when h is not fully inert.

    >>> from .abelian import FgAbGroup, subgroup_from_generators
    >>> Z2 = FgAbGroup([], 2)
    >>> commensurable_fully_invariant(subgroup_from_generators(Z2, [[6, 0], [0, 6]]))
    6
    >>> commensurable_fully_invariant(subgroup_from_generators(Z2, [[2, 0], [0, 3]]))
    1
    >>> commensurable_fully_invariant(subgroup_from_generators(Z2, [[1, 0]])) is None
    True
    """
    if not isinstance(h, Subgroup) or h.group.invariant_factors:
        raise UnsupportedAmbientError("needs a subgroup of a free ambient")
    if not is_fully_inert(h):
        return None
    if h.is_zero():
        return 0
    rank = h.group.free_rank
    basis = h.basis
    n = basis[0][0] if basis else 1
    if all(
        basis[i][j] == (n if i == j else 0)
        for i in range(rank)
        for j in range(rank)
    ):
        return n
    return 1


def is_uniformly_fully_inert(h, threshold=DEFAULT_UNIFORM_THRESHOLD):
    """Whether one index bound works across all endomorphisms of Q^n.

    Only the zero subgroup qualifies among finitely generated ones:
    anything of positive rank is blown up by multiplication by 1/2,
    whose iterated strict index is computed until it crosses the
    threshold and reported as the refutation.

    >>> is_uniformly_fully_inert(RationalLattice.zero(3)).uniform
    True
    >>> v = is_uniformly_fully_inert(RationalLattice.standard(1), threshold=100)
    >>> (v.uniform, v.witness_power, v.witness_index)
    (False, 7, 128)
    """
    if not isinstance(h, RationalLattice):
        raise UnsupportedAmbientError("needs a lattice in Q^n")
    if h.is_zero():
        return UniformVerdict(True)
    witness = RationalEndo.scalar(h.ambient_dim, Fraction(1, 2))
    power = 1
    while True:
        index = iterated_inert_index(h, witness, power)
        if index > threshold:
            return UniformVerdict(False, witness, power, index)
        if power > threshold.bit_length() + 1:  # pragma: no cover
            raise StabilizationError("refutation index stopped growing")
        power += 1


def classify_self_inert(descriptor):
    """Decide whether the described group is fully inert in its hull.

    Three clauses, all required: the torsion-free part is zero,
    divisible, or homogeneous completely decomposable of finite rank;
    every listed p-part is divisible or bounded with at most one
    infinite Ulm-Kaplansky invariant; all but finitely many p-parts
    (the default clause) are divisible or have a single nonzero
    invariant.

    >>> classify_self_inert(GroupDescriptor(
    ...     torsion_free=TorsionFreePart("homogeneous_cd", 3))).verdict
    True
    >>> classify_self_inert(GroupDescriptor(primes={
    ...     2: PrimePart(uk_invariants={1: INFINITE, 2: INFINITE})})).verdict
    False
    """
    tf = descriptor.torsion_free
    if tf.kind == "other":
        return SelfInertVerdict(None, "torsion-free-part-unclassified")
    if tf.kind == "homogeneous_cd" and not is_finite(tf.rank):
        return SelfInertVerdict(False, "torsion-free-homogeneous-infinite-rank")
    for p, part in descriptor.primes:
        if part.is_divisible():
            continue
        if part.divisible_rank != 0:
            return SelfInertVerdict(
                False, f"p={p}-part-mixes-divisible-and-reduced"
            )
        if part.infinite_uk_count() > 1:
            return SelfInertVerdict(
                False, f"p={p}-part-has-multiple-infinite-invariants"
            )
    if descriptor.cofinite_default == "neither":
        return SelfInertVerdict(False, "cofinitely-many-parts-unconstrained")
    return SelfInertVerdict(True, "all-clauses-hold")


def _factor_group(group, coords):
    factors = [
        group.invariant_factors[i]
        for i in coords
        if i < group.torsion_length
    ]
    free = sum(1 for i in coords if i >= group.torsion_length)
    return FgAbGroup(factors, free)


def _swap_style_witness(h):
    # rank strictly between 0 and n: send some coordinate seen by H onto a
    # coordinate missing from its span, giving an image meeting H finitely
    group = h.group
    dim = group.free_rank
    rows = [list(r) for r in h.basis]
    source = next(
        (j for r in rows for j in range(dim) if r[j]), None
    )
    if source is None:
        return None
    span_rank = lattice_rank_of_rows(tuple(tuple(r) for r in rows))
    for j in range(dim):
        probe = [0] * dim
        probe[j] = 1
        extended = tuple(tuple(r) for r in rows) + (tuple(probe),)
        if lattice_rank_of_rows(extended) > span_rank:
            matrix = [[0] * dim for _ in range(dim)]
            matrix[j][source] = 1
            return Endo(group, matrix)
    return None


def box_decompose_fully_inert(h, factors):
    """Cut h along a marked direct sum A = A_1 + ... + A_m.

    ``factors`` partitions the coordinate indices of the ambient group.
    Returns the pieces H ∩ A_i (as subgroups of the factor groups), the
    box subgroup H_* (their internal sum), the defect [H : H_*], the
    per-factor fully-inert verdicts, and the ambient verdict where the
    ambient is in the decidable fragment, with a refuting endomorphism
    when that verdict is negative.

    >>> from .abelian import FgAbGroup, subgroup_from_generators
    >>> Z2 = FgAbGroup([], 2)
    >>> diag = subgroup_from_generators(Z2, [[1, 1]])
    >>> out = box_decompose_fully_inert(diag, [[0], [1]])
    >>> out.defect
    Infinite
    >>> out.fully_inert
    False
    """
    if not isinstance(h, Subgroup):
        raise UnsupportedAmbientError("box decomposition needs a Subgroup")
    group = h.group
    dim = group.dim
    seen = sorted(i for block in factors for i in block)
    if seen != list(range(dim)):
        raise DomainError("factors must partition the coordinates")
    pieces = []
    piece_subs = []
    verdicts = []
    for block in factors:
        block = sorted(block)
        axes = subgroup_from_generators(
            group,
            [[1 if j == i else 0 for j in range(dim)] for i in block],
        )
        piece = subgroup_intersect(h, axes)
        piece_subs.append(piece)
        factor = _factor_group(group, block)
        projected = subgroup_from_generators(
            factor, [[row[i] for i in block] for row in piece.basis]
        )
        pieces.append(projected)
        verdicts.append(is_fully_inert(projected))
    boxlike = group.zero_subgroup()
    for piece in piece_subs:
        boxlike = subgroup_sum(boxlike, piece)
    defect = subgroup_index(h, boxlike)
    verdict = None
    refutation = None
    if group.is_finite():
        verdict = True
    elif not group.invariant_factors:
        verdict = is_fully_inert(h)
        if not verdict:
            refutation = _swap_style_witness(h)
            if refutation is not None:
                check = inert_index(h, refutation)
                if check.inert:  # pragma: no cover - internal consistency
                    raise AssertionError("refutation failed to refute")
    return BoxDecomposition(
        tuple(pieces), boxlike, defect, tuple(verdicts), verdict, refutation
    )
