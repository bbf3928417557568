"""Inertness decision procedures.

H is phi-inert when the image index ``[H^phi : H^phi ∩ H]``
(``inert_index``) is finite.  The additive form ``|(H + phi H)/H|``
(``strict_inert_index``), which feeds intrinsic entropy, is the same
number by the second isomorphism theorem, (H + phi H)/H ≅ phi H/(phi H ∩ H),
so it reads ``inert_index``.  For H = <e2> under [[1,1],[0,1]] both are
infinite.

On a finitely generated group the inertial endomorphisms (those for
which every subgroup is inert) are exactly the maps acting as an
integer scalar on the free quotient; ``is_inertial_endomorphism``
decides by that test and backs every rejection with an explicit witness
subgroup of infinite strict index.
"""

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from .abelian import (
    Endo,
    FgAbGroup,
    Subgroup,
    endo_apply_subgroup,
    endo_invert,
    subgroup_from_generators,
    subgroup_index,
    subgroup_intersect,
    subgroup_sum,
)
from .base import is_finite
from .cayley import FiniteGroup
from .errors import (
    AmbientMismatchError,
    DomainError,
    NonInvertibleError,
    NotDivisibleError,
    UnsupportedAmbientError,
)
from .intlinalg import preimage_within
from .rational import (
    QSpace,
    RationalEndo,
    RationalLattice,
    endo_apply_lattice,
    lattice_index,
    lattice_intersect,
    lattice_sum,
    preimage_in_lattice,
)

__all__ = [
    "InertVerdict",
    "InertialCertificate",
    "almost_contained",
    "commensurable",
    "inert_index",
    "cylinder_inert_index",
    "strict_inert_index",
    "iterated_inert_index",
    "is_inertial_endomorphism",
    "make_multiplication",
    "is_multiplication",
    "multiplication_scalar",
    "is_finitary",
]

@dataclass(frozen=True)
class InertVerdict:
    """Outcome of an inertness check: the exact index [H^phi : H^phi ∩ H]."""

    inert: bool
    index: object

    def __post_init__(self):
        if self.inert != is_finite(self.index):
            raise ValueError("verdict flag must match index finiteness")


@dataclass(frozen=True)
class InertialCertificate:
    """Why an endomorphism is, or is not, inertial.

    ``multiplication_integer`` carries the scalar m acting on the free
    quotient; ``non_inertial_witness`` carries a cyclic subgroup whose
    strict inert index is infinite.
    """

    kind: str
    m: object = None
    witness: object = None

    @property
    def inertial(self):
        return self.kind == "multiplication_integer"


_AmbientOps = namedtuple("_AmbientOps", "apply sum meet index preimage zero")


def _fg_preimage(phi, target, within):
    return Subgroup(within.group, preimage_within(phi.matrix, target.basis, within.basis))


def _fg_zero(sub):
    return sub.group.zero_subgroup()


def _lattice_zero(lat):
    return RationalLattice.zero(lat.ambient_dim)


def _ambient_ops(h, other):
    """The exact operations of H's ambient, shared with ``other``.

    ``other`` is a subgroup or an endomorphism of the same ambient: a
    finitely generated group (``Subgroup``/``Endo``) or Q^n
    (``RationalLattice``/``RationalEndo``).  The fields are
    ``apply(phi, H)``, ``sum``, ``meet``, ``index(A, B)`` = [A : A ∩ B],
    ``preimage(phi, target, within)`` = {v in within : phi v in target}
    and ``zero(H)``, the zero subgroup of the ambient.  The table is
    built per call, so a rebinding of these module names (a profiler's
    wrapper, say) reaches every caller.
    """
    if isinstance(h, Subgroup) and isinstance(other, (Subgroup, Endo)):
        same = h.group == other.group
        ops = _AmbientOps(
            endo_apply_subgroup, subgroup_sum, subgroup_intersect,
            subgroup_index, _fg_preimage, _fg_zero,
        )
    elif isinstance(h, RationalLattice) and isinstance(
        other, (RationalLattice, RationalEndo)
    ):
        dim = other.dim if isinstance(other, RationalEndo) else other.ambient_dim
        same = h.ambient_dim == dim
        ops = _AmbientOps(
            endo_apply_lattice, lattice_sum, lattice_intersect,
            lattice_index, preimage_in_lattice, _lattice_zero,
        )
    else:
        raise UnsupportedAmbientError(
            f"no exact operations for {type(h).__name__}/{type(other).__name__}"
        )
    if not same:
        raise AmbientMismatchError(
            f"{type(h).__name__} and {type(other).__name__} live in "
            "different ambients"
        )
    return ops


def almost_contained(h, k):
    """Whether [H : H ∩ K] is finite.

    >>> from .abelian import FgAbGroup, subgroup_from_generators
    >>> Z = FgAbGroup([], 1)
    >>> two = subgroup_from_generators(Z, [[2]])
    >>> three = subgroup_from_generators(Z, [[3]])
    >>> almost_contained(two, three)
    True
    >>> almost_contained(Z.full_subgroup(), Z.zero_subgroup())
    False
    """
    return is_finite(_ambient_ops(h, k).index(h, k))


def commensurable(h, k):
    """Almost containment in both directions."""
    return almost_contained(h, k) and almost_contained(k, h)


def inert_index(h, phi, group=None):
    """The verdict for Def-style inertness: index of H^phi ∩ H in H^phi.

    Dispatches on the ambient: finitely generated subgroups, rational
    lattices, or finite table groups (pass the FiniteGroup as ``group``
    and phi as an index map).

    >>> from .rational import QSpace, RationalEndo, RationalLattice
    >>> half = RationalEndo.scalar(1, Fraction(1, 2))
    >>> inert_index(RationalLattice.standard(1), half)
    InertVerdict(inert=True, index=2)
    """
    if isinstance(h, (set, frozenset)):
        if not isinstance(group, FiniteGroup):
            raise UnsupportedAmbientError(
                "finite-group inertness needs the ambient FiniteGroup"
            )
        sub = frozenset(h)
        if not group.is_subgroup(sub):
            raise DomainError("subset is not a subgroup")
        if not group.is_endomorphism(phi):
            raise DomainError("map is not an endomorphism")
        image = frozenset(phi[x] for x in sub)
        index = len(image) // len(image & sub)
    else:
        ops = _ambient_ops(h, phi)
        index = ops.index(ops.apply(phi, h), h)
    return InertVerdict(is_finite(index), index)


def cylinder_inert_index(fam, k):
    """Inert index of the cylinder U_k under the canonical shift.

    Two-sided: the shift automorphism displaces one window coordinate,
    index |F| for every k.  One-sided: the left shift sends U_k onto
    U_{k-1}, index |F| for k >= 1 and 1 for k = 0.  Either way the
    cylinder is inert.
    """
    if k < 0:
        raise DomainError("cylinder index must be >= 0")
    if fam.two_sided:
        index = fam.cell_order
    else:
        index = fam.cell_order if k >= 1 else 1
    return InertVerdict(True, index)


def strict_inert_index(h, phi):
    """|(H + phi H)/H|, the additive index used by intrinsic entropy.

    It equals [phi H : phi H ∩ H] by the second isomorphism theorem, so
    it is ``inert_index(h, phi).index``.

    >>> from .rational import RationalEndo, RationalLattice
    >>> strict_inert_index(RationalLattice.standard(1),
    ...                    RationalEndo.scalar(1, Fraction(3, 2)))
    2
    """
    return inert_index(h, phi).index


def _endo_power(phi, k):
    if k >= 0 or isinstance(phi, RationalEndo):
        return phi.power(k)
    inverse = endo_invert(phi)
    if inverse is None:
        raise NonInvertibleError("negative power of a non-invertible map")
    return inverse.power(-k)


def iterated_inert_index(h, phi, k):
    """strict_inert_index of phi^k; negative k needs an invertible phi.

    >>> from .rational import RationalEndo, RationalLattice
    >>> half = RationalEndo.scalar(1, Fraction(1, 2))
    >>> iterated_inert_index(RationalLattice.standard(1), half, 3)
    8
    >>> iterated_inert_index(RationalLattice.standard(1), half, 0)
    1
    """
    return strict_inert_index(h, _endo_power(phi, k))


def is_inertial_endomorphism(phi):
    """Decide whether every subgroup of the domain is phi-inert.

    The induced matrix on the free quotient must be an integer scalar.
    Any other map moves some e_j off its own line, which makes <e_j> a
    witness (take the first column of the block with an off-diagonal
    entry); a diagonal block that is not scalar has unequal entries
    d_i != d_j, and then <e_i + e_j> is one (take the first such pair).
    The witness is returned as built; its infinite strict index follows
    from that argument and is not recomputed.

    >>> from .abelian import Endo, FgAbGroup
    >>> A = FgAbGroup([4], 2)
    >>> is_inertial_endomorphism(
    ...     Endo(A, [[5, 0, 0], [0, 5, 0], [0, 0, 5]])).m
    5
    >>> cert = is_inertial_endomorphism(
    ...     Endo(FgAbGroup([], 2), [[1, 1], [0, 1]]))
    >>> cert.kind, cert.witness.basis
    ('non_inertial_witness', ((0, 1),))
    """
    if not isinstance(phi, Endo):
        raise UnsupportedAmbientError("inertial decision needs an Endo")
    group = phi.group
    rank = group.free_rank
    block = phi.free_block()
    moved = [j for j in range(rank) for i in range(rank) if i != j and block[i][j]]
    unequal = [(i, j) for i in range(rank) for j in range(i + 1, rank)
               if block[i][i] != block[j][j]]
    vec = [0] * rank
    if moved:
        vec[moved[0]] = 1
    elif unequal:
        i, j = unequal[0]
        vec[i] = vec[j] = 1
    else:
        scalar = block[0][0] if rank else 0
        return InertialCertificate("multiplication_integer", m=scalar)
    coords = [0] * group.torsion_length + vec
    witness = subgroup_from_generators(group, [coords])
    return InertialCertificate("non_inertial_witness", witness=witness)


def make_multiplication(ambient, value):
    """The multiplication endomorphism by an integer or rational scalar.

    On Q^n every rational scalar works.  On a finitely generated group
    a rational m/n needs the group to be n-divisible with trivial
    n-torsion: no free part and gcd(n, exponent) = 1; then m/n acts as
    m times the inverse of n on each cyclic component.

    >>> from .abelian import FgAbGroup
    >>> make_multiplication(FgAbGroup([5]), 3).matrix
    ((3,),)
    >>> make_multiplication(FgAbGroup([5]), Fraction(1, 2)).matrix
    ((3,),)
    """
    if isinstance(ambient, QSpace):
        return RationalEndo.scalar(ambient.dim, Fraction(value))
    if not isinstance(ambient, FgAbGroup):
        raise UnsupportedAmbientError(
            f"no multiplication constructor for {type(ambient).__name__}"
        )
    value = Fraction(value)
    num, den = value.numerator, value.denominator
    if den == 1:
        dim = ambient.dim
        return Endo(
            ambient,
            [[num if i == j else 0 for j in range(dim)] for i in range(dim)],
        )
    if ambient.free_rank:
        raise NotDivisibleError(
            f"free part is not {den}-divisible"
        )
    diag = []
    for d in ambient.invariant_factors:
        try:
            inv = pow(den, -1, d)
        except ValueError:
            raise NotDivisibleError(
                f"multiplication by 1/{den} undefined modulo {d}"
            ) from None
        diag.append(num * inv % d)
    dim = ambient.dim
    return Endo(
        ambient,
        [[diag[i] if i == j else 0 for j in range(dim)] for i in range(dim)],
    )


def multiplication_scalar(phi):
    """The scalar c with phi = multiplication by c, or None.

    For a rational matrix this is the Fraction on the diagonal; for a
    finitely generated group the candidate is pinned down by the free
    part, or by the largest invariant factor, and then verified.
    """
    if isinstance(phi, RationalEndo):
        if not phi.is_scalar():
            return None
        return phi.matrix[0][0] if phi.dim else Fraction(0)
    if not isinstance(phi, Endo):
        raise UnsupportedAmbientError("recognition needs an endomorphism")
    group = phi.group
    if group.dim == 0:
        return 0
    if group.free_rank:
        candidate = phi.free_block()[0][0]
    else:
        candidate = phi.matrix[group.torsion_length - 1][group.torsion_length - 1]
    if phi == make_multiplication(group, candidate):
        return candidate
    return None


def is_multiplication(phi):
    """Whether phi is multiplication by some scalar.

    >>> from .abelian import Endo, FgAbGroup
    >>> is_multiplication(Endo(FgAbGroup([2, 4]), [[1, 0], [0, 3]]))
    True
    >>> is_multiplication(Endo(FgAbGroup([], 2), [[1, 1], [0, 1]]))
    False
    """
    return multiplication_scalar(phi) is not None


def is_finitary(phi):
    """Whether the fixed-point subgroup of phi has finite index.

    The fixed points ker(phi - 1) have finite index exactly when phi - 1
    vanishes on the free quotient, that is, when the free block of phi
    is the identity.

    >>> from .abelian import Endo, FgAbGroup
    >>> is_finitary(Endo(FgAbGroup([8], 2), [[5, 0, 0], [0, 1, 0], [0, 0, 1]]))
    True
    >>> is_finitary(make_multiplication(FgAbGroup([], 1), 2))
    False
    """
    if not isinstance(phi, Endo):
        raise UnsupportedAmbientError("finitary test needs an Endo")
    group = phi.group
    rank = group.free_rank
    block = phi.free_block()
    return all(
        block[i][j] == (1 if i == j else 0)
        for i in range(rank)
        for j in range(rank)
    )
