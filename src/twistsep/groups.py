"""Built-in presentations used throughout the tests, experiments and docs."""

from .errors import ValidationError
from .malcev import MalcevPresentation, GroupHom, check_hirsch_length


def heisenberg():
    """The 3-dimensional integral Heisenberg group <x, y, z | [x,y] = z,
    z central>, basis (x, y, z) with weights (1, 1, 2)."""
    return MalcevPresentation(
        basis=["x", "y", "z"],
        weights=[1, 1, 2],
        commutators={(1, 0): (0, 0, -1)},  # [y, x] = z^-1
    )


def dim5():
    """The 5-dimensional class-2 group on a_1, a_2, a_3 with central b_1,
    b_2, where b_1 = [a_2, a_1] and b_2 = [a_2, a_3]."""
    return MalcevPresentation(
        basis=["a1", "a2", "a3", "b1", "b2"],
        weights=[1, 1, 1, 2, 2],
        commutators={
            (1, 0): (0, 0, 0, 1, 0),    # [a2, a1] = b1
            (2, 1): (0, 0, 0, 0, -1),   # [a3, a2] = b2^-1
        },
    )


def free_abelian(k):
    check_hirsch_length(k)  # before any per-generator data is built
    return MalcevPresentation(
        basis=[f"e{i+1}" for i in range(k)],
        weights=[1] * k,
        commutators={},
    )


def ut4():
    """Upper unitriangular 4x4 integer matrices: class 3, Hirsch length 6.
    Basis x12, x23, x34 (weight 1), x13, x24 (weight 2), x14 (weight 3),
    with the elementary-matrix commutator structure."""
    return MalcevPresentation(
        basis=["x12", "x23", "x34", "x13", "x24", "x14"],
        weights=[1, 1, 1, 2, 2, 3],
        commutators={
            (1, 0): (0, 0, 0, -1, 0, 0),   # [x23, x12] = x13^-1
            (2, 1): (0, 0, 0, 0, -1, 0),   # [x34, x23] = x24^-1
            (3, 2): (0, 0, 0, 0, 0, 1),    # [x13, x34] = x14
            (4, 0): (0, 0, 0, 0, 0, -1),   # [x24, x12] = x14^-1
        },
    )


def dim5_automorphism(p=None):
    """The fixed automorphism of the dim-5 group: a3 -> a1 a3, b2 -> b1 b2,
    everything else fixed."""
    p = p or dim5()
    return GroupHom(p, p, [
        (1, 0, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (1, 0, 1, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 0, 0, 1, 1),
    ])


def heisenberg_automorphism(p, A, e=0, f=0):
    """The automorphism of the Heisenberg group determined by an integer
    matrix A = [[a, b], [c, d]] with det +-1 and shear parameters (e, f).

    In matrix coordinates it sends (X, Y, Z) to (aX+bY, cX+dY, eX+fY+DZ)
    with D = det A; translated to exponent vectors this is
    x -> (a, c, e - ac), y -> (b, d, f - bd), z -> (0, 0, D).
    """
    (a, b), (c, d) = A
    D = a * d - b * c
    if D not in (1, -1):
        raise ValidationError(f"matrix {A} must have determinant +-1, not {D}")
    return GroupHom(p, p, [
        (a, c, e - a * c),
        (b, d, f - b * d),
        (0, 0, D),
    ])
