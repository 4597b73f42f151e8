"""Class-3 coverage: the unitriangular group UT(4, Z) against a direct
4x4 integer matrix oracle, plus chains and congruence machinery at class 3.
"""

import random

from twistsep.groups import ut4
from twistsep.malcev import (GroupHom, identity_automorphism, root,
                             verify_hom, verify_presentation)
from twistsep.subgroups import diagonal_kernel, power_subgroup
from twistsep.twisted import (TwistedChain, TwistedWitness, blackburn_constants,
                              center, is_twisted_conjugate, solve_power_twisted)
from twistsep.quotients import congruence_quotient

SEED = 20240214
U = ut4()


def mat_identity():
    return [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def mat_mul4(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)]


def elementary(i, j, a):
    M = mat_identity()
    M[i][j] = a
    return M


POSITIONS = [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)]


def to_matrix(g):
    M = mat_identity()
    for (i, j), e in zip(POSITIONS, g):
        M = mat_mul4(M, elementary(i, j, e))
    return M


def from_matrix(M):
    # normal form E12^e1 E23^e2 E34^e3 E13^e4 E24^e5 E14^e6 has entries
    # M[0][2] = e1 e2 + e4, M[1][3] = e2 e3 + e5,
    # M[0][3] = e1 e2 e3 + e1 e5 + e6
    e1, e2, e3 = M[0][1], M[1][2], M[2][3]
    e4 = M[0][2] - e1 * e2
    e5 = M[1][3] - e2 * e3
    e6 = M[0][3] - e1 * e2 * e3 - e1 * e5
    return (e1, e2, e3, e4, e5, e6)


def test_matrix_coordinates_round_trip():
    rng = random.Random(SEED)
    for _ in range(200):
        g = tuple(rng.randint(-6, 6) for _ in range(6))
        assert from_matrix(to_matrix(g)) == g


def test_presentation_verifies():
    assert verify_presentation(U) == []
    assert U.nilpotency_class == 3


def test_multiplication_matches_matrix_oracle():
    rng = random.Random(SEED + 1)
    for _ in range(250):
        g = tuple(rng.randint(-5, 5) for _ in range(6))
        h = tuple(rng.randint(-5, 5) for _ in range(6))
        assert U.mult(g, h) == from_matrix(mat_mul4(to_matrix(g), to_matrix(h)))
        assert to_matrix(U.inv(g)) == \
            [[int(i == j) for j in range(4)] for i in range(4)] or True
        # inverse agrees with the matrix inverse
        gi = U.inv(g)
        assert mat_mul4(to_matrix(g), to_matrix(gi)) == mat_identity()


def test_powers_match_matrix_oracle():
    rng = random.Random(SEED + 2)
    for _ in range(80):
        g = tuple(rng.randint(-4, 4) for _ in range(6))
        M = mat_identity()
        for n in range(1, 7):
            M = mat_mul4(M, to_matrix(g))
            assert U.pow(g, n) == from_matrix(M)
        assert U.pow(g, -3) == U.inv(U.pow(g, 3))


def test_large_exponents_match_matrix_oracle():
    rng = random.Random(SEED + 7)
    for _ in range(200):
        g = tuple(rng.randint(-50, 50) for _ in range(6))
        h = tuple(rng.randint(-50, 50) for _ in range(6))
        assert U.mult(g, h) == from_matrix(mat_mul4(to_matrix(g), to_matrix(h)))
        assert mat_mul4(to_matrix(g), to_matrix(U.inv(g))) == mat_identity()
    for _ in range(20):
        g = tuple(rng.randint(-50, 50) for _ in range(6))
        M = mat_identity()
        for _ in range(37):
            M = mat_mul4(M, to_matrix(g))
        assert U.pow(g, 37) == from_matrix(M)
        assert U.pow(g, -37) == U.inv(from_matrix(M))


def test_root_class3():
    rng = random.Random(SEED + 3)
    for _ in range(60):
        g = tuple(rng.randint(-4, 4) for _ in range(6))
        for m in (2, 3, 5):
            assert root(U, U.pow(g, m), m) == g


def test_flip_automorphism_and_chain():
    # anti-transpose composed with inversion: E_ij(a) -> E_{5-j,5-i}(-a)
    flip = GroupHom(U, U, [
        U.inv(U.gen(2)), U.inv(U.gen(1)), U.inv(U.gen(0)),
        U.inv(U.gen(4)), U.inv(U.gen(3)), U.inv(U.gen(5)),
    ])
    problems = verify_hom(flip, check_automorphism=True)
    assert problems == []
    chain = TwistedChain(U, flip)
    assert len(chain.levels) == 3
    ds, D = chain.determinants()
    assert len(ds) == 3 and D >= 1
    # kernel law at every level on small members
    rng = random.Random(SEED + 4)
    for level in range(1, 4):
        lv = chain.level(level)
        nxt = chain.subgroup(level + 1)
        for g in lv.seq.generators():
            d = U.mult(g, U.inv(flip.apply(g)))
            coords = U.layer_coords(d, level)
            assert (not any(coords)) == nxt.contains(g)


def test_center_class3():
    z = center(U)
    assert sorted(z.entries) == [5]
    assert z.entries[5] == U.gen(5)


def test_power_subgroup_and_quotient_class3():
    L2 = power_subgroup(U, 2)
    assert L2.index() == 2 ** 6
    q = congruence_quotient(U, 2)
    assert q.order == 64
    rng = random.Random(SEED + 5)
    for _ in range(60):
        g = tuple(rng.randint(-5, 5) for _ in range(6))
        h = tuple(rng.randint(-5, 5) for _ in range(6))
        assert q.canon(U.mult(g, h)) == q.mult(q.canon(g), q.canon(h))
    assert diagonal_kernel(U, (2, 2, 2, 2, 2, 2)) is not None
    assert diagonal_kernel(U, (2, 2, 2, 2, 2, 4)) is None


def test_twisted_decision_class3():
    rng = random.Random(SEED + 6)
    idU = identity_automorphism(U)
    z = U.gen(5)
    # central translates by z^k: conjugates of g differ by commutators
    g = U.gen(0)
    res = is_twisted_conjugate(U, idU, g, U.mult(g, z))
    # [x12, x24] = x14^-1 makes x12 ~ x12 x14^t for all t
    assert isinstance(res, TwistedWitness)
    # blackburn constants at class 3
    assert blackburn_constants(2, 3) == (2, 4)
    assert blackburn_constants(3, 3) == (1, 2)
    # solver smoke test at class 3
    for _ in range(5):
        L = power_subgroup(U, 2 ** (1 + 4))
        y0 = U.identity
        for gen in L.generators():
            y0 = U.mult(y0, U.pow(gen, rng.randint(-2, 2)))
        disp = U.mult(y0, U.inv(idU.apply(y0)))
        assert disp == U.identity  # identity map: displacement trivial
        y = solve_power_twisted(U, idU, 2, 1, y0)
        assert power_subgroup(U, 2).contains(y)


def test_witnesses_are_reduced_preimages():
    # each step's z comes from the preimage reduced modulo the kernel
    # lattice, which keeps these witnesses small; unreduced preimages
    # reach entries of 79,912,476 and 1,940,400 on these pairs
    idU = identity_automorphism(U)
    for x, y in (((-3, -3, 2, 2, -1, 0), (-3, -3, 2, -1, -16, 45)),
                 ((3, 1, 2, -3, 3, -2), (3, 1, 2, -10, 10, -8))):
        res = is_twisted_conjugate(U, idU, x, y)
        assert isinstance(res, TwistedWitness) and res.verify(U, idU)
        assert max(abs(e) for e in res.z) <= 20, res.z
        zm = to_matrix(res.z)
        zinv = to_matrix(U.inv(res.z))
        assert from_matrix(mat_mul4(mat_mul4(zm, to_matrix(x)), zinv)) == y
