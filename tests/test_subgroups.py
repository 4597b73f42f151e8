import itertools
import math
import random

import pytest

from twistsep.errors import ValidationError
from twistsep.groups import dim5, free_abelian, heisenberg, ut4
from twistsep.malcev import multiply, power
from twistsep.quotients import congruence_kernels
from twistsep.subgroups import (InducedSequence, diagonal_kernel, intersect_finite_index,
                                power_subgroup)
from test_depth_scan import all_stable_kernels, ordered_factorizations
from test_malcev import U5

SEED = 20240214
H3 = heisenberg()
D5 = dim5()


def random_word(pres, gens, rng, length=6):
    g = pres.identity
    for _ in range(length):
        s = rng.choice(gens)
        g = pres.mult(g, s if rng.random() < 0.5 else pres.inv(s))
    return g


def test_power_subgroup_examples():
    assert power_subgroup(H3, 1).index() == 1
    L2 = power_subgroup(H3, 2)
    assert L2.index() == 8
    assert [L2.entries[i][i] for i in range(3)] == [2, 2, 2]
    assert power_subgroup(H3, 6).index() == 216
    assert power_subgroup(free_abelian(4), 3).index() == 3 ** 4
    assert power_subgroup(D5, 2).index() == 2 ** 5
    # the uniform diagonal kernel is the generic normal closure of the
    # basis m-th powers, in every class (U5 is class 4)
    for pres in (H3, D5, free_abelian(4), ut4(), U5):
        basis = [pres.gen(i) for i in range(pres.h)]
        for m in range(1, 9):
            closure = InducedSequence.from_generators(
                pres, [pres.pow(a, m) for a in basis], conjugators=basis)
            assert power_subgroup(pres, m).entries == closure.entries


def test_power_subgroup_membership_is_divisibility():
    rng = random.Random(SEED)
    for m in (2, 3, 5):
        L = power_subgroup(H3, m)
        for _ in range(200):
            g = tuple(rng.randint(-12, 12) for _ in range(3))
            assert L.contains(g) == all(e % m == 0 for e in g)


def test_membership_against_word_closure():
    # <x^2, y^2>: commutator closure makes the z-part 4Z
    S = InducedSequence.from_generators(H3, [(2, 0, 0), (0, 2, 0)])
    assert S.index() == 16
    rng = random.Random(SEED + 1)
    gens = [(2, 0, 0), (0, 2, 0)]
    for _ in range(100):
        w = random_word(H3, gens, rng, 8)
        assert S.contains(w)
    assert not S.contains((0, 0, 2))
    assert S.contains((0, 0, 4))


def test_insert_with_gcd_combination():
    S = InducedSequence.from_generators(free_abelian(2), [(4, 0), (6, 1)])
    # leads combine: gcd(4, 6) = 2 at index 0
    assert S.entries[0][0] == 2
    assert S.index() is None or S.index() > 0


def test_coset_reps():
    L2 = power_subgroup(H3, 2)
    reps = set()
    rng = random.Random(SEED + 2)
    for _ in range(400):
        g = tuple(rng.randint(-9, 9) for _ in range(3))
        r = L2.coset_rep(g)
        reps.add(r)
        assert L2.coset_rep(r) == r
        # same coset: g * r^-1 ... left coset K g, so r in K g
        assert L2.contains(multiply(H3, g, H3.inv(r))) or \
            L2.contains(multiply(H3, r, H3.inv(g)))
    assert len(reps) == 8


def test_canonical_form_is_homomorphic():
    L = power_subgroup(H3, 3)
    rng = random.Random(SEED + 3)
    for _ in range(200):
        g = tuple(rng.randint(-9, 9) for _ in range(3))
        h = tuple(rng.randint(-9, 9) for _ in range(3))
        lhs = L.coset_rep(multiply(H3, g, h))
        rhs = L.coset_rep(multiply(H3, L.coset_rep(g), L.coset_rep(h)))
        assert lhs == rhs


def test_diagonal_kernel_stability():
    assert diagonal_kernel(H3, (2, 2, 2)) is not None
    assert diagonal_kernel(H3, (2, 2, 4)) is None
    assert diagonal_kernel(H3, (4, 2, 2)) is not None
    assert diagonal_kernel(H3, (2, 1, 1)) is not None
    assert diagonal_kernel(H3, (1, 3, 1)) is not None
    assert diagonal_kernel(H3, (3, 1, 3)) is None
    with pytest.raises(ValidationError):
        diagonal_kernel(H3, (2, 2))


def closure_stable(pres, moduli):
    """The stability decision by the generic normal closure of the
    a_i^(m_i): the closure's canonical sequence when it is the diagonal
    one, else None. The reference for diagonal_kernel's test."""
    gens = [power(pres, pres.gen(i), m) for i, m in enumerate(moduli)]
    seq = InducedSequence.from_generators(
        pres, gens, conjugators=[pres.gen(i) for i in range(pres.h)])
    return seq if seq.entries == dict(enumerate(gens)) else None


def test_diagonal_kernel_fast_path_matches_generic():
    # every moduli vector up to each order, composite orders included,
    # in classes 2, 2, 3 and 4
    for pres, max_order in ((H3, 60), (D5, 16), (ut4(), 12), (U5, 6)):
        stable = unstable = 0
        for order in range(2, max_order + 1):
            for vec in ordered_factorizations(order, pres.h):
                seq, ref = diagonal_kernel(pres, vec), closure_stable(pres, vec)
                assert (seq is None) == (ref is None), (pres.basis, vec)
                if ref is None:
                    unstable += 1
                else:
                    assert seq.entries == ref.entries, (pres.basis, vec)
                    stable += 1
        assert stable > 20 and unstable > 20, pres.basis


def test_congruence_kernels_build_no_closure(monkeypatch):
    def no_closure(self, conjugators):
        raise AssertionError("a stability decision ran a closure")

    monkeypatch.setattr(InducedSequence, "_close", no_closure)
    assert len(list(congruence_kernels(ut4(), 243))) == 476


def test_schreier_intersection():
    L2, L3 = power_subgroup(H3, 2), power_subgroup(H3, 3)
    inter = intersect_finite_index(H3, [L2, L3])
    assert inter == power_subgroup(H3, 6)
    # intersecting with itself is idempotent
    again = intersect_finite_index(H3, [L2, L2])
    assert again == L2


@pytest.mark.parametrize("pres, max_order, max_lcm_order",
                         [(H3, 12, 36), (D5, 8, 24), (ut4(), 6, 24)],
                         ids=["H3", "dim5", "ut4"])
def test_stable_kernels_intersect_at_the_lcm_of_their_moduli(pres, max_order, max_lcm_order):
    # every pair of stable kernels, composite orders included: the
    # closed form farb_depth_union uses equals the Schreier intersection
    family = list(all_stable_kernels(pres, max_order))
    pairs = 0
    for (_, m1, k1), (_, m2, k2) in itertools.combinations(family, 2):
        lcm = tuple(map(math.lcm, m1, m2))
        if math.prod(lcm) > max_lcm_order:
            continue
        seq = diagonal_kernel(pres, lcm)
        assert seq is not None, (m1, m2)
        assert seq.entries == intersect_finite_index(pres, [k1, k2]).entries, (m1, m2)
        pairs += 1
    assert pairs > 200


def test_conjugated_subgroup():
    from twistsep.groups import heisenberg_automorphism
    phi = heisenberg_automorphism(H3, [[0, 1], [1, 0]])
    L2 = power_subgroup(H3, 2)
    assert L2.conjugated(phi) == L2
