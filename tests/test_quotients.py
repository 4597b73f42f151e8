import random

import pytest

from twistsep.errors import BudgetExceededError, PreconditionError, ValidationError
from twistsep.groups import (dim5, dim5_automorphism, free_abelian, heisenberg,
                             heisenberg_automorphism)
from twistsep.malcev import GroupHom, identity_automorphism
from twistsep.quotients import (CentralQuotientError, FiniteQuotient,
                                central_quotient, congruence_depth,
                                congruence_kernels, congruence_quotient,
                                full_power_subgroup, induced_automorphism,
                                one_dim_central_quotient, projected_class,
                                separates,
                                verify_pullback_reduction)
from twistsep.subgroups import power_subgroup
from twistsep.twisted import center, twisted_chain
from test_depth_scan import all_stable_kernels

SEED = 20240214
H3 = heisenberg()
D5 = dim5()
ID_H3 = identity_automorphism(H3)
CASE1 = heisenberg_automorphism(H3, [[2, 1], [1, 1]])
CASE2 = heisenberg_automorphism(H3, [[0, 1], [1, 0]])
CASE3 = heisenberg_automorphism(H3, [[1, 0], [0, 1]], e=1)


def test_quotient_orders():
    assert congruence_quotient(H3, 2).order == 8
    assert congruence_quotient(H3, 3).order == 27
    assert congruence_quotient(H3, 6).order == 216
    assert congruence_quotient(free_abelian(1), 7).order == 7
    with pytest.raises(BudgetExceededError):
        congruence_quotient(H3, 100, order_budget=1000)


def test_quotient_element_count_matches_order():
    q = congruence_quotient(H3, 3)
    elems = list(q.elements())
    assert len(elems) == 27 == q.order
    assert len(set(elems)) == 27
    for e in elems:
        assert q.canon(e) == e


def test_quotient_canon_is_homomorphic():
    rng = random.Random(SEED)
    for m in (2, 4, 5):
        q = congruence_quotient(H3, m)
        for _ in range(150):
            g = tuple(rng.randint(-9, 9) for _ in range(3))
            h = tuple(rng.randint(-9, 9) for _ in range(3))
            assert q.canon(H3.mult(g, h)) == q.mult(q.canon(g), q.canon(h))


def test_induced_automorphism():
    q = congruence_quotient(H3, 2)
    bar = induced_automorphism(q, ID_H3)
    for e in q.elements():
        assert bar(e) == e
    bar2 = induced_automorphism(q, CASE2)
    imgs = {bar2(e) for e in q.elements()}
    assert len(imgs) == 8
    with pytest.raises(ValidationError):
        induced_automorphism(q, CASE1)      # (xy)^2 escapes the level-2 kernel
    q5 = congruence_quotient(D5, 2)
    bar5 = induced_automorphism(q5, dim5_automorphism(D5))
    assert len({bar5(e) for e in q5.elements()}) == 32
    # x -> 3x on Z keeps 3^k Z but collapses Z/3^k, at every order
    Z = free_abelian(1)
    for k in (1, 10):
        with pytest.raises(ValidationError):
            induced_automorphism(congruence_quotient(Z, 3 ** k), GroupHom(Z, Z, [(3,)]))


def test_projected_class_singleton_and_partition():
    q = congruence_quotient(H3, 3)
    assert projected_class(q, ID_H3, (0, 0, 1)) == {(0, 0, 1)}
    cls = projected_class(q, ID_H3, H3.gen(0))
    assert len(cls) == 3
    seen = set()
    total = 0
    for e in q.elements():
        if e not in seen:
            c = projected_class(q, ID_H3, e)
            seen |= c
            total += len(c)
    assert total == q.order


def test_separates_basics():
    q = congruence_quotient(H3, 2)
    x2 = H3.pow(H3.gen(0), 2)
    assert not separates(q, ID_H3, x2, x2)
    assert separates(q, ID_H3, x2, H3.mult(x2, H3.gen(2)))
    # q-power moduli never separate (x^p, x^p z) for q != p
    q27 = congruence_quotient(H3, 3)
    assert not separates(q27, ID_H3, x2, H3.mult(x2, H3.gen(2)))


def test_separates_works_without_invariant_kernel():
    # CASE1 does not preserve the level-2 kernel, but image classes are
    # still computable through the graph moves
    q = congruence_quotient(H3, 2)
    cls = projected_class(q, CASE1, H3.gen(0))
    assert q.canon(H3.gen(0)) in cls
    assert isinstance(separates(q, CASE1, H3.gen(0), H3.gen(1)), bool)


def test_congruence_depth_examples():
    r = congruence_depth(free_abelian(2), identity_automorphism(free_abelian(2)),
                         (0, 0), (1, 0))
    assert (r.separated, r.order) == (True, 2)
    for p in (2, 3, 5):
        xp = H3.pow(H3.gen(0), p)
        r = congruence_depth(H3, ID_H3, xp, H3.mult(xp, H3.gen(2)),
                             order_budget=200)
        assert r.separated and r.order == p ** 3
        assert r.moduli == (p, p, p)
    r = congruence_depth(H3, ID_H3, H3.gen(2), H3.pow(H3.gen(2), 2),
                         order_budget=200)
    assert r.separated and r.order == 8


def test_congruence_depth_requires_nonconjugate():
    with pytest.raises(PreconditionError):
        congruence_depth(H3, ID_H3, H3.gen(0), H3.gen(0))


def test_congruence_depth_budget():
    r = congruence_depth(H3, ID_H3, H3.pow(H3.gen(0), 7),
                         H3.mult(H3.pow(H3.gen(0), 7), H3.gen(2)),
                         order_budget=20)
    assert not r.separated and r.budget_exhausted


def test_congruence_kernels_sorted():
    orders = [order for order, _, _ in congruence_kernels(H3, 64)]
    assert orders == sorted(orders)
    assert orders[0] == 2


def test_full_power_subgroup():
    fp2 = full_power_subgroup(H3, 2)
    assert fp2.index() == 4
    assert fp2.contains((0, 0, 1))          # z = (xy)^-2 x^2 y^2
    assert full_power_subgroup(H3, 3) == power_subgroup(H3, 3)
    assert full_power_subgroup(H3, 4).index() == 32
    # characteristic: stable under every test automorphism
    for phi in (CASE1, CASE2, CASE3):
        for g in fp2.generators():
            assert fp2.contains(phi.apply(g))


def test_pullback_reduction_all_cases():
    rng = random.Random(SEED + 1)
    xs = [H3.identity, (1, 0, 0), (0, 1, 2), (-1, 2, 1)]
    for phi in (ID_H3, CASE1, CASE2, CASE3):
        for p in (2, 3):
            for x in xs:
                assert verify_pullback_reduction(H3, phi, x, p, 1)


def test_central_quotient_layer_split():
    quotient, hom = central_quotient(D5, [(0, 0, 0, 0, 1)])  # kill b2
    assert quotient.h == 4
    assert hom.apply(D5.gen(4)) == quotient.identity
    rng = random.Random(SEED + 2)
    for _ in range(100):
        g = tuple(rng.randint(-5, 5) for _ in range(5))
        h = tuple(rng.randint(-5, 5) for _ in range(5))
        assert hom.apply(D5.mult(g, h)) == \
            quotient.mult(hom.apply(g), hom.apply(h))


def test_central_quotient_rejects_nonsaturated():
    with pytest.raises(CentralQuotientError):
        central_quotient(H3, [(0, 0, 2)])


def test_one_dim_central_quotients():
    M, hom, steps = one_dim_central_quotient(H3, (0, 0, 1))
    assert M.h == 3 and steps == 0
    M, hom, _ = one_dim_central_quotient(free_abelian(2), (1, 0))
    assert M.h == 1
    for direction in (D5.gen(3), D5.gen(4)):
        M, hom, _ = one_dim_central_quotient(D5, direction)
        assert M.h == 3
        assert sorted(center(M).entries) and center(M).rank() == 1
        assert hom.apply(direction) != M.identity
    with pytest.raises(CentralQuotientError):
        one_dim_central_quotient(H3, (0, 0, 2))   # not primitive


def test_separation_implies_decision_nonconjugate():
    # consistency: when any congruence quotient separates a pair, the exact
    # decision must also report non-conjugacy
    import random as _random
    from twistsep.twisted import TwistedWitness, is_twisted_conjugate
    rng = _random.Random(SEED + 9)
    for phi in (ID_H3, CASE1, CASE2):
        for _ in range(40):
            x = tuple(rng.randint(-3, 3) for _ in range(3))
            y = tuple(rng.randint(-3, 3) for _ in range(3))
            separated = False
            for order, vec, kernel in all_stable_kernels(H3, 27):
                if separates(FiniteQuotient(H3, kernel), phi, x, y):
                    separated = True
                    break
            if separated:
                res = is_twisted_conjugate(H3, phi, x, y)
                assert not isinstance(res, TwistedWitness)


def test_pullback_reduction_dim5():
    phi5 = dim5_automorphism(D5)
    for p in (2, 3):
        for x in (D5.identity, (1, 0, 2, 0, 0), (0, 1, 1, 1, 0)):
            assert verify_pullback_reduction(D5, phi5, x, p, 1,
                                             order_budget=300_000)


def test_mixed_layer_center_quotients():
    # Z x H3: the center <t, z> spans two weight layers
    from twistsep.malcev import MalcevPresentation
    P = MalcevPresentation(
        ["t", "x", "y", "z"], [1, 1, 1, 2],
        {(2, 1): (0, 0, 0, -1)})
    assert sorted(center(P).entries) == [0, 3]
    M, hom, _ = one_dim_central_quotient(P, (0, 0, 0, 1))   # the z direction
    assert M.h == 3 and M.nilpotency_class == 2
    M2, hom2, _ = one_dim_central_quotient(P, (1, 0, 0, 0))  # the t direction
    assert M2.h == 1
    # a primitive direction mixing both layers
    M3, hom3, _ = one_dim_central_quotient(P, (1, 0, 0, 1))
    assert center(M3).rank() == 1
    assert hom3.apply((1, 0, 0, 1)) != M3.identity


def test_pullback_reduction_deep_determinant():
    # twisted determinant 16 forces the full k0 = 4 level gap (quotient of
    # order 2^15) when the composed twist keeps the 2-adic depth
    phi = heisenberg_automorphism(H3, [[2, 1], [-1, 0]], e=0, f=17)
    assert twisted_chain(H3, phi).determinants()[1] == 16
    for x in (H3.identity, (1, -1, 0), (0, 0, 3)):
        assert verify_pullback_reduction(H3, phi, x, 2, 1,
                                         order_budget=300_000)
