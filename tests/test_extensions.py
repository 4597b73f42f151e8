import random

import pytest

from twistsep import extensions
from twistsep.errors import ValidationError
from twistsep.extensions import (ExtAutomorphism, FiniteExtension, ball_ext,
                                 decompose_twisted_class,
                                 ext_identity_automorphism, farb_depth_union,
                                 heisenberg_semidirect_c2, is_conjugate_virtual,
                                 z_semidirect_c2)
from twistsep.groups import free_abelian, heisenberg
from twistsep.malcev import GroupHom, identity_automorphism, verify_hom
from twistsep.subgroups import InducedSequence

SEED = 20240214


def test_dihedral_arithmetic():
    E = z_semidirect_c2()
    a = E.element((5,), 1)
    b = E.element((3,), 1)
    assert E.mult(a, b) == E.element((2,), 0)
    assert E.mult(a, E.inv(a)) == E.identity
    rng = random.Random(SEED)
    for _ in range(300):
        xs = [E.element((rng.randint(-9, 9),), rng.randrange(2)) for _ in range(3)]
        assert E.mult(E.mult(xs[0], xs[1]), xs[2]) == \
            E.mult(xs[0], E.mult(xs[1], xs[2]))
        assert E.mult(xs[0], E.inv(xs[0])) == E.identity


def test_r1_degenerates_to_kernel():
    Z = z_semidirect_c2().kernel
    E = FiniteExtension(Z, [identity_automorphism(Z)], {})
    a, b = E.element((4,), 0), E.element((-7,), 0)
    assert E.mult(a, b).n == Z.mult(a.n, b.n)
    phi = ext_identity_automorphism(E)
    pairs = decompose_twisted_class(E, phi, a)
    assert len(pairs) == 1


def test_bad_cocycle_rejected():
    Z = z_semidirect_c2().kernel
    inv_auto = GroupHom(Z, Z, [(-1,)])
    with pytest.raises(ValidationError):
        # s^2 = s is not associative group data
        FiniteExtension(Z, [identity_automorphism(Z), inv_auto],
                        {(1, 1): (1, (0,))})


def _nonautomorphic_action():
    # x -> x^2 is an injective endomorphism of Z, not an automorphism
    Z = free_abelian(1)
    return Z, [identity_automorphism(Z), GroupHom(Z, Z, [(2,)])], {(1, 1): (0, (0,))}


def _order_four_action():
    # s^2 = 1, but the rotation squares to -1, not to Inn(1) = 1
    Z2 = free_abelian(2)
    rotation = GroupHom(Z2, Z2, [(0, 1), (-1, 0)])
    return Z2, [identity_automorphism(Z2), rotation], {(1, 1): (0, (0, 0))}


def _identity_that_is_not_one():
    # r = 1 with s_0 s_0 = z s_0: associative, but (0, 0) is no identity
    Z = free_abelian(1)
    return Z, [identity_automorphism(Z)], {(0, 0): (0, (1,))}


@pytest.mark.parametrize("table", [_nonautomorphic_action, _order_four_action,
                                   _identity_that_is_not_one],
                         ids=["non-automorphism", "order-4-action", "no-identity"])
def test_invalid_extension_data_rejected(table):
    with pytest.raises(ValidationError):
        FiniteExtension(*table())


def _kernel_only():
    H = heisenberg()
    return FiniteExtension(H, [identity_automorphism(H)], {})


@pytest.mark.parametrize("build", [z_semidirect_c2, heisenberg_semidirect_c2, _kernel_only],
                         ids=["z-c2", "h3-c2", "r1"])
def test_conjugation_on_kernel_is_conjugation_in_g(build):
    # the restriction read from the tables equals g m g^-1 computed in G
    E = build()
    p = E.kernel
    rng = random.Random(SEED + 2)
    for _ in range(50):
        g = E.element(tuple(rng.randint(-4, 4) for _ in range(p.h)), rng.randrange(E.r))
        conj = [E.mult(E.mult(g, E.element(p.gen(i), 0)), E.inv(g)) for i in range(p.h)]
        assert all(E.in_kernel(m) for m in conj)
        assert E.conjugation_on_kernel(g).images == [m.n for m in conj]


def test_heisenberg_extension_arithmetic():
    E = heisenberg_semidirect_c2()
    rng = random.Random(SEED + 1)
    for _ in range(200):
        xs = [E.element(tuple(rng.randint(-4, 4) for _ in range(3)),
                        rng.randrange(2)) for _ in range(3)]
        assert E.mult(E.mult(xs[0], xs[1]), xs[2]) == \
            E.mult(xs[0], E.mult(xs[1], xs[2]))
        assert E.mult(E.inv(xs[0]), xs[0]) == E.identity


def test_conjugation_on_kernel_is_automorphism():
    E = heisenberg_semidirect_c2()
    H = E.kernel
    g = E.element((1, 2, 0), 1)
    f = E.conjugation_on_kernel(g)
    assert verify_hom(f, check_automorphism=True) == []


def test_reflection_classes():
    E = z_semidirect_c2()
    phi = ext_identity_automorphism(E)
    ok, w = is_conjugate_virtual(E, phi, E.element((5,), 1), E.element((-5,), 1))
    assert ok
    ok, _ = is_conjugate_virtual(E, phi, E.element((0,), 1), E.element((3,), 1))
    assert not ok
    ok, w = is_conjugate_virtual(E, phi, E.element((0,), 1), E.element((4,), 1))
    assert ok and w is not None


def test_union_formula_exhaustive_dihedral():
    E = z_semidirect_c2()
    phi = ext_identity_automorphism(E)
    x = E.element((0,), 1)
    wball = list(ball_ext(E, 6))
    for g in ball_ext(E, 4):
        brute = any(E.mult(E.mult(z, x), E.inv(phi.apply(z))) == g
                    for z in wball)
        dec, _ = is_conjugate_virtual(E, phi, x, g)
        assert dec == brute


def test_union_formula_exhaustive_heisenberg_ext():
    E = heisenberg_semidirect_c2()
    phi = ext_identity_automorphism(E)
    x = E.element(E.kernel.identity, 1)
    wball = [(z, E.inv(phi.apply(z))) for z in ball_ext(E, 6)]
    for g in ball_ext(E, 4):
        brute = any(E.mult(E.mult(z, x), zi) == g for z, zi in wball)
        dec, _ = is_conjugate_virtual(E, phi, x, g)
        assert dec == brute


def test_farb_depth_union_dihedral():
    E = z_semidirect_c2()
    phi = ext_identity_automorphism(E)
    res = farb_depth_union(E, phi, E.element((1,), 0), E.element((3,), 0))
    assert res["order"] == 6
    assert res["order"] <= res["product_bound"]


def test_farb_depth_union_heisenberg():
    E = heisenberg_semidirect_c2()
    H = E.kernel
    phi = ext_identity_automorphism(E)
    x = E.element((0, 0, 1), 0)
    y = E.element((0, 0, 2), 0)
    ok, _ = is_conjugate_virtual(E, phi, x, y)
    assert not ok
    res = farb_depth_union(E, phi, x, y)
    assert res["order"] <= res["product_bound"]
    assert res["order"] % 2 == 0      # contains the G/N factor


def test_farb_depth_union_is_one_pass(monkeypatch):
    # the part scans decide conjugacy, the class is decomposed once, and
    # the intersection of the two part kernels is already normal and
    # phi-invariant, so stabilisation builds no image and intersects
    # nothing more
    calls = {"virtual": 0, "decompose": 0, "intersect": 0, "image": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(extensions, "is_conjugate_virtual",
                        counted("virtual", extensions.is_conjugate_virtual))
    monkeypatch.setattr(extensions, "decompose_twisted_class",
                        counted("decompose", extensions.decompose_twisted_class))
    monkeypatch.setattr(extensions, "intersect_finite_index",
                        counted("intersect", extensions.intersect_finite_index))
    monkeypatch.setattr(InducedSequence, "conjugated",
                        counted("image", InducedSequence.conjugated))
    E = heisenberg_semidirect_c2()
    phi = ext_identity_automorphism(E)
    x = E.element((2, 0, 1), 0)
    y = E.element((2, 0, 2), 0)
    assert all(E.in_kernel(E.mult(y, E.inv(x_i)))
               for _, x_i in decompose_twisted_class(E, phi, x))
    res = farb_depth_union(E, phi, x, y)
    assert calls == {"virtual": 0, "decompose": 1, "intersect": 1, "image": 0}
    assert len(res["part_orders"]) == 2 and res["moduli"] is not None


def test_farb_rejects_conjugate_pairs():
    E = z_semidirect_c2()
    phi = ext_identity_automorphism(E)
    with pytest.raises(ValidationError):
        farb_depth_union(E, phi, E.element((1,), 0), E.element((-1,), 0))


def test_ext_automorphism_validation():
    E = z_semidirect_c2()
    Z = E.kernel
    with pytest.raises(ValidationError):
        # restriction incompatible with the coset action
        ExtAutomorphism(E, GroupHom(Z, Z, [(2,)]), [0, 1],
                        [Z.identity, Z.identity])


def test_ext_automorphism_restriction_must_act_on_the_kernel():
    E = z_semidirect_c2()
    Z2 = free_abelian(2)
    with pytest.raises(ValidationError, match="kernel"):
        ExtAutomorphism(E, identity_automorphism(Z2), [0, 1], [E.kernel.identity] * 2)


def test_ext_automorphism_must_commute_with_the_coset_action():
    # Z^2 x| C2 with the swap: a shear is an automorphism of Z^2, but
    # shear(swap(e1)) = e1 + e2 while swap(shear(e1)) = e2
    Z2 = free_abelian(2)
    E = FiniteExtension(Z2, [identity_automorphism(Z2), GroupHom(Z2, Z2, [(0, 1), (1, 0)])],
                        {(1, 1): (0, (0, 0))})
    shear = GroupHom(Z2, Z2, [(1, 0), (1, 1)])
    assert verify_hom(shear, check_automorphism=True) == []
    with pytest.raises(ValidationError, match="multiplicativity"):
        ExtAutomorphism(E, shear, [0, 1], [Z2.identity] * 2)


def test_restriction_of_separating_quotient_separates_in_kernel():
    # when a quotient of G separates a pair lying in N, restricting the
    # projection to N separates the shifted kernel classes
    from twistsep.quotients import FiniteQuotient, separates
    from twistsep.subgroups import diagonal_kernel
    E = heisenberg_semidirect_c2()
    H = E.kernel
    phi = ext_identity_automorphism(E)
    x = E.element((0, 0, 1), 0)
    y = E.element((0, 0, 2), 0)
    res = farb_depth_union(E, phi, x, y)
    kernel = diagonal_kernel(H, tuple(res["moduli"]))
    q = FiniteQuotient(H, kernel)
    hit = False
    for f, x_i in decompose_twisted_class(E, phi, x):
        d = E.mult(y, E.inv(x_i))
        assert E.in_kernel(d)
        if separates(q, f, H.identity, d.n):
            hit = True
    assert hit
