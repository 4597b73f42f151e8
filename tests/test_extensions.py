import math
import random

import pytest

from twistsep import extensions
from twistsep.errors import BudgetExceededError, ValidationError
from twistsep.extensions import (UNION_ORDER_BUDGET, ExtAutomorphism, ExtElement,
                                 FiniteExtension, ball_ext, decompose_twisted_class,
                                 ext_identity_automorphism, farb_depth_union,
                                 heisenberg_semidirect_c2, is_conjugate_virtual,
                                 z_semidirect_c2)
from twistsep.groups import free_abelian, heisenberg, heisenberg_automorphism
from twistsep.malcev import GroupHom, compose_with_inner, identity_automorphism, verify_hom
from twistsep.quotients import depth_scan
from twistsep.subgroups import InducedSequence, diagonal_kernel, intersect_finite_index
from twistsep.twisted import TwistedWitness, is_twisted_conjugate

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


def _z_square_root():
    # Z with a square root s of its generator: s^2 = a, trivial action
    Z = free_abelian(1)
    return FiniteExtension(Z, [identity_automorphism(Z)] * 2, {(1, 1): (0, (1,))})


@pytest.mark.parametrize("build", [z_semidirect_c2, heisenberg_semidirect_c2, _kernel_only,
                                   _z_square_root],
                         ids=["z-c2", "h3-c2", "r1", "z-sqrt"])
def test_conjugation_on_kernel_is_conjugation_in_g(build):
    # s_c m s_c^-1 computed in G is actions[c](m), which makes each part of
    # a twisted class a kernel class under the twist actions[c] o phi|N
    E = build()
    p = E.kernel
    rng = random.Random(SEED + 2)
    for _ in range(50):
        m = tuple(rng.randint(-4, 4) for _ in range(p.h))
        s_c = E.element(p.identity, rng.randrange(E.r))
        assert E.mult(E.mult(s_c, E.element(m, 0)), E.inv(s_c)) == \
            E.element(E.actions[s_c.coset].apply(m), 0)


def test_heisenberg_extension_arithmetic():
    E = heisenberg_semidirect_c2()
    rng = random.Random(SEED + 1)
    for _ in range(200):
        xs = [E.element(tuple(rng.randint(-4, 4) for _ in range(3)),
                        rng.randrange(2)) for _ in range(3)]
        assert E.mult(E.mult(xs[0], xs[1]), xs[2]) == \
            E.mult(xs[0], E.mult(xs[1], xs[2]))
        assert E.mult(E.inv(xs[0]), xs[0]) == E.identity


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
    # per query the class is decomposed once, and one depth scan under the
    # twist of y's coset decides every part there (none, when x's parts lie
    # in the other coset); two part kernels are intersected in closed form
    # (the lcm of their moduli), and that intersection is already normal
    # and phi-invariant, so stabilisation builds no image and no Schreier
    # transversal
    calls = {"virtual": 0, "decompose": 0, "scan": 0, "intersect": 0, "image": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(extensions, "is_conjugate_virtual",
                        counted("virtual", extensions.is_conjugate_virtual))
    monkeypatch.setattr(extensions, "decompose_twisted_class",
                        counted("decompose", extensions.decompose_twisted_class))
    monkeypatch.setattr(extensions, "depth_scan", counted("scan", extensions.depth_scan))
    monkeypatch.setattr(extensions, "intersect_finite_index",
                        counted("intersect", extensions.intersect_finite_index))
    monkeypatch.setattr(InducedSequence, "conjugated",
                        counted("image", InducedSequence.conjugated))
    E = heisenberg_semidirect_c2()
    phi = ext_identity_automorphism(E)
    y = E.element((2, 0, 2), 0)
    for queries, x_coset in enumerate((0, 1), start=1):
        x = E.element((2, 0, 1), x_coset)
        assert [x_i.coset for _, x_i in decompose_twisted_class(E, phi, x)] == [x_coset] * 2
        res = farb_depth_union(E, phi, x, y)
        assert calls == {"virtual": 0, "decompose": queries, "scan": queries,
                         "intersect": 0, "image": 0}
        assert len(res["part_orders"]) == 2
        if x_coset:   # G/N separates both parts
            assert res["part_orders"] == [E.r, E.r] and res["order"] == E.r
            assert res["moduli"] is None
        else:
            assert res["moduli"] is not None


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
    # projection to N separates y.n from every part's kernel class
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
    parts = decompose_twisted_class(E, phi, x)
    assert [x_i.coset for _, x_i in parts] == [y.coset] * E.r
    assert all(separates(q, psi, x_i.n, y.n) for psi, x_i in parts)


def test_farb_depth_union_stabilizes_under_the_swap(monkeypatch):
    # H3 x| C2 with the swap x <-> y, z -> z^-1, an involution: the lcm
    # kernel of the parts is often moved by the swap, so the stabilization
    # round intersects it with its image through a Schreier transversal
    E = _swap_extension()
    H, swap = E.kernel, E.actions[1]
    phi = ext_identity_automorphism(E)
    rounds, intersect = [], extensions.intersect_finite_index

    def recorded(pres, seqs, budget=1_000_000):
        out = intersect(pres, seqs, budget)
        rounds.append((seqs, out))
        return out

    monkeypatch.setattr(extensions, "intersect_finite_index", recorded)
    elements = sorted(ball_ext(E, 4), key=lambda e: (e.coset, e.n))
    probes = [e.n for e in elements]
    rng = random.Random(3)
    separated = stabilized = 0
    for _ in range(200):
        x, y = rng.sample(elements, 2)
        conjugate, _ = is_conjugate_virtual(E, phi, x, y)
        if conjugate:
            with pytest.raises(ValidationError, match="conjugate"):
                farb_depth_union(E, phi, x, y)
            continue
        before = len(rounds)
        res = farb_depth_union(E, phi, x, y)
        separated += 1
        if len(rounds) == before:
            continue
        stabilized += 1
        seqs, kernel = rounds[-1]
        assert res["order"] == E.r * kernel.index()
        assert res["moduli"] == [kernel.entries[i][i] for i in range(H.h)]
        for a in (swap, phi.restriction):
            assert all(kernel.contains(a.apply(g)) for g in kernel.generators())
        # the Schreier kernel is exactly the intersection of its inputs
        for g in probes:
            assert kernel.contains(g) == all(s.contains(g) for s in seqs)
    assert separated > 150 and stabilized > 50


@pytest.mark.parametrize("bad", ["coset-out-of-range", "wrong-length", "foreign-automorphism"])
def test_virtual_inputs_are_validated(bad):
    E = heisenberg_semidirect_c2()
    phi = ext_identity_automorphism(E)
    x = y = E.element((1, 0, 0), 0)
    if bad == "coset-out-of-range":
        with pytest.raises(ValidationError, match="coset"):
            E.element((1, 0, 0), 5)
        y = ExtElement((1, 0, 0), 5)
    elif bad == "wrong-length":
        y = ExtElement((1, 0), 0)
    else:
        phi = ext_identity_automorphism(z_semidirect_c2())
    for fn in (is_conjugate_virtual, farb_depth_union):
        for args in ((x, y), (y, x)):
            with pytest.raises(ValidationError):
                fn(E, phi, *args)


def _swap_extension():
    H = heisenberg()
    swap = heisenberg_automorphism(H, [[0, 1], [1, 0]])
    return FiniteExtension(H, [identity_automorphism(H), swap], {(1, 1): (0, H.identity)})


def _inner(E, g):
    """Conjugation by g as an ExtAutomorphism: on N it is Inn(g.n) o
    actions[g.coset], and g s_i g^-1 gives the coset map and corrections."""
    p = E.kernel
    images = [E.mult(E.mult(g, E.element(p.identity, i)), E.inv(g)) for i in range(E.r)]
    return ExtAutomorphism(E, compose_with_inner(p, E.actions[g.coset], g.n),
                           [e.coset for e in images], [e.n for e in images])


def _translated_reference(E, phi, x, y):
    """The translated formulation: a part x_i = s_i x phi(s_i)^-1 meets y
    only when y x_i^-1 lies in N, and then y lies in it exactly when
    y x_i^-1 is in the class of the identity under Inn(x_i.n) o
    actions[c] o phi|N. Returns the verdict and, for a pair that is not
    conjugate, the union's order, moduli and part orders, or the error
    class farb_depth_union must raise."""
    p = E.kernel
    parts = []
    for i in range(E.r):
        s_i = E.element(p.identity, i)
        x_i = E.mult(E.mult(s_i, x), E.inv(phi.apply(s_i)))
        d = E.mult(y, E.inv(x_i))
        f = compose_with_inner(p, E.actions[x_i.coset], x_i.n).compose(phi.restriction)
        parts.append((f, d.n) if d.coset == 0 else None)
    inside = [part for part in parts if part]
    if any(isinstance(is_twisted_conjugate(p, f, p.identity, d), TwistedWitness)
           for f, d in inside):
        return True, ValidationError
    scans = [depth_scan(p, f, [(p.identity, d)], UNION_ORDER_BUDGET)[0] for f, d in inside]
    if not all(res.separated for res in scans):
        return False, BudgetExceededError
    kernel = diagonal_kernel(p, [math.lcm(*ms) for ms in
                                 zip((1,) * p.h, *(res.moduli for res in scans))])
    autos = E.actions[1:] + [phi.restriction]
    while moved := [a for a in autos
                    if not all(kernel.contains(a.apply(g)) for g in kernel.generators())]:
        kernel = intersect_finite_index(p, [kernel] + [kernel.conjugated(a) for a in moved])
    orders = iter(res.order for res in scans)
    return False, {
        "order": E.r * kernel.index(),
        "part_orders": [next(orders) if part else E.r for part in parts],
        "moduli": [kernel.entries[i][i] for i in range(p.h)] if scans else None,
    }


@pytest.mark.parametrize("build", [heisenberg_semidirect_c2, _swap_extension, z_semidirect_c2],
                         ids=["h3-c2-negation", "h3-c2-swap", "z-c2"])
def test_parts_under_one_twist_per_coset_match_the_translated_parts(build):
    # each part [n_i]_(psi_c) s_c is decided and scanned under psi_c, where
    # the translated formulation shifts y by x_i^-1 and twists by
    # Inn(n_i) o psi_c; verdicts, union orders, moduli and part orders agree
    E = build()
    p = E.kernel
    ball = sorted(ball_ext(E, 4), key=lambda e: (e.coset, e.n))
    by_coset = [[e for e in ball if e.coset == c] for c in range(E.r)]
    phis = [ext_identity_automorphism(E), _inner(E, E.element(p.gen(0), 0)),
            _inner(E, E.element(p.gen(p.h - 1), 1))]
    rng = random.Random(SEED + 5)
    conjugate = 0
    for k in range(300):
        phi = phis[k % 3]
        x = rng.choice(by_coset[k // 4 % E.r])
        if k % 4 == 0:   # built conjugate
            g = rng.choice(ball)
            y = E.mult(E.mult(g, x), E.inv(phi.apply(g)))
        else:            # from x's coset, or from the next one
            y = rng.choice(by_coset[(x.coset + (k % 4 == 3)) % E.r])
        verdict, expected = _translated_reference(E, phi, x, y)
        ok, w = is_conjugate_virtual(E, phi, x, y)
        assert ok == verdict
        if ok:
            conjugate += 1
            assert E.mult(E.mult(w, x), E.inv(phi.apply(w))) == y
        if isinstance(expected, type):
            with pytest.raises(expected):
                farb_depth_union(E, phi, x, y)
            continue
        res = farb_depth_union(E, phi, x, y)
        assert {key: res[key] for key in expected} == expected
    assert 75 <= conjugate < 300
