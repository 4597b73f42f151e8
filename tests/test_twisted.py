import random

import pytest

from twistsep import lattice
from twistsep.errors import PreconditionError
from twistsep.groups import (dim5, dim5_automorphism, free_abelian, heisenberg,
                             heisenberg_automorphism, ut4)
from twistsep.lattice import Lattice
from twistsep.malcev import (GroupHom, ball, compose_with_inner, identity_automorphism,
                             inner_automorphism, verify_hom)
from twistsep.subgroups import InducedSequence, power_subgroup
from twistsep.twisted import (NotTwistedConjugate, TwistedChain, TwistedWitness,
                              blackburn_constants, blackburn_root,
                              bounded_witness, canonical_form, center, fixed_subgroup,
                              is_twisted_conjugate, psi, solve_power_twisted,
                              twisted_chain, twisted_determinant, twisted_subgroup)
from test_malcev import U5

SEED = 20240214
H3 = heisenberg()
D5 = dim5()

ID_H3 = identity_automorphism(H3)
CASE1 = heisenberg_automorphism(H3, [[2, 1], [1, 1]])
CASE2 = heisenberg_automorphism(H3, [[0, 1], [1, 0]])
PHI5 = dim5_automorphism(D5)
U4 = ut4()


def random_member(pres, seq, rng, size=4):
    g = pres.identity
    for gen in seq.generators():
        g = pres.mult(g, pres.pow(gen, rng.randint(-size, size)))
    return g


def test_identity_chain():
    chain = TwistedChain(H3, ID_H3)
    for i in (1, 2):
        assert chain.subgroup(i).index() == 1
        assert all(not any(row) for row in chain.level(i).psi_rows)
    ds, D = chain.determinants()
    assert ds == [1, 1] and D == 1
    assert chain.fixed.index() == 1


def test_case1_chain():
    chain = TwistedChain(H3, CASE1)
    n2 = chain.subgroup(2)
    assert sorted(n2.entries) == [2]
    assert n2.entries[2] == (0, 0, 1)
    assert chain.level(2).image.rows == []       # N_phi trivial
    assert twisted_subgroup(H3, CASE1).rows == []
    assert twisted_determinant(H3, CASE1) == ([1, 1], 1)


def test_case2_chain():
    chain = TwistedChain(H3, CASE2)
    n2 = chain.subgroup(2)
    assert n2.contains((1, 1, 0)) and n2.contains((0, 0, 1))
    assert not n2.contains((1, 0, 0))
    image = chain.level(2).image
    assert image.contains([2])                   # z^2 always lands in N_phi
    assert image.rows == [[1]]
    # D = -1 case from the worked example: z itself is a displacement
    assert twisted_subgroup(H3, CASE2).contains([1])


def test_case2b_determinant():
    phi = heisenberg_automorphism(H3, [[1, 0], [0, -1]])
    ds, D = twisted_determinant(H3, phi)
    assert ds == [2, 2] and D == 4


def test_dim5_chain_matches_worked_example():
    for x in [D5.identity, (1, 0, 0, 0, 0), (2, -1, 3, 0, 1), (0, 0, 5, 2, -2)]:
        chain = TwistedChain(D5, compose_with_inner(D5, PHI5, x))
        n2 = chain.subgroup(2)
        assert sorted(n2.entries) == [0, 1, 3, 4]
        assert n2.entries[0] == D5.gen(0) and n2.entries[1] == D5.gen(1)
    assert psi(D5, PHI5, 2, D5.gen(3)) == (0, 0)
    assert psi(D5, PHI5, 2, D5.gen(4)) == (-1, 0)


def ut_flip(pres):
    """E_ij(a) -> E_{n+1-j,n+1-i}(-a) on ut4's basis x12, x23, x34, x13, x24, x14."""
    return GroupHom(pres, pres, [pres.inv(pres.gen(i)) for i in (2, 1, 0, 4, 3, 5)])


def ut_sign(pres):
    """Conjugation by diag(1, -1, 1, ...) on UT(n): x_ij -> x_ij^((-1)^(j-i))."""
    return GroupHom(pres, pres, [pres.inv(pres.gen(i)) if w % 2 else pres.gen(i)
                                 for i, w in enumerate(pres.weights)])


F4 = free_abelian(4)
BUILTIN_MAPS = [
    (H3, CASE2), (D5, PHI5),
    (F4, GroupHom(F4, F4, [(1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)])),
    (U4, ut_flip(U4)), (U5, ut_sign(U5)),
]


@pytest.mark.parametrize("pres, phi", BUILTIN_MAPS,
                         ids=["heisenberg", "dim5", "free_abelian4", "ut4", "ut5"])
def test_lazy_seeded_chain_equals_eager_chain(pres, phi):
    # a chain forced level by level in order, unseeded, against one read
    # deepest level first with N_2 seeded from phi's chain, for phi and
    # Inn(x) o phi
    assert verify_hom(phi, check_automorphism=True) == []
    c = pres.nilpotency_class
    n2 = TwistedChain(pres, phi).subgroup(2)
    rng = random.Random(SEED + 20)
    xs = [pres.identity] + [tuple(rng.randint(-2, 2) for _ in range(pres.h))
                            for _ in range(4)]
    for x in xs:
        m = compose_with_inner(pres, phi, x)
        eager = TwistedChain(pres, m)
        forced = [eager.level(i) for i in range(1, c + 1)]
        lazy = TwistedChain(pres, m)
        lazy._seqs[2] = n2
        for i in range(c, 0, -1):
            a, b = forced[i - 1], lazy.level(i)
            assert a.seq.entries == b.seq.entries
            assert a.psi_rows == b.psi_rows
            assert a.image.rows == b.image.rows
            assert a.determinant == b.determinant
        assert eager.fixed.entries == lazy.fixed.entries


def test_decision_closes_only_what_it_reads(monkeypatch):
    # with phi's own chain built, a decision whose stages read levels 1-2
    # only runs no closure; a stage reading level 3 closes N_3 and nothing
    # deeper (ut4 is class 3, so N_4 is never closed)
    U = ut4()  # a fresh presentation, so the chain memo starts empty
    phi = ut_flip(U)
    twisted_chain(U, phi).subgroup(2)
    closures, read = [], []
    closure, level = InducedSequence.from_generators.__func__, TwistedChain.level
    monkeypatch.setattr(InducedSequence, "from_generators", classmethod(
        lambda cls, *a, **k: closures.append(1) or closure(cls, *a, **k)))
    monkeypatch.setattr(TwistedChain, "level",
                        lambda self, i: read.append(i) or level(self, i))
    rng = random.Random(SEED + 21)
    shallow = {True: 0, False: 0}
    for k in range(100):
        x = tuple(rng.randint(-2, 2) for _ in range(6))
        w = tuple(rng.randint(-2, 2) for _ in range(5)) + (0,)
        if k % 2:  # conjugate, by z in gamma_2: the difference lies in layer 2
            z = (0, 0, 0) + w[3:]
            y = U.mult(U.mult(z, x), U.inv(phi.apply(z)))
        else:
            y = U.mult(w, x)
        del closures[:], read[:]
        res = is_twisted_conjugate(U, phi, x, y)
        assert len(closures) <= read.count(3)
        if max(read, default=1) <= 2:
            assert closures == []
            shallow[isinstance(res, TwistedWitness)] += 1
    assert min(shallow.values()) >= 5, shallow


def test_decision_builds_one_chain_for_its_twist(monkeypatch):
    # every decision for one x reads the chain of Inn(x) o phi and seeds its
    # N_2 from phi's chain, so 40 decisions build exactly those two chains
    U = ut4()  # a fresh presentation, so the chain memo starts empty
    phi = ut_flip(U)
    builds = []
    init = TwistedChain.__init__
    monkeypatch.setattr(TwistedChain, "__init__",
                        lambda self, *a: builds.append(1) or init(self, *a))
    rng = random.Random(SEED + 22)
    x = (1, -2, 1, 0, 2, -1)
    for k in range(40):
        w = tuple(rng.randint(-2, 2) for _ in range(6))
        if k % 2:
            y = U.mult(U.mult(w, x), U.inv(phi.apply(w)))
        else:
            y = U.mult(w, x)
        res = is_twisted_conjugate(U, phi, x, y)
        if k % 2:
            assert isinstance(res, TwistedWitness)
        if isinstance(res, TwistedWitness):
            assert res.verify(U, phi)
    assert len(builds) == 2


def test_psi_is_homomorphism():
    rng = random.Random(SEED)
    for pres, phi in ((H3, CASE2), (H3, CASE1), (D5, PHI5)):
        chain = TwistedChain(pres, phi)
        for level in range(1, pres.nilpotency_class + 1):
            lv = chain.level(level)
            gens = lv.seq.generators()
            if not gens:
                continue
            for _ in range(120):
                a = random_member(pres, lv.seq, rng)
                b = random_member(pres, lv.seq, rng)
                pa = psi(pres, phi, level, a)
                pb = psi(pres, phi, level, b)
                pab = psi(pres, phi, level, pres.mult(a, b))
                assert pab == tuple(u + v for u, v in zip(pa, pb))


def test_psi_membership_error():
    with pytest.raises(PreconditionError):
        psi(H3, CASE1, 2, (1, 0, 0))


def test_psi_kernel_is_next_level():
    for phi in (CASE1, CASE2):
        chain = TwistedChain(H3, phi)
        lv = chain.level(1)
        nxt = chain.subgroup(2)
        for g in ball(H3, H3.standard_gens(), 4):
            value = psi(H3, phi, 1, g)
            assert (not any(value)) == nxt.contains(g)


def test_psi_inner_is_commutator_in_two_step():
    # psi_{Inn(x),2}(y) = [y, x] on class-2 groups
    rng = random.Random(SEED + 1)
    for _ in range(50):
        x = tuple(rng.randint(-5, 5) for _ in range(3))
        inn = inner_automorphism(H3, x)
        y = tuple(rng.randint(-5, 5) for _ in range(3))
        d = H3.mult(y, H3.inv(inn.apply(y)))
        assert d == H3.comm(y, x)


def test_center_and_fixed():
    assert sorted(center(H3).entries) == [2]
    assert sorted(center(D5).entries) == [3, 4]
    assert center(free_abelian(3)).index() == 1
    fix = fixed_subgroup(H3, CASE2)
    # phi(x^2 y^2 z^-2) = y^2 x^2 z^2 = x^2 y^2 z^-2 exactly
    assert fix.contains((2, 2, -2))
    assert not fix.contains((0, 0, 1))     # phi(z) = z^-1
    assert not fix.contains((1, 1, 0))     # phi(xy) = yx = xy z^-1
    for g in fix.generators():
        assert CASE2.apply(g) == g


def test_decision_heisenberg_conjugacy_classes():
    for p in (2, 3, 5):
        xp = H3.pow(H3.gen(0), p)
        res = is_twisted_conjugate(H3, ID_H3, xp,
                                   H3.mult(xp, H3.pow(H3.gen(2), p)))
        assert isinstance(res, TwistedWitness)
        assert res.verify(H3, ID_H3)
        res = is_twisted_conjugate(H3, ID_H3, xp, H3.mult(xp, H3.gen(2)))
        assert isinstance(res, NotTwistedConjugate)


def test_decision_self_conjugate():
    rng = random.Random(SEED + 2)
    for phi in (ID_H3, CASE1, CASE2):
        for _ in range(20):
            x = tuple(rng.randint(-4, 4) for _ in range(3))
            res = is_twisted_conjugate(H3, phi, x, x)
            assert isinstance(res, TwistedWitness)
            assert res.verify(H3, phi)


def test_decision_vs_brute_force_small():
    rng = random.Random(SEED + 3)
    S = H3.standard_gens()
    b2 = ball(H3, S, 2)
    wball = ball(H3, S, 6)
    for phi in (CASE1, CASE2):
        pre = [(z, H3.inv(phi.apply(z))) for z in wball]
        for _ in range(40):
            x = rng.choice(b2)
            y = rng.choice(b2)
            brute = any(H3.mult(H3.mult(z, x), zi) == y for z, zi in pre)
            res = is_twisted_conjugate(H3, phi, x, y)
            assert isinstance(res, TwistedWitness) == brute


def test_abelian_translation_structure():
    # y in [x]_phi iff y - x in image(I - phi), exhaustively on a Z^2 box
    Z2 = free_abelian(2)
    from twistsep.malcev import GroupHom
    phi = GroupHom(Z2, Z2, [(0, 1), (1, 0)])
    image = Lattice.from_rows(2, [(1, -1)])
    for x1 in range(-2, 3):
        for x2 in range(-2, 3):
            for y1 in range(-2, 3):
                for y2 in range(-2, 3):
                    x, y = (x1, x2), (y1, y2)
                    res = is_twisted_conjugate(Z2, phi, x, y)
                    expected = image.contains([y1 - x1, y2 - x2])
                    assert isinstance(res, TwistedWitness) == expected


def test_bounded_witness():
    x, report = bounded_witness(H3, CASE2, (0, 0, 2))
    assert H3.mult(x, H3.inv(CASE2.apply(x))) == (0, 0, 2)
    assert report["norm_upper"] >= 1
    with pytest.raises(PreconditionError):
        bounded_witness(H3, ID_H3, (0, 0, 1))
    # Inn(g): y = [w, g] has witness w
    rng = random.Random(SEED + 4)
    for _ in range(20):
        g = tuple(rng.randint(-4, 4) for _ in range(3))
        w = tuple(rng.randint(-4, 4) for _ in range(3))
        inn = inner_automorphism(H3, g)
        y = H3.mult(w, H3.inv(inn.apply(w)))
        x, _ = bounded_witness(H3, inn, y)
        assert H3.mult(x, H3.inv(inn.apply(x))) == y


def test_blackburn_constants():
    assert blackburn_constants(2, 2) == (1, 1)
    assert blackburn_constants(3, 2) == (0, 0)
    assert blackburn_constants(5, 2) == (0, 0)
    assert blackburn_constants(2, 4) == (4, 12)
    assert 2 ** 4 <= 24
    with pytest.raises(Exception):
        blackburn_constants(4, 2)


def test_blackburn_root():
    y = blackburn_root(H3, 2, 1, (4, 4, 4))
    assert H3.pow(y, 2) == (4, 4, 4)
    with pytest.raises(PreconditionError):
        blackburn_root(H3, 2, 1, (2, 0, 0))
    # pure-power route, filtered to powers that land in the congruence
    # kernel (the membership precondition uses basis-power subgroups)
    rng = random.Random(SEED + 5)
    L4 = power_subgroup(H3, 4)
    hits = 0
    for _ in range(60):
        g = tuple(rng.randint(-4, 4) for _ in range(3))
        x = H3.pow(g, 2 ** (1 + 1))
        if not L4.contains(x):
            continue
        hits += 1
        y = blackburn_root(H3, 2, 1, x)
        assert H3.pow(y, 2) == x
    assert hits > 5
    # abelian case: k(p,1) = 0 and the root is plain division
    Zk = free_abelian(3)
    y = blackburn_root(Zk, 3, 2, (9, -18, 0))
    assert y == (1, -2, 0)


def test_solver_identity_and_fixed_points():
    y = solve_power_twisted(H3, ID_H3, 2, 1, H3.identity)
    assert y == H3.identity
    # any x with phi(x) = x has displacement 1, solved by y = 1
    fix = fixed_subgroup(H3, CASE2)
    rng = random.Random(SEED + 6)
    for _ in range(10):
        x = random_member(H3, fix, rng, 3)
        y = solve_power_twisted(H3, CASE2, 3, 1, x)
        assert H3.mult(y, H3.inv(CASE2.apply(y))) == \
            H3.mult(x, H3.inv(CASE2.apply(x)))


def preconditioned_instance(pres, phi, p, k, rng):
    kc, ks = blackburn_constants(p, pres.nilpotency_class)
    _, D = TwistedChain(pres, phi).determinants()
    vD = 0
    while D % p == 0:
        D //= p
        vD += 1
    K = k + ks + vD
    fix = TwistedChain(pres, phi).fixed
    for extra in range(4):
        L = power_subgroup(pres, p ** (K + extra))
        for _ in range(25):
            y0 = random_member(pres, L, rng, 3)
            w = random_member(pres, fix, rng, 2)
            x = pres.mult(y0, w)
            disp = pres.mult(x, pres.inv(phi.apply(x)))
            if all(e % p ** K == 0 for e in disp):
                return x
    raise AssertionError("could not build a preconditioned instance")


def test_solver_preconditioned_instances():
    rng = random.Random(SEED + 7)
    grids = [(H3, phi) for phi in (ID_H3, CASE1, CASE2)] + [(D5, PHI5)]
    for pres, phi in grids:
        for p, k in ((2, 1), (3, 1), (2, 2)):
            for _ in range(12):
                x = preconditioned_instance(pres, phi, p, k, rng)
                y = solve_power_twisted(pres, phi, p, k, x)
                disp = pres.mult(x, pres.inv(phi.apply(x)))
                assert pres.mult(y, pres.inv(phi.apply(y))) == disp
                assert power_subgroup(pres, p ** k).contains(y)


def test_solver_reports_which_divisibility_failed():
    # displacement of (1, 0, 0) under the swap is shallow
    with pytest.raises(PreconditionError) as err:
        solve_power_twisted(H3, CASE2, 2, 2, (1, 0, 0))
    assert "divisibility" in (err.value.reason or "")


def test_chain_norm_upper_polynomial_trend():
    # over a family of automorphisms with growing norm, the constructive
    # word-length upper bound for the second twisted centralizer grows at
    # most polynomially; the fitted exponent is reported, not pinned
    from twistsep.growth import fit_exponent
    from twistsep.malcev import automorphism_norm
    from twistsep.twisted import twisted_chain
    S = H3.standard_gens()
    rows = []
    for t in (1, 3, 5, 7, 9, 11):
        phi = heisenberg_automorphism(H3, [[1, 0], [t, -1]])
        norm = automorphism_norm(H3, S, phi, cap=40)
        bound = max(r["norm_upper"] for r in twisted_chain(H3, phi).norm_report())
        rows.append((norm, max(bound, 1)))
    expo, _ = fit_exponent(rows)
    assert expo <= 3.0, rows


def test_decision_vs_brute_force_shear():
    # a sheared identity-like automorphism exercises the last-layer branch
    rng = random.Random(SEED + 11)
    shear = heisenberg_automorphism(H3, [[1, 0], [0, 1]], e=1, f=-1)
    S = H3.standard_gens()
    b2 = ball(H3, S, 2)
    pre = [(z, H3.inv(shear.apply(z))) for z in ball(H3, S, 8)]
    for _ in range(60):
        x = rng.choice(b2)
        y = rng.choice(b2)
        brute = any(H3.mult(H3.mult(z, x), zi) == y for z, zi in pre)
        res = is_twisted_conjugate(H3, shear, x, y)
        assert isinstance(res, TwistedWitness) == brute


def test_solver_p5():
    rng = random.Random(SEED + 12)
    for _ in range(10):
        x = preconditioned_instance(H3, CASE2, 5, 1, rng)
        y = solve_power_twisted(H3, CASE2, 5, 1, x)
        disp = H3.mult(x, H3.inv(CASE2.apply(x)))
        assert H3.mult(y, H3.inv(CASE2.apply(y))) == disp
        assert power_subgroup(H3, 5).contains(y)


def test_solver_high_determinant_twist():
    # twisted determinant 16: the level pullback spends four 2-adic digits
    phi = heisenberg_automorphism(H3, [[2, 1], [-1, 0]], e=0, f=17)
    ds, D = twisted_determinant(H3, phi)
    assert D == 16
    rng = random.Random(SEED + 13)
    for k in (1, 2):
        for _ in range(8):
            x = preconditioned_instance(H3, phi, 2, k, rng)
            y = solve_power_twisted(H3, phi, 2, k, x)
            disp = H3.mult(x, H3.inv(phi.apply(x)))
            assert H3.mult(y, H3.inv(phi.apply(y))) == disp
            assert power_subgroup(H3, 2 ** k).contains(y)


def test_deepen_into_congruence_helper():
    # the defensive realisation repair: push an element into the level-2
    # kernel by a central correction without changing its psi class
    from twistsep.subgroups import InducedSequence
    from twistsep.twisted import _deepen_into_congruence
    zseq = InducedSequence(H3, {2: (0, 0, 1)})
    fixed = _deepen_into_congruence(H3, (0, 0, 1), zseq, 2)
    assert fixed is not None
    assert power_subgroup(H3, 2).contains(fixed)
    # unfixable: odd weight-1 coordinates cannot be repaired centrally
    assert _deepen_into_congruence(H3, (1, 1, 0), zseq, 2) is None


def test_obstruction_is_reduced_modulo_the_image():
    # one verdict carries one vector, whichever preimages the decision took:
    # on ut4 with the flip at level 3 (image 2Z) the raw coordinates can be
    # any odd number, such as 9, 21 or -83, and reduce to 1
    U = ut4()
    flip = ut_flip(U)
    rng = random.Random(SEED + 23)
    flip_level3 = 0
    for pres, phi in ((U, flip), (U, ut_sign(U)), (U, identity_automorphism(U)),
                      (H3, ID_H3), (H3, CASE1), (D5, PHI5)):
        # shift in gamma_2, or in the deepest layer only
        for k in range(120):
            x, z = (tuple(rng.randint(-2, 2) for _ in range(pres.h)) for _ in range(2))
            lowest = 2 + k % 2 * (pres.nilpotency_class - 2)
            shift = [rng.randint(-3, 3) if w >= lowest else 0 for w in pres.weights]
            y = pres.mult(pres.mult(pres.mult(z, x), pres.inv(phi.apply(z))), tuple(shift))
            res = is_twisted_conjugate(pres, phi, x, y)
            if isinstance(res, NotTwistedConjugate):
                image = Lattice(len(res.obstruction), res.image_rows)
                assert any(res.obstruction)
                assert image.reduce(res.obstruction) == res.obstruction
                if phi is flip and res.level == 3 and res.image_rows == [[2]]:
                    assert res.obstruction == (1,)
                    flip_level3 += 1
    assert flip_level3 >= 5


def test_decision_vs_brute_force_dim5():
    rng = random.Random(SEED + 14)
    S = D5.standard_gens()
    b2 = ball(D5, S, 2)
    pre = [(z, D5.inv(PHI5.apply(z))) for z in ball(D5, S, 6)]
    for _ in range(50):
        x = rng.choice(b2)
        y = rng.choice(b2)
        brute = any(D5.mult(D5.mult(z, x), zi) == y for z, zi in pre)
        res = is_twisted_conjugate(D5, PHI5, x, y)
        decided = isinstance(res, TwistedWitness)
        if decided:
            assert res.verify(D5, PHI5)
        # the decision is exact; the ball search can only under-report
        if brute:
            assert decided
        elif decided:
            from twistsep.malcev import word_length_upper
            assert word_length_upper(D5, res.z) > 6
        else:
            assert not brute


def test_chain_memo_evicts_the_oldest():
    pres = heisenberg()  # a fresh presentation, so the memo starts empty
    twists = [compose_with_inner(pres, ID_H3, (k, 0, 0)) for k in range(600)]
    chains = [twisted_chain(pres, phi) for phi in twists]
    assert len(pres._chain_cache) == 512
    assert twisted_chain(pres, twists[-1]) is chains[-1]
    assert twisted_chain(pres, twists[0]) is not chains[0]


def test_preimage_elimination_runs_once_on_first_use(monkeypatch):
    # a level read only to close the next subgroup builds no solver
    forms = []
    column_form = lattice._column_form
    monkeypatch.setattr(lattice, "_column_form",
                        lambda M: forms.append(1) or column_form(M))
    chain = TwistedChain(U4, ut_flip(U4))
    chain.fixed
    assert all("preimage" not in lv.__dict__ for lv in chain.levels)
    lv, targets = chain.level(2), ([0, 0], [2, 2], [2, 2])
    expected = [lattice.solve(lattice.transpose(lv.psi_rows), t) for t in targets]
    del forms[:]
    assert [lv.preimage(t) for t in targets] == expected
    assert len(forms) == 1


@pytest.mark.parametrize("pres, phi", [
    (H3, CASE1), (U4, identity_automorphism(U4)), (U4, ut_flip(U4)), (U4, ut_sign(U4)),
    (D5, PHI5)], ids=["H3-A", "ut4-id", "ut4-flip", "ut4-sign", "dim5"])
def test_twist_levels_depend_on_the_twist_below_their_layer(pres, phi):
    # levels 1..w of Inn(g) o phi are those of Inn(g h) o phi for h in gamma_w
    rng = random.Random(SEED + 31)
    for w in range(1, pres.nilpotency_class + 1):
        for _ in range(6):
            g = tuple(rng.randint(-3, 3) for _ in range(pres.h))
            h = tuple(rng.randint(-3, 3) if wt >= w else 0 for wt in pres.weights)
            a, b = (TwistedChain(pres, compose_with_inner(pres, phi, t))
                    for t in (g, pres.mult(g, h)))
            for i in range(1, w + 1):
                la, lb = a.level(i), b.level(i)
                assert (la.seq.entries, la.psi_rows, la.image) == \
                    (lb.seq.entries, lb.psi_rows, lb.image)


FORM_CASES = [(H3, ID_H3), (H3, CASE1), (H3, CASE2),
              (H3, heisenberg_automorphism(H3, [[1, 1], [0, 1]])),
              (U4, identity_automorphism(U4)), (U4, ut_flip(U4)), (U4, ut_sign(U4)),
              (D5, identity_automorphism(D5)), (D5, PHI5)]


def test_canonical_forms_decide_twisted_conjugacy():
    # 5,040 seeded pairs, half built conjugate, the rest shifted by a random
    # element of gamma_2: equal forms exactly when the decision finds a
    # witness, u x phi(u)^-1 is the form, and a form is its own form
    rng = random.Random(SEED + 37)
    verdicts = {True: 0, False: 0}
    for pres, phi in FORM_CASES:
        for k in range(560):
            x, z = (tuple(rng.randint(-3, 3) for _ in range(pres.h)) for _ in range(2))
            y = pres.mult(pres.mult(z, x), pres.inv(phi.apply(z)))
            if k % 2:
                y = pres.mult(y, tuple(rng.randint(-2, 2) if w > 1 else 0
                                       for w in pres.weights))
            (ux, fx), (uy, fy) = canonical_form(pres, phi, x), canonical_form(pres, phi, y)
            conjugate = isinstance(is_twisted_conjugate(pres, phi, x, y), TwistedWitness)
            assert (fx == fy) == conjugate
            verdicts[conjugate] += 1
            for u, g, f in ((ux, x, fx), (uy, y, fy)):
                assert pres.mult(pres.mult(u, g), pres.inv(phi.apply(u))) == f
                assert canonical_form(pres, phi, f)[1] == f
            if conjugate:
                assert TwistedWitness(pres.mult(pres.inv(uy), ux), x, y).verify(pres, phi)
    assert sum(verdicts.values()) >= 5000 and min(verdicts.values()) >= 1000, verdicts
