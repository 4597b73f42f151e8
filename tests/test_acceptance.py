"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured quantities (run with -s or -v to see them).

Representatives used throughout, fixed for reproducibility:
  case 1: A = [[2, 1], [1, 1]]   (no eigenvalue 1, det +1)
  case 2: A = [[0, 1], [1, 0]]   (eigenvalues +-1, det -1)
  case 3: A = I                  (identity; a sheared variant where noted)
All randomness is seeded with 20240214.
"""

import random

from twistsep.extensions import (ball_ext, ext_identity_automorphism,
                                 farb_depth_union, heisenberg_semidirect_c2,
                                 is_conjugate_virtual, z_semidirect_c2)
from twistsep.groups import (dim5, dim5_automorphism, heisenberg,
                             heisenberg_automorphism)
from twistsep.growth import (fit_exponent, heisenberg_case,
                             heisenberg_central_pair_rows)
from twistsep.lattice import (Lattice, det, hnf, isolator_index, kernel_basis,
                              kernel_with_construction, mat_mul, mat_vec,
                              p_power_preimage, saturation, snf)
from twistsep.malcev import (ball, identity_automorphism, root, word_length)
from twistsep.quotients import (congruence_depth, congruence_quotient, separates,
                                verify_pullback_reduction)
from twistsep.subgroups import power_subgroup
from twistsep.twisted import (TwistedChain, TwistedWitness, blackburn_constants,
                              is_twisted_conjugate, psi, solve_power_twisted)
from test_depth_scan import all_stable_kernels

SEED = 20240214

H3 = heisenberg()
D5 = dim5()
ID_H3 = identity_automorphism(H3)
CASE1 = heisenberg_automorphism(H3, [[2, 1], [1, 1]])
CASE2 = heisenberg_automorphism(H3, [[0, 1], [1, 0]])
CASE3 = heisenberg_automorphism(H3, [[1, 0], [0, 1]], e=1)
PHI5 = dim5_automorphism(D5)


def _random_member(pres, seq, rng, size=4):
    g = pres.identity
    for gen in seq.generators():
        g = pres.mult(g, pres.pow(gen, rng.randint(-size, size)))
    return g


def test_acceptance_1_psi_laws():
    """psi additivity on 500+ random pairs per level, and the kernel law on
    ball-radius-4 elements, on H3 and the dim-5 group. Zero tolerance."""
    rng = random.Random(SEED)
    pair_checks = 0
    kernel_checks = 0
    for pres, phi in ((H3, CASE1), (H3, CASE2), (D5, PHI5)):
        chain = TwistedChain(pres, phi)
        for level in range(1, pres.nilpotency_class + 1):
            lv = chain.level(level)
            for _ in range(260):
                a = _random_member(pres, lv.seq, rng)
                b = _random_member(pres, lv.seq, rng)
                pa = psi(pres, phi, level, a)
                pb = psi(pres, phi, level, b)
                assert psi(pres, phi, level, pres.mult(a, b)) == \
                    tuple(u + v for u, v in zip(pa, pb))
                pair_checks += 1
        b4 = ball(pres, pres.standard_gens(), 4)
        for level in range(1, pres.nilpotency_class + 1):
            lv = chain.level(level)
            nxt = chain.subgroup(level + 1)
            for g in b4:
                if not lv.seq.contains(g):
                    continue
                value = psi(pres, phi, level, g)
                assert (not any(value)) == nxt.contains(g)
                kernel_checks += 1
    print(f"\nACCEPTANCE 1 PASS: psi additive on {pair_checks} pairs, "
          f"kernel law on {kernel_checks} ball elements")


def test_acceptance_2_decision_vs_brute_force():
    """Twisted conjugacy decision against exhaustive witness search for
    every pair with ||x||, ||y|| <= 3, witness ball radius 6. Zero
    tolerance on agreement, with one documented caveat: under the case-1
    twist the abelianized witness is forced to (I - A)^-1 of the image
    difference, whose length can reach 10 for these pairs, so radius 6 is
    provably incomplete there. Any radius-6 discrepancy must be exactly of
    that shape (decision conjugate, witness verified, witness longer than
    6), and full two-sided agreement is then re-established at radius 10.
    """
    S = H3.standard_gens()
    b3 = ball(H3, S, 3)
    b6 = ball(H3, S, 6)
    pairs_checked = 0
    for name, phi, radius in (("id", ID_H3, 6), ("case1", CASE1, 10),
                              ("case2", CASE2, 6)):
        pre6 = [(z, H3.inv(phi.apply(z))) for z in b6]
        full = [(z, H3.inv(phi.apply(z))) for z in ball(H3, S, radius)] \
            if radius > 6 else pre6
        for x in b3:
            slice6 = {H3.mult(H3.mult(z, x), zi) for z, zi in pre6}
            slice_full = slice6 if radius == 6 else \
                {H3.mult(H3.mult(z, x), zi) for z, zi in full}
            for y in b3:
                res = is_twisted_conjugate(H3, phi, x, y)
                decided = isinstance(res, TwistedWitness)
                if decided:
                    assert res.verify(H3, phi)
                assert decided == (y in slice_full), (name, x, y)
                if decided != (y in slice6):
                    # only the documented direction, certified by length
                    assert decided
                    assert word_length(H3, S, res.z, cap=16) > 6
                pairs_checked += 1
    print(f"\nACCEPTANCE 2 PASS: decision matched exhaustive search on "
          f"{pairs_checked} pairs ({len(b3)} ball elements, 3 automorphisms; "
          f"case-1 witnesses exceed radius 6 and were confirmed at 10)")


def test_acceptance_3_blackburn_roots():
    """Every element of the level-p^(k+k(p,2)) kernel inside the box
    |e_i| <= p^(k+2) has an exact p^k-th root, p in {2,3,5}, k in {1,2}."""
    assert blackburn_constants(2, 2)[0] == 1
    assert blackburn_constants(3, 2)[0] == 0
    assert blackburn_constants(5, 2)[0] == 0
    total = 0
    for p in (2, 3, 5):
        kc, _ = blackburn_constants(p, 2)
        for k in (1, 2):
            level = p ** (k + kc)
            box = p ** (k + 2)
            coords = range(-box, box + 1, level)
            for e1 in coords:
                for e2 in coords:
                    for e3 in coords:
                        x = (e1, e2, e3)
                        y = root(H3, x, p ** k)
                        assert y is not None, (p, k, x)
                        assert H3.pow(y, p ** k) == x
                        total += 1
    print(f"\nACCEPTANCE 3 PASS: {total} exact p^k-th roots found "
          f"(k(2,2)=1, k(3,2)=k(5,2)=0)")


def _preconditioned_instance(pres, phi, p, k, rng):
    _, ks = blackburn_constants(p, pres.nilpotency_class)
    _, D = TwistedChain(pres, phi).determinants()
    vD = 0
    while D % p == 0:
        D //= p
        vD += 1
    K = k + ks + vD
    fix = TwistedChain(pres, phi).fixed
    for extra in range(4):
        L = power_subgroup(pres, p ** (K + extra))
        for _ in range(30):
            y0 = _random_member(pres, L, rng, 3)
            w = _random_member(pres, fix, rng, 2)
            x = pres.mult(y0, w)
            disp = pres.mult(x, pres.inv(phi.apply(x)))
            if all(e % p ** K == 0 for e in disp):
                return x
    raise AssertionError("instance generation failed")


def test_acceptance_4_power_twisted_solver():
    """100 preconditioned instances per (phi, p, k) on H3 and the dim-5
    group: output y has the same displacement and lies in the level-p^k
    kernel, both checked exactly. Zero tolerance."""
    rng = random.Random(SEED + 4)
    grids = [(H3, "id", ID_H3), (H3, "case1", CASE1), (H3, "case2", CASE2),
             (D5, "dim5", PHI5)]
    combos = 0
    for pres, name, phi in grids:
        for p, k in ((2, 1), (2, 2), (3, 1), (3, 2)):
            target = power_subgroup(pres, p ** k)
            for _ in range(100):
                x = _preconditioned_instance(pres, phi, p, k, rng)
                y = solve_power_twisted(pres, phi, p, k, x)
                disp = pres.mult(x, pres.inv(phi.apply(x)))
                assert pres.mult(y, pres.inv(phi.apply(y))) == disp
                assert target.contains(y)
            combos += 1
    print(f"\nACCEPTANCE 4 PASS: 100 instances solved exactly for each of "
          f"{combos} (phi, p, k) combinations")


def test_acceptance_5_pullback_reduction():
    """Set equality rho(N_{x,m}) = pi_{p^k}(N_{phi_x}) verified
    exhaustively on H3 for p in {2,3}, k = 1, one automorphism per case."""
    xs = [H3.identity, (1, 0, 0), (0, 1, -1), (2, -1, 1)]
    checks = 0
    for name, phi in (("case1", CASE1), ("case2", CASE2), ("case3", CASE3)):
        for p in (2, 3):
            for x in xs:
                assert verify_pullback_reduction(H3, phi, x, p, 1), (name, p, x)
                checks += 1
    print(f"\nACCEPTANCE 5 PASS: pullback set equality held in all "
          f"{checks} exhaustive checks")


def test_acceptance_6_heisenberg_depth():
    """Congruence depth of (x^p, x^p z) under the identity is exactly p^3
    for p in {2, 3, 5}: separation at order p^3, exhaustive non-separation
    below, and the coprime-modulus conjugacy of the projected pair."""
    for p in (2, 3, 5):
        xp = H3.pow(H3.gen(0), p)
        y = H3.mult(xp, H3.gen(2))
        res = congruence_depth(H3, ID_H3, xp, y, order_budget=150)
        assert res.separated and res.order == p ** 3, (p, res)
        # exhaustive non-separation below p^3, re-walked independently over
        # every stable kernel, composite orders included
        smaller = 0
        for order, vec, kernel in all_stable_kernels(H3, p ** 3 - 1):
            from twistsep.quotients import FiniteQuotient
            q = FiniteQuotient(H3, kernel)
            assert not separates(q, ID_H3, xp, y), (p, vec)
            smaller += 1
        assert smaller > 0
        # the projected pair is conjugate in every coprime prime-power level
        for qprime in (2, 3, 5):
            if qprime == p:
                continue
            j = 1
            while qprime ** (3 * j) <= 3000:
                quot = congruence_quotient(H3, qprime ** j)
                for m in range(1, 11):
                    ym = H3.mult(xp, H3.pow(H3.gen(2), m))
                    assert not separates(quot, ID_H3, xp, ym), (p, qprime, j, m)
                j += 1
    print("\nACCEPTANCE 6 PASS: depths exactly 8, 27, 125 with exhaustive "
          "scans below and coprime non-separation verified")


def test_acceptance_7_heisenberg_classifier_and_growth():
    """The three cases are detected from the eigenvalue-1 eigenspace; the
    case-2 uniform witness z^2 holds for 50 sampled twists; the case-3
    central-pair growth fit lands in [2.5, 3.5] at radii <= 6."""
    assert heisenberg_case(H3, heisenberg_automorphism(H3, [[1, 0], [0, 1]]))["case"] == 3
    assert heisenberg_case(H3, CASE2)["case"] == 2
    assert heisenberg_case(H3, CASE1)["case"] == 1
    rep = heisenberg_case(H3, CASE2, samples=50, seed=SEED)
    assert rep["uniform_witness_z2"]
    rows = heisenberg_central_pair_rows([1, 2, 3, 4, 5, 6])
    expo, r2 = fit_exponent(rows)
    assert 2.5 <= expo <= 3.5, (rows, expo)
    print(f"\nACCEPTANCE 7 PASS: classifier exact on all cases, uniform "
          f"witness over 50 twists, growth fit {expo:.2f} in [2.5, 3.5]")


def test_acceptance_8_dim5_scenario():
    """The dim-5 worked example: the second twisted centralizer, exact psi
    values, the sqrt-like psi-image norm trend up to ||x|| <= 40, and
    one dimensional central quotients of Hirsch length <= 3."""
    from twistsep.growth import dim5_scenario
    res = dim5_scenario(samples=50, max_norm=40, seed=SEED, growth_radii=())
    assert res["n2_matches"]
    assert res["psi_b1"] == (0, 0)
    assert res["psi_b2"] == (-1, 0)
    assert res["sqrt_fit_exponent"] <= 0.6, res["sqrt_fit_exponent"]
    assert res["central_quotient_hirsch"][0] <= 3
    assert res["central_quotient_hirsch"][1] <= 3
    print(f"\nACCEPTANCE 8 PASS: N_2 stable over 50 twists, psi(b1)=1, "
          f"psi(b2)=b1^-1, norm fit {res['sqrt_fit_exponent']:.2f} <= 0.6, "
          f"central quotient Hirsch lengths {res['central_quotient_hirsch']}")


def test_acceptance_9_virtual_decomposition():
    """Union formula against exhaustive class enumeration on radius-4
    balls of both built-in extensions, and verified union separation with
    the combined order below the product bound."""
    checks = 0
    for build in (z_semidirect_c2, heisenberg_semidirect_c2):
        ext = build()
        phi = ext_identity_automorphism(ext)
        x = ext.element(ext.kernel.identity, 1)
        pre = [(z, ext.inv(phi.apply(z))) for z in ball_ext(ext, 6)]
        for g in ball_ext(ext, 4):
            brute = any(ext.mult(ext.mult(z, x), zi) == g for z, zi in pre)
            dec, witness = is_conjugate_virtual(ext, phi, x, g)
            assert dec == brute, (ext, g)
            checks += 1

    E = z_semidirect_c2()
    phi = ext_identity_automorphism(E)
    res = farb_depth_union(E, phi, E.element((1,), 0), E.element((3,), 0))
    assert res["order"] <= res["product_bound"]
    EH = heisenberg_semidirect_c2()
    phiH = ext_identity_automorphism(EH)
    resH = farb_depth_union(EH, phiH, EH.element((0, 0, 1), 0),
                            EH.element((0, 0, 2), 0))
    assert resH["order"] <= resH["product_bound"]
    print(f"\nACCEPTANCE 9 PASS: union formula exact on {checks} ball "
          f"elements; separations verified with orders "
          f"{res['order']} <= {res['product_bound']} and "
          f"{resH['order']} <= {resH['product_bound']}")


def test_acceptance_10_lattice_layer():
    """Normal form round-trips, saturation idempotence, the p-power
    preimage divisibility, and the worked kernel generator. Exact."""
    rng = random.Random(SEED + 10)
    for _ in range(120):
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        H, U = hnf(M)
        assert mat_mul(U, M) == H and det(U) in (1, -1)
        S, Us, Vs = snf(M)
        assert mat_mul(mat_mul(Us, M), Vs) == S
        L = Lattice.from_rows(n, [M[i] for i in range(m)])
        assert saturation(saturation(L)) == saturation(L)
        assert isolator_index(saturation(L)) == 1

    f = [[1, 0], [0, 2]]
    for k in (1, 2, 3):
        a = p_power_preimage(f, (2 ** (k + 1), 2 ** (k + 1)), 2, k)
        assert mat_vec(f, a) == [2 ** (k + 1), 2 ** (k + 1)]
        assert all(v % 2 ** k == 0 for v in a)

    K = kernel_basis([[2, 0, 1], [0, 3, 1]])
    assert K.rows in ([[3, 2, -6]], [[-3, -2, 6]])
    gens, bound = kernel_with_construction([[2, 0, 1], [0, 3, 1]])
    assert gens == [[3, 2, -6]] and bound == 6
    print("\nACCEPTANCE 10 PASS: round-trips, saturation, preimage "
          "divisibility, and the kernel generator (3, 2, -6) all exact")
