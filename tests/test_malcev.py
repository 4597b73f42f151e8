import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from twistsep.errors import BudgetExceededError, ValidationError
from twistsep.extensions import ball_ext, heisenberg_semidirect_c2
from twistsep.groups import (dim5, dim5_automorphism, free_abelian, heisenberg,
                             heisenberg_automorphism, ut4)
from twistsep.malcev import (GroupHom, MalcevPresentation, automorphism_norm,
                             ball, ball_with_distances, breadth_first, commutator,
                             compose_with_inner, identity_automorphism,
                             inner_automorphism, inverse, multiply, power, root,
                             verify_hom, verify_presentation, word_length,
                             word_length_upper)
from twistsep.quotients import congruence_quotient
from twistsep.subgroups import power_subgroup, schreier_kernel

SEED = 20240214

H3 = heisenberg()
D5 = dim5()
U4 = ut4()


def unitriangular(n):
    """UT(n, Z) on the elementary matrices x_ij, ordered by superdiagonal:
    [x_ab, x_cd] = x_ad when b = c, x_cb^-1 when d = a, else trivial."""
    pos = sorted(((i, j) for i in range(n) for j in range(i + 1, n)),
                 key=lambda p: (p[1] - p[0], p[0]))
    index = {p: t for t, p in enumerate(pos)}
    comms = {}
    for q, (c, d) in enumerate(pos):
        for p in range(q + 1, len(pos)):
            a, b = pos[p]
            v = [0] * len(pos)
            if b == c:
                v[index[(a, d)]] = 1
            elif d == a:
                v[index[(c, b)]] = -1
            if any(v):
                comms[(p, q)] = tuple(v)
    return MalcevPresentation([f"x{i + 1}{j + 1}" for i, j in pos],
                              [j - i for i, j in pos], comms)


U5 = unitriangular(5)  # class 4, Hirsch length 10


def h3_law(g, h):
    # independent oracle for the H3 collected law, [y,x] = z^-1
    return (g[0] + h[0], g[1] + h[1], g[2] + h[2] - g[1] * h[0])


def d5_law(g, h):
    # independent oracle for the dim-5 law: [a2,a1] = b1, [a3,a2] = b2^-1
    return (g[0] + h[0], g[1] + h[1], g[2] + h[2],
            g[3] + h[3] + g[1] * h[0], g[4] + h[4] - g[2] * h[1])


def test_h3_basic_products():
    assert multiply(H3, (1, 0, 0), (0, 1, 0)) == (1, 1, 0)
    assert multiply(H3, (0, 1, 0), (1, 0, 0)) == (1, 1, -1)
    chain = multiply(H3, multiply(H3, (1, 0, 0), (0, 1, 0)),
                     multiply(H3, inverse(H3, (1, 0, 0)), inverse(H3, (0, 1, 0))))
    assert chain == (0, 0, 1)
    assert commutator(H3, (1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    g = (3, -2, 5)
    assert multiply(H3, g, H3.identity) == g


def test_h3_inverse_solves_equation():
    # derived with the library's own law: solve (1,1,0) * v = identity
    v = inverse(H3, (1, 1, 0))
    assert v == (-1, -1, -1)
    assert multiply(H3, (1, 1, 0), v) == H3.identity
    assert inverse(H3, H3.identity) == H3.identity
    assert inverse(H3, (1, 0, 0)) == (-1, 0, 0)


def test_h3_power_and_root():
    assert power(H3, (1, 1, 0), 2) == (2, 2, -1)
    assert root(H3, (2, 2, -1), 2) == (1, 1, 0)
    assert root(H3, (0, 0, 1), 2) is None
    assert power(H3, (0, 0, 1), 9) == (0, 0, 9)
    assert power(H3, (2, -1, 3), 0) == H3.identity


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[st.integers(-30, 30)] * 3), st.tuples(*[st.integers(-30, 30)] * 3))
def test_h3_matches_oracle(g, h):
    assert multiply(H3, g, h) == h3_law(g, h)


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[st.integers(-12, 12)] * 5), st.tuples(*[st.integers(-12, 12)] * 5))
def test_d5_matches_oracle(g, h):
    assert multiply(D5, g, h) == d5_law(g, h)


def test_group_laws_random():
    rng = random.Random(SEED)
    for pres, width in ((H3, 3), (D5, 5), (free_abelian(4), 4), (U4, 6), (U5, 10)):
        for _ in range(1000):
            g, h, k = (tuple(rng.randint(-25, 25) for _ in range(width))
                       for _ in range(3))
            assert multiply(pres, multiply(pres, g, h), k) == \
                multiply(pres, g, multiply(pres, h, k))
            assert multiply(pres, g, inverse(pres, g)) == pres.identity
            assert power(pres, g, -3) == inverse(pres, power(pres, g, 3))


def test_generic_collection_agrees_with_fast_path():
    rng = random.Random(SEED + 1)
    # generic collection slows steeply with class and exponent size, so
    # the deeper groups are compared at smaller exponents
    for pres, width, bound, n, samples in ((H3, 3, 8, 7, 150), (D5, 5, 8, 7, 150),
                                           (free_abelian(4), 4, 8, 7, 150),
                                           (U4, 6, 3, 3, 100), (U5, 10, 2, 3, 30)):
        for _ in range(samples):
            g = tuple(rng.randint(-bound, bound) for _ in range(width))
            h = tuple(rng.randint(-bound, bound) for _ in range(width))
            assert pres._mul_generic(g, h) == pres.mult(g, h)
            assert pres._inv_generic(g) == pres.inv(g)
            assert pres._pow_generic(g, n) == pres.pow(g, n)
            assert pres._pow_generic(g, -n) == pres.pow(g, -n)


def test_unitriangular_builder_matches_ut4():
    assert unitriangular(4).commutators == U4.commutators
    assert verify_presentation(U5) == []
    assert U5.nilpotency_class == 4


@pytest.mark.parametrize("pres", [H3, D5, free_abelian(4), U4],
                         ids=["heisenberg", "dim5", "free_abelian4", "ut4"])
@settings(max_examples=100, deadline=None)
@given(st.tuples(*[st.integers(-50, 50)] * 6), st.tuples(*[st.integers(-50, 50)] * 6),
       st.tuples(*[st.integers(-50, 50)] * 6), st.integers(-40, 40), st.integers(-40, 40))
def test_builtin_group_laws(pres, g, h, k, m, n):
    # every built-in group has Hirsch length <= 6
    g, h, k = g[:pres.h], h[:pres.h], k[:pres.h]
    assert pres.mult(pres.mult(g, h), k) == pres.mult(g, pres.mult(h, k))
    assert pres.mult(g, pres.inv(g)) == pres.identity == pres.mult(pres.inv(g), g)
    assert pres.pow(g, m + n) == pres.mult(pres.pow(g, m), pres.pow(g, n))
    assert pres.pow(g, m * n) == pres.pow(pres.pow(g, m), n)
    assert pres.pow(g, -n) == pres.inv(pres.pow(g, n))


def test_dim5_commutators():
    a2, a3 = D5.gen(1), D5.gen(2)
    assert commutator(D5, a2, a3) == D5.gen(4)          # [a2,a3] = b2
    assert commutator(D5, D5.gen(1), D5.gen(0)) == D5.gen(3)  # [a2,a1] = b1
    assert commutator(D5, a2, a2) == D5.identity


def test_lower_central_series():
    # the weight layers of the basis are the lower central series factors
    assert H3.layer_indices(1) == [0, 1] and H3.layer_rank(1) == 2
    assert H3.layer_indices(2) == [2] and H3.layer_rank(2) == 1
    assert commutator(H3, H3.gen(0), H3.gen(1)) in ((0, 0, 1), (0, 0, -1))
    assert D5.layer_rank(1) == 3 and D5.layer_rank(2) == 2
    Z4 = free_abelian(4)
    assert Z4.nilpotency_class == 1 and Z4.layer_rank(1) == 4


def test_verify_presentation():
    assert verify_presentation(H3) == []
    assert verify_presentation(D5) == []
    assert verify_presentation(free_abelian(3)) == []
    with pytest.raises(ValidationError):
        # support of [y,x] not deeper than both generators
        MalcevPresentation(["x", "y"], [1, 1], {(1, 0): (1, 0)})
    for basis, weights in (([], []), (["x", "y", "z"], [1, 1, 2])):
        with pytest.raises(ValidationError, match="declared class"):
            MalcevPresentation(basis, weights, {}, nilpotency_class=3)
    bad = MalcevPresentation(["x", "y", "z", "w"], [1, 1, 2, 2],
                             {(1, 0): (0, 0, 2, 0)})
    assert any("index" in p or "rank" in p for p in verify_presentation(bad))


def test_commutator_support_below_weight_sum_is_rejected():
    # [z, y] of two weight-2 generators must lie in weight >= 4; weight 3
    # is deeper than both, but would break the degree bound of the law
    with pytest.raises(ValidationError, match=r"\[z,y\]"):
        MalcevPresentation(["x", "y", "z", "t"], [1, 2, 2, 3], {(2, 1): (0, 0, 0, 1)})


def test_law_interpolation_has_a_budget():
    # H3 with z given weight 60: a valid filtration, but the degree-60
    # interpolation grid is far beyond the cap
    with pytest.raises(BudgetExceededError, match="interpolation points"):
        MalcevPresentation(["x", "y", "z"], [1, 1, 60], {(1, 0): (0, 0, -1)})


def test_inconsistent_presentations_are_rejected():
    # weights (1,1,1,2,2,3), [b,a] = d, [c,b] = e and weight-3 tails
    # [c,a] = f^2, [d,b] = f, [e,a] = f^2, [e,b] = f^-2: collection on it is
    # not associative and not polynomial, so the compiled law disagrees
    # with it on the constructor's check sample
    with pytest.raises(ValidationError, match="inconsistent"):
        MalcevPresentation(list("abcdef"), [1, 1, 1, 2, 2, 3], {
            (1, 0): (0, 0, 0, 1, 0, 0), (2, 1): (0, 0, 0, 0, 1, 0),
            (2, 0): (0, 0, 0, 0, 0, 2), (3, 1): (0, 0, 0, 0, 0, 1),
            (4, 0): (0, 0, 0, 0, 0, 2), (4, 1): (0, 0, 0, 0, 0, -2)})
    # here collection is polynomial but not associative; the overlap check
    # names the triple
    pres = MalcevPresentation(list("abcde"), [1, 1, 2, 3, 4], {
        (1, 0): (0, 0, 0, -1, 0), (2, 0): (0, 0, 0, -1, 1), (3, 1): (0, 0, 0, 0, -1)})
    a, b, c = pres.gen(0), pres.gen(1), pres.gen(2)
    assert pres._mul_generic(pres._mul_generic(c, b), a) != \
        pres._mul_generic(c, pres._mul_generic(b, a))
    assert "overlap (c,b,a) is not associative" in verify_presentation(pres)


def _random_presentations(weights, count, rng):
    """Presentations on the given weights whose commutators are drawn at
    random (each pair with probability 0.6, entries in [-2, 2] on the
    admissible support), keeping those the constructor accepts."""
    h, out = len(weights), []
    while len(out) < count:
        comms = {}
        for j in range(h):
            for i in range(j):
                if rng.random() < 0.6:
                    comms[(j, i)] = [rng.randint(-2, 2) if weights[t] >= weights[i] + weights[j]
                                     else 0 for t in range(h)]
        try:
            out.append(MalcevPresentation([f"a{t}" for t in range(h)], weights, comms))
        except ValidationError:
            pass
    return out


def _overlaps_on_all_triples(p):
    return [f"overlap ({p.basis[k]},{p.basis[j]},{p.basis[i]}) is not associative"
            for k in range(p.h) for j in range(k) for i in range(j)
            if any(p.mult(p.mult(p.gen(k), y), z) != p.mult(p.gen(k), p.mult(y, z))
                   for y in (p.gen(j), p.inv(p.gen(j)))
                   for z in (p.gen(i), p.inv(p.gen(i))))]


def test_overlap_check_on_related_triples_equals_all_triples():
    # verify_presentation checks only the triples with a relation among
    # their pairs; on random presentations, consistent or not, it reports
    # the same overlaps as the loop over every triple
    rng = random.Random(SEED)
    failing = 0
    for weights in ((1, 1, 2), (1, 1, 1, 2, 2), (1, 1, 2, 3), (1, 1, 1, 2, 3)):
        for p in _random_presentations(weights, 25, rng):
            expected = _overlaps_on_all_triples(p)
            assert [x for x in verify_presentation(p) if x.startswith("overlap")] == expected
            failing += bool(expected)
    assert failing >= 10


def test_free_abelian_needs_no_tables_or_products(monkeypatch):
    # no pair has a relation, so no conjugation table entry is stored and
    # no overlap triple needs a product
    Z = free_abelian(200)
    assert Z._cplus == {} and Z._cminus == {}
    calls = []
    mult = MalcevPresentation.mult
    monkeypatch.setattr(MalcevPresentation, "mult",
                        lambda self, g, h: calls.append(1) or mult(self, g, h))
    assert verify_presentation(Z) == []
    assert calls == []


def test_verify_hom_and_automorphisms():
    phi = dim5_automorphism(D5)
    assert verify_hom(phi, check_automorphism=True) == []
    doubling = GroupHom(H3, H3, [(1, 0, 0), (0, 1, 0), (0, 0, 2)])
    problems = verify_hom(doubling, check_automorphism=True)
    assert any("determinant" in p for p in problems)
    # a genuine endomorphism (x -> x^2 squares the commutator too) that is
    # not surjective: relations pass, unimodularity fails
    square_x = GroupHom(H3, H3, [(2, 0, 0), (0, 1, 0), (0, 0, 2)])
    assert verify_hom(square_x) == []
    assert any("determinant" in p
               for p in verify_hom(square_x, check_automorphism=True))
    for mat in ([[0, 1], [1, 0]], [[2, 1], [1, 1]], [[1, 1], [0, 1]], [[-1, 0], [0, -1]]):
        assert verify_hom(heisenberg_automorphism(H3, mat, 1, -1),
                          check_automorphism=True) == []


def test_hom_layer_matrices():
    phi = heisenberg_automorphism(H3, [[2, 1], [1, 1]], e=3, f=-1)
    assert phi.layer_matrix(1) == [[2, 1], [1, 1]]
    assert phi.layer_matrix(2) == [[1]]
    swap = heisenberg_automorphism(H3, [[0, 1], [1, 0]])
    assert swap.layer_matrix(2) == [[-1]]


@pytest.mark.parametrize("pres, outer", [
    (H3, heisenberg_automorphism(H3, [[2, 1], [1, 1]], e=3, f=-1)),
    (D5, dim5_automorphism(D5)),
    (U4, None),
], ids=["H3", "dim5", "ut4"])
def test_compose_with_inner_is_inner_after_phi(pres, outer):
    rng = random.Random(SEED)

    def el():
        return tuple(rng.randint(-3, 3) for _ in range(pres.h))

    phis = [identity_automorphism(pres), inner_automorphism(pres, el())]
    phis += [outer] if outer is not None else []
    for phi in phis:
        for _ in range(10):
            x = el()
            assert compose_with_inner(pres, phi, x) == inner_automorphism(pres, x).compose(phi)


def test_balls():
    S = H3.standard_gens()
    b1 = ball(H3, S, 1)
    assert b1 == sorted({H3.identity, (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)})
    b4 = set(ball(H3, S, 4))
    assert (0, 0, 1) in b4 and (0, 0, -1) in b4
    sizes = [len(ball(H3, S, n)) for n in range(6)]
    assert sizes == sorted(sizes)
    Z = free_abelian(1)
    for n in range(6):
        assert len(ball(Z, [(1,)], n)) == 2 * n + 1
    with pytest.raises(BudgetExceededError):
        ball(H3, S, 8, cap=10)


def test_word_length():
    S = H3.standard_gens()
    assert word_length(H3, S, H3.identity) == 0
    assert word_length(H3, S, (0, 0, 1)) == 4
    assert word_length(H3, S, (3, 0, -1)) == 5
    with pytest.raises(BudgetExceededError):
        word_length(H3, S, (0, 0, 40), cap=6)
    # subadditivity on sampled pairs
    rng = random.Random(SEED + 2)
    dist = ball_with_distances(H3, S, 6)
    elems = sorted(dist)
    for _ in range(60):
        g, h = rng.choice(elems), rng.choice(elems)
        gh = multiply(H3, g, h)
        if gh in dist:
            assert dist[gh] <= dist[g] + dist[h]


@pytest.mark.parametrize("run, message, budget, limit", [
    (lambda: ball(H3, H3.standard_gens(), 8, cap=10),
     "ball enumeration exceeded its cap of 10 elements", "ball enumeration", 10),
    (lambda: word_length(H3, H3.standard_gens(), (0, 0, 40), cap=6),
     "word length of (0, 0, 40) exceeds the radius cap of 6", "word length radius", 6),
    (lambda: word_length(H3, H3.standard_gens(), (0, 0, 40), count_cap=50),
     "word length search exceeded its cap of 50 elements", "word length search", 50),
    (lambda: ball_ext(heisenberg_semidirect_c2(), 6, cap=20),
     "extension ball exceeded its cap of 20 elements", "extension ball", 20),
    (lambda: schreier_kernel(H3, [power_subgroup(H3, 3).coset_rep], budget=5),
     "Schreier transversal exceeded its cap of 5 elements", "Schreier transversal", 5),
    (lambda: MalcevPresentation(["x", "y", "z"], [1, 1, 60], {(1, 0): (0, 0, -1)}),
     "the group law of weight 60 needs more than the cap of 20000 interpolation points",
     "group law interpolation points", 20_000),
    (lambda: congruence_quotient(H3, 100, order_budget=1000),
     "quotient order 1000000 exceeds the budget 1000", "order budget", 1000),
], ids=["ball", "word_length_radius", "word_length_elements", "ball_ext",
        "schreier_kernel", "law_interpolation", "quotient_order"])
def test_budget_errors_name_their_budget(run, message, budget, limit):
    with pytest.raises(BudgetExceededError, match=f"^{re.escape(message)}$") as err:
        run()
    assert (err.value.budget, err.value.limit) == (budget, limit)


def test_central_square_length_inequality():
    # testable form of the distortion trend: wl(z^(m^2)) <= 4m
    S = H3.standard_gens()
    for m in (1, 2, 3):
        assert word_length(H3, S, (0, 0, m * m), cap=4 * m + 1) <= 4 * m


def test_word_length_upper_is_upper_bound():
    S = H3.standard_gens()
    rng = random.Random(SEED + 3)
    dist = ball_with_distances(H3, S, 5)
    for g, exact in dist.items():
        assert exact <= word_length_upper(H3, g)
    # sqrt scaling on the center
    assert word_length_upper(H3, (0, 0, 10 ** 6)) <= 9 * 10 ** 3
    for _ in range(40):
        g = tuple(rng.randint(-5, 5) for _ in range(5))
        assert word_length_upper(D5, g) >= 0


def test_word_length_upper_class_three_fallback_bounds_word_length():
    # ut4 is class 3, so every element above layer 1 takes the linear
    # per-coordinate fallback
    dist = ball_with_distances(U4, U4.standard_gens(), 5)
    assert len(dist) == 2003
    assert any(g[3:] != (0, 0, 0) for g in dist)
    for g, exact in dist.items():
        assert exact <= word_length_upper(U4, g)


def test_breadth_first_yields_each_key_once_in_order():
    # Z modulo 7 from 0 by +-1, each move listed twice: every residue once,
    # at its distance, in breadth-first order
    steps = []

    def step(e, m):
        steps.append((e, m))
        return e + m

    walk = list(breadth_first(0, [1, -1, 1, -1], step, key=lambda t: t % 7))
    assert walk == [(0, 0), (1, 1), (-1, 1), (2, 2), (-2, 2), (3, 3), (-3, 3)]
    # a repeated move is taken once: two moves from each of the 7 elements
    assert len(steps) == 14 and len(set(steps)) == 14
    # the cap check follows the yield: the element passing the cap is
    # yielded, and the error comes only when the walk is resumed
    walk = breadth_first(0, [1], step, cap=3, name="test walk")
    assert list(itertools.islice(walk, 4)) == [(0, 0), (1, 1), (2, 2), (3, 3)]
    with pytest.raises(BudgetExceededError, match="^test walk exceeded its cap of 3 elements$"):
        next(walk)


def test_norms():
    S = H3.standard_gens()
    assert automorphism_norm(H3, S, identity_automorphism(H3)) == 1
    shear = GroupHom(H3, H3, [(1, 0, 0), (1, 1, 0), (0, 0, 1)])
    assert automorphism_norm(H3, S, shear) == 2
    # submultiplicativity spot check
    phi = heisenberg_automorphism(H3, [[2, 1], [1, 1]])
    psi = heisenberg_automorphism(H3, [[1, 1], [0, 1]])
    comp = phi.compose(psi)
    assert automorphism_norm(H3, S, comp) <= \
        automorphism_norm(H3, S, phi) * automorphism_norm(H3, S, psi)


def test_root_round_trip():
    rng = random.Random(SEED + 4)
    for pres, width in ((H3, 3), (D5, 5)):
        for _ in range(100):
            g = tuple(rng.randint(-9, 9) for _ in range(width))
            m = rng.randint(1, 8)
            assert root(pres, power(pres, g, m), m) == g
    # in Z^3 a root is plain division
    assert root(free_abelian(3), (9, -18, 0), 9) == (1, -2, 0)
    # brute check that z has no square root in a small box
    for a in range(-2, 3):
        for b in range(-2, 3):
            for c in range(-2, 3):
                assert power(H3, (a, b, c), 2) != (0, 0, 1)


def test_inner_automorphism():
    rng = random.Random(SEED + 5)
    for _ in range(30):
        x = tuple(rng.randint(-6, 6) for _ in range(3))
        inn = inner_automorphism(H3, x)
        g = tuple(rng.randint(-6, 6) for _ in range(3))
        assert inn.apply(g) == H3.conjugate(g, x)
