"""Differential tests of the shared orbit-label depth scan against the
sifting reference: plain separates over congruence_kernels, pair by pair."""

import random

import pytest

from twistsep import quotients
from twistsep.errors import PreconditionError, ValidationError
from twistsep.groups import dim5, dim5_automorphism, heisenberg, heisenberg_automorphism, ut4
from twistsep.malcev import identity_automorphism
from twistsep.quotients import (FiniteQuotient, congruence_depth, congruence_kernels,
                                depth_scan, separates)
from twistsep.twisted import TwistedWitness, is_twisted_conjugate

SEED = 20240214
H3 = heisenberg()
D5 = dim5()
U4 = ut4()


def reference_depth(pres, phi, x, y, order_budget, modulus_budget=None):
    for order, vec, kernel in congruence_kernels(pres, order_budget):
        if modulus_budget is not None and max(vec) > modulus_budget:
            continue
        if separates(FiniteQuotient(pres, kernel), phi, x, y):
            return order, vec
    return None


def is_conjugate(pres, phi, x, y):
    return isinstance(is_twisted_conjugate(pres, phi, x, y), TwistedWitness)


def twisted_image(pres, phi, z, x):
    """z x phi(z)^-1, an element of x's twisted class."""
    return pres.mult(pres.mult(z, x), pres.inv(phi.apply(z)))


def scan_answers(pres, phi, pairs, order_budget, modulus_budget=None):
    """(order, moduli) per pair, or None for a pair the scan never
    separates: a conjugate pair, or one left at the budget."""
    out = []
    for (x, y), res in zip(pairs, depth_scan(pres, phi, pairs, order_budget,
                                             modulus_budget)):
        assert res.conjugate == is_conjugate(pres, phi, x, y)
        if res.separated:
            out.append((res.order, res.moduli))
        else:
            assert res.budget_exhausted != res.conjugate
            out.append(None)
    return out


def random_pairs(pres, count, bound, rng, central=False):
    """Random pairs; with central=True every other y is x times a random
    central power, which separates only deep in the scan, if at all."""
    top = [i for i in range(pres.h) if pres.weights[i] == pres.nilpotency_class]

    def el():
        return tuple(rng.randint(-bound, bound) for _ in range(pres.h))

    pairs = []
    for k in range(count):
        x, y = el(), el()
        if central and k % 2 == 0:
            c = [0] * pres.h
            c[rng.choice(top)] = rng.choice([-3, -2, -1, 1, 2, 3])
            y = pres.mult(x, tuple(c))
        pairs.append((x, y))
    return pairs


@pytest.mark.parametrize("pres, max_order, samples", [(H3, 300, 50), (D5, 200, 10)])
def test_coordinatewise_canon_equals_sifting(pres, max_order, samples):
    rng = random.Random(SEED)
    kernels = 0
    for _, vec, kernel in congruence_kernels(pres, max_order):
        canon = quotients._coset_canon(pres, kernel, vec)
        for _ in range(samples):
            g = tuple(rng.randint(-40, 40) for _ in range(pres.h))
            assert canon(g) == kernel.coset_rep(g), (vec, g)
        kernels += 1
    assert kernels > 100


def test_class3_canon_sifts():
    _, vec, kernel = next(congruence_kernels(U4, 64))
    assert quotients._coset_canon(U4, kernel, vec) == kernel.coset_rep


@pytest.mark.parametrize("pres, phi, count, bound, budget, central", [
    (H3, identity_automorphism(H3), 30, 4, 200, True),
    (H3, heisenberg_automorphism(H3, [[2, 1], [1, 1]]), 12, 3, 200, True),
    (D5, dim5_automorphism(D5), 12, 2, 96, False),
    (U4, identity_automorphism(U4), 5, 1, 12, False),
])
def test_depth_scan_matches_per_pair_reference(pres, phi, count, bound, budget, central):
    rng = random.Random(SEED + pres.h)
    pairs = random_pairs(pres, count, bound, rng, central)
    expected = [reference_depth(pres, phi, x, y, budget) for x, y in pairs]
    assert scan_answers(pres, phi, pairs, budget) == expected
    assert any(expected)


def test_depth_scan_duplicates_and_modulus_budget():
    phi = identity_automorphism(H3)
    x2, x5 = H3.pow(H3.gen(0), 2), H3.pow(H3.gen(0), 5)
    p2 = (x2, H3.mult(x2, H3.gen(2)))
    p5 = (x5, H3.mult(x5, H3.gen(2)))
    pairs = [p5, p2, p5, p2, p2]
    assert scan_answers(H3, phi, pairs, 200) == \
        [(125, (5, 5, 5)), (8, (2, 2, 2))] * 2 + [(8, (2, 2, 2))]
    capped = scan_answers(H3, phi, pairs, 200, modulus_budget=3)
    assert capped == [None, (8, (2, 2, 2)), None, (8, (2, 2, 2)), (8, (2, 2, 2))]
    assert capped == [reference_depth(H3, phi, x, y, 200, modulus_budget=3)
                      for x, y in pairs]
    assert depth_scan(H3, phi, [], 200) == []


def test_single_pair_depth_is_the_scan():
    phi = heisenberg_automorphism(H3, [[2, 1], [1, 1]])
    rng = random.Random(SEED + 1)
    pairs = random_pairs(H3, 4, 3, rng)
    pairs.append((pairs[0][0], twisted_image(H3, phi, H3.gen(0), pairs[0][0])))
    scanned = depth_scan(H3, phi, pairs, 300)
    assert scanned[-1].conjugate and not scanned[0].conjugate
    for (x, y), res in zip(pairs, scanned):
        if res.conjugate:
            with pytest.raises(PreconditionError):
                congruence_depth(H3, phi, x, y, 300)
        else:
            assert congruence_depth(H3, phi, x, y, 300) == res


def test_conjugate_pairs_run_no_orbit_search(monkeypatch):
    def no_search(self, g):
        raise AssertionError("a conjugate pair reached the orbit search")

    monkeypatch.setattr(quotients._OrbitLabels, "search", no_search)
    phi = heisenberg_automorphism(H3, [[2, 1], [1, 1]])
    rng = random.Random(SEED + 2)
    pairs = [(x, twisted_image(H3, phi, z, x)) for x, z in random_pairs(H3, 6, 3, rng)]
    pairs.append((H3.gen(2), H3.gen(2)))
    assert depth_scan(H3, phi, pairs, 300) == \
        [quotients.DepthResult(False, conjugate=True)] * len(pairs)


def test_wrong_labels_fail_the_recheck(monkeypatch):
    # an orbit search cut short leaves y unlabelled, which reads as a
    # separation; the independent sifting re-check must refuse it
    def start_only(self, g):
        start = self.canon(g)
        self.labels[start] = start
        return start

    monkeypatch.setattr(quotients._OrbitLabels, "search", start_only)
    phi = identity_automorphism(H3)
    x3 = H3.pow(H3.gen(0), 3)
    with pytest.raises(ValidationError, match="separation re-check failed"):
        depth_scan(H3, phi, [(x3, H3.mult(x3, H3.gen(2)))], 100)
