"""Differential tests of the shared orbit-label depth scan against the
sifting reference: plain separates over every stable diagonal kernel,
composite orders included, pair by pair, and of each block's result
against its pairs."""

import operator
import random

import pytest

from twistsep import quotients, twisted
from twistsep.errors import PreconditionError, ValidationError
from twistsep.groups import dim5, dim5_automorphism, heisenberg, heisenberg_automorphism, ut4
from twistsep.malcev import identity_automorphism
from twistsep.quotients import (FiniteQuotient, congruence_depth, congruence_kernels,
                                depth_scan, separates)
from twistsep.subgroups import diagonal_kernel
from twistsep.twisted import TwistedWitness, is_twisted_conjugate
from test_malcev import U5

SEED = 20240214
H3 = heisenberg()
D5 = dim5()
U4 = ut4()


def ordered_factorizations(n, h):
    """All h-tuples of positive integers with product n, in lexicographic
    order, by trying every divisor at each place."""
    if h == 1:
        yield (n,)
        return
    for d in range(1, n + 1):
        if n % d == 0:
            for rest in ordered_factorizations(n // d, h - 1):
                yield (d,) + rest


def all_stable_kernels(pres, max_order):
    """Every stable diagonal kernel, composite orders included, as
    (order, moduli, seq) in increasing order, ties by moduli vector: the
    family whose prime-power members congruence_kernels yields."""
    for order in range(2, max_order + 1):
        for vec in ordered_factorizations(order, pres.h):
            seq = diagonal_kernel(pres, vec)
            if seq is not None:
                yield order, vec, seq


def prime_factors(n):
    out, d = set(), 2
    while n > 1:
        if n % d:
            d += 1
        else:
            out.add(d)
            n //= d
    return out


def reference_depth(pres, phi, x, y, order_budget, modulus_budget=None):
    for order, vec, kernel in all_stable_kernels(pres, order_budget):
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


def p_part(m, p):
    q = 1
    while m % p == 0:
        m //= p
        q *= p
    return q


KERNEL_FAMILIES = pytest.mark.parametrize("pres, max_order", [(H3, 400), (D5, 400), (U4, 24)],
                                          ids=["H3", "dim5", "ut4"])


@KERNEL_FAMILIES
def test_composite_kernels_have_stable_prime_parts(pres, max_order):
    composite = 0
    for order, vec, _ in all_stable_kernels(pres, max_order):
        primes = prime_factors(order)
        if len(primes) > 1:
            composite += 1
            for p in primes:
                mu = tuple(p_part(m, p) for m in vec)
                assert diagonal_kernel(pres, mu) is not None, (vec, p)
    assert composite > 10


@KERNEL_FAMILIES
def test_congruence_kernels_are_the_prime_power_members(pres, max_order):
    family = list(all_stable_kernels(pres, max_order))
    expected = [k for k in family if len(prime_factors(k[0])) == 1]
    assert list(congruence_kernels(pres, max_order)) == expected
    assert len(expected) < len(family)


@pytest.mark.parametrize("h, max_order", [(3, 2048), (5, 1024), (6, 512)])
def test_prime_power_moduli_are_the_ordered_factorizations(h, max_order):
    prime_powers = 0
    for order in range(2, max_order + 1):
        prime_power = twisted._prime_power(order)
        assert (prime_power is not None) == (len(prime_factors(order)) == 1), order
        if prime_power is None:
            continue
        p, k = prime_power
        assert p ** k == order
        vectors = [tuple(p ** e for e in c) for c in quotients._compositions(k, h)]
        assert vectors == list(ordered_factorizations(order, h)), order
        prime_powers += 1
    assert prime_powers > 90


@pytest.mark.parametrize("pres, max_order, samples",
                         [(H3, 300, 50), (D5, 200, 10), (U4, 243, 10), (U5, 64, 5)])
def test_coordinatewise_canon_equals_sifting(pres, max_order, samples):
    # depth_scan labels cosets by g mod moduli in every class; sifting
    # is the reference
    rng = random.Random(SEED)
    kernels = 0
    for _, vec, kernel in congruence_kernels(pres, max_order):
        for _ in range(samples):
            g = tuple(rng.randint(-40, 40) for _ in range(pres.h))
            assert tuple(map(operator.mod, g, vec)) == kernel.coset_rep(g), (vec, g)
        kernels += 1
    assert kernels > 100


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


@pytest.mark.parametrize("pres, phi", [
    (H3, identity_automorphism(H3)),
    (H3, heisenberg_automorphism(H3, [[2, 1], [1, 1]])),
    (D5, dim5_automorphism(D5)),
], ids=["H3-id", "H3-A", "dim5"])
def test_depth_scan_equals_full_family_reference(pres, phi):
    # central translates (x^p, x^p c) of the weight-1 generators separate
    # only at order p^3 or so, after many kernels of composite order
    pairs = []
    for p in (2, 3, 5):
        for i in pres.layer_indices(1):
            x = pres.pow(pres.gen(i), p)
            pairs += [(x, pres.mult(x, pres.gen(t))) for t in pres.layer_indices(2)]
    pairs = [(x, y) for x, y in pairs if not is_conjugate(pres, phi, x, y)]
    expected = [reference_depth(pres, phi, x, y, 130) for x, y in pairs]
    assert scan_answers(pres, phi, pairs, 130) == expected
    assert max(order for order, _ in expected) >= 27


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


def block_reference(pres, phi, block, order_budget, modulus_budget=None):
    """A block's result from its pairs in block order, each decided and
    scanned by the per-pair reference: the first maximal pair with its
    moduli, whether every pair is conjugate, and whether a non-conjugate
    pair is left unseparated."""
    best, conjugate, exhausted = None, True, False
    for i, x in enumerate(block):
        for y in block[i + 1:]:
            if is_conjugate(pres, phi, x, y):
                continue
            conjugate = False
            found = reference_depth(pres, phi, x, y, order_budget, modulus_budget)
            if found is None:
                exhausted = True
            elif best is None or found[0] > best[0]:
                best = (found[0], found[1], (x, y))
    return best, conjugate, exhausted


def random_blocks(pres, phi, rng, bound, sizes):
    """Blocks of the given sizes mixing powers of random elements with
    duplicates, twisted conjugates and central translates of earlier
    members, which separate only deep in the scan, if at all; a block of
    two is a duplicated element, x == y."""
    top = pres.layer_indices(pres.nilpotency_class)

    def el(b=bound):
        return tuple(rng.randint(-b, b) for _ in range(pres.h))

    blocks = []
    for size in sizes:
        block = [pres.pow(el(), rng.choice([1, 2, 3, 5]))]
        while len(block) < size:
            kind, old = rng.randrange(4), rng.choice(block)
            if kind == 0 or size == 2:
                block.append(old)
            elif kind == 1:
                block.append(twisted_image(pres, phi, el(1), old))
            elif kind == 2:
                block.append(pres.mult(old, pres.gen(rng.choice(top))))
            else:
                block.append(pres.pow(el(), rng.choice([1, 2, 3, 5])))
        blocks.append(block[:size])
    return blocks


@pytest.mark.parametrize("pres, phi, bound, budget, modulus_budget", [
    (H3, identity_automorphism(H3), 3, 60, None),
    (H3, identity_automorphism(H3), 3, 60, 3),
    (H3, heisenberg_automorphism(H3, [[2, 1], [1, 1]]), 2, 60, None),
    (D5, dim5_automorphism(D5), 2, 48, None),
    (D5, dim5_automorphism(D5), 2, 48, 2),
    (U4, identity_automorphism(U4), 1, 12, None),
], ids=["H3-id", "H3-id-mod3", "H3-A", "dim5", "dim5-mod2", "ut4"])
def test_block_scan_matches_its_pairs(pres, phi, bound, budget, modulus_budget):
    rng = random.Random(SEED + pres.h + budget)
    blocks = random_blocks(pres, phi, rng, bound, [0, 1, 2, 5, 7, 5])
    results = depth_scan(pres, phi, blocks, budget, modulus_budget)
    assert len(results) == len(blocks)
    kinds = set()
    for block, res in zip(blocks, results):
        best, conjugate, exhausted = block_reference(pres, phi, block, budget, modulus_budget)
        assert (res.conjugate, res.budget_exhausted) == (conjugate, exhausted)
        assert res.separated == (best is not None)
        if best is not None:
            assert (res.order, res.moduli, res.witness) == best
        else:
            assert (res.order, res.moduli, res.witness) == (None, None, None)
        kinds.add((res.separated, conjugate, exhausted))
    # every case has a block that is one class and a block with a separation
    assert (False, True, False) in kinds and any(k[0] for k in kinds)


@pytest.mark.parametrize("budgets, name", [
    ((0, None), "order"), ((-5, None), "order"), ((100, 0), "modulus"), ((100, -3), "modulus"),
])
def test_budgets_below_one_are_refused(budgets, name):
    x3 = H3.pow(H3.gen(0), 3)
    with pytest.raises(ValidationError, match=f"{name} budget must be at least 1"):
        depth_scan(H3, identity_automorphism(H3), [(x3, H3.gen(2))], *budgets)
    with pytest.raises(ValidationError, match=f"{name} budget must be at least 1"):
        congruence_depth(H3, identity_automorphism(H3), x3, H3.gen(2), *budgets)


@pytest.mark.parametrize("merge", [False, True], ids=["split", "merge"])
def test_wrong_labels_of_later_elements_fail_the_recheck(monkeypatch, merge):
    # a, c, b are three classes and b2 is conjugate to b, so the block's
    # representatives are a, c, b and b2 is never labelled. The labelling is
    # right but for b. Split from a at the first kernel, of moduli (1, 2, 1),
    # where all three share a label, b must be found inside a's class; given
    # a's label at the next, (2, 1, 1), where c and b share a label that a
    # lacks, b joins a's part and must be found outside a's class
    phi = identity_automorphism(H3)
    a, c, b = (0, 0, 0), (1, 0, 0), (-1, 0, 0)
    b2 = twisted_image(H3, phi, H3.gen(1), b)
    assert b2 != b and is_conjugate(H3, phi, b, b2)
    peek, peeked = quotients._OrbitLabels.peek, []
    monkeypatch.setattr(quotients._OrbitLabels, "peek", lambda self, g: peeked.append(g) or (
        peek(self, g) if g != b else peek(self, a) if merge else "wrong"))
    enumerated = []
    projected_class = quotients.projected_class
    monkeypatch.setattr(quotients, "projected_class",
                        lambda q, f, x: enumerated.append(x) or projected_class(q, f, x))
    with pytest.raises(ValidationError, match="separation re-check failed"):
        depth_scan(H3, phi, [[a, c, b, b2]], 100)
    assert enumerated[-1] == a
    assert b in peeked and b2 not in peeked


def test_a_wrong_split_fails_the_recheck_of_a_later_piece(monkeypatch):
    # a, c, b are three classes. At the kernel of moduli (2, 1, 1) c and b
    # share a label that a lacks; there b alone is labelled wrong, so the
    # pieces are [a], [c], [b]. a's piece is sound, and only the re-check of
    # c's piece, the second, can find b inside c's class
    phi = identity_automorphism(H3)
    a, c, b = (0, 0, 0), (1, 0, 0), (-1, 0, 0)
    peek = quotients._OrbitLabels.peek
    monkeypatch.setattr(quotients._OrbitLabels, "peek", lambda self, g: "wrong"
                        if g == b and self.canon(a) != self.canon(b) else peek(self, g))
    enumerated = []
    projected_class = quotients.projected_class
    monkeypatch.setattr(quotients, "projected_class",
                        lambda q, f, x: enumerated.append(x) or projected_class(q, f, x))
    with pytest.raises(ValidationError, match="separation re-check failed"):
        depth_scan(H3, phi, [[a, c, b]], 100)
    assert enumerated == [a, c]
