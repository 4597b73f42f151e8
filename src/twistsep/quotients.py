"""Finite congruence quotients, induced automorphisms, twisted classes by
orbit enumeration, depth scanning, the central pullback reduction, and
quotients by central subgroups.

Depth scans reduce blocks of elements to one element per twisted class
by canonical forms, then refine them kernel by kernel, over the kernels
of prime-power order only; congruence_kernels proves that depth stays
exact over every stable diagonal kernel.

Two power-subgroup notions coexist deliberately. The stable diagonal
kernels include the level-m one (subgroups.power_subgroup: basis m-th
powers, index m^h); these are normal, but not characteristic in general.
The full power subgroup N^m (generated by all m-th powers) is
characteristic and is what the pullback reduction needs; it is recovered
exactly as the preimage of the m-th power subgroup of the finite quotient
by the level-m kernel.
"""

from dataclasses import dataclass
import itertools
import math
import operator

from .errors import BudgetExceededError, PreconditionError, ValidationError
from . import lattice as lin
from .malcev import (MalcevPresentation, GroupHom, breadth_first, compose_with_inner,
                     product_of_powers, verify_hom, verify_presentation)
from .subgroups import InducedSequence, diagonal_kernel, power_subgroup
from .twisted import (blackburn_constants, canonical_form, center, twisted_chain,
                      _prime_power, _vp)

DEFAULT_ORDER_BUDGET = 5000
CENTRAL_QUOTIENT_STEPS = 20


class FiniteQuotient:
    """N/K for a full-rank kernel K, with canonical coset representatives
    computed on the fly by sifting (no multiplication tables)."""

    def __init__(self, pres, kernel, order_budget=None):
        self.pres = pres
        self.kernel = kernel
        order = kernel.index()
        if order is None:
            raise ValidationError("quotient kernel does not have finite index")
        if order_budget is not None and order > order_budget:
            raise BudgetExceededError(
                f"quotient order {order} exceeds the budget {order_budget}",
                budget="order budget", limit=order_budget)
        self.order = order

    def canon(self, g):
        return self.kernel.coset_rep(g)

    def mult(self, a, b):
        return self.canon(self.pres.mult(a, b))

    def inv(self, a):
        return self.canon(self.pres.inv(a))

    def elements(self):
        return itertools.product(*(range(self.kernel.entries[i][i]) for i in range(self.pres.h)))

    def subgroup_image(self, gens):
        """The subgroup of the quotient generated by images of gens, as a
        set of canonical forms. Right multiplication by an image permutes
        the finite quotient, so its inverse is a positive power of it and
        the images' own moves reach the whole subgroup."""
        walk = breadth_first(self.canon(self.pres.identity),
                             [self.canon(g) for g in gens], self.mult)
        return {t for t, _ in walk}


def congruence_quotient(pres, m, order_budget=None):
    """N modulo the level-m congruence kernel; order m^h."""
    return FiniteQuotient(pres, power_subgroup(pres, m), order_budget)


def induced_automorphism(q, phi):
    """The automorphism induced on the quotient, as a callable on
    canonical forms. phi must be an automorphism (verify_hom) and keep the
    kernel K: phi(K) has K's index, so phi(K) <= K means phi(K) = K, and
    the induced map is a bijection."""
    problems = verify_hom(phi, check_automorphism=True)
    if problems:
        raise ValidationError("; ".join(problems))
    for g in q.kernel.generators():
        if not q.kernel.contains(phi.apply(g)):
            raise ValidationError("kernel is not invariant under the automorphism")
    return lambda el: q.canon(phi.apply(el))


def projected_class(q, phi, x):
    """The image of the twisted class [x]_phi in the quotient, computed
    through the graph moves xi -> pi(a) xi pi(phi(a))^-1 of the generators
    a. Each move permutes the finite set N/K, so its inverse is a positive
    power of it and the generators' own moves reach the whole orbit. This
    never needs the kernel to be phi-invariant."""
    p = q.pres
    moves = [(q.canon(p.gen(i)), q.canon(p.inv(fa))) for i, fa in enumerate(phi.images)]
    walk = breadth_first(q.canon(x), moves, lambda e, uv: q.mult(q.mult(uv[0], e), uv[1]))
    return {t for t, _ in walk}


def separates(q, phi, x, y):
    """Whether the quotient separates y from the twisted class of x."""
    return q.canon(y) not in projected_class(q, phi, x)


def _compositions(k, h):
    """All h-tuples of non-negative integers with sum k, in lexicographic
    order."""
    if h == 1:
        yield (k,)
        return
    for e in range(k + 1):
        for rest in _compositions(k - e, h - 1):
            yield (e,) + rest


def congruence_kernels(pres, max_order):
    """Stable diagonal congruence kernels of prime-power quotient order, in
    increasing order (ties by moduli vector), as a lazy iterator of
    (order, moduli, seq). Validity results are cached per presentation by
    diagonal_kernel.

    A scan over these finds the same first separating kernel, in the same
    order, as a scan over every stable diagonal kernel. Let K be stable
    with moduli m, so K is generated by the a_i^(m_i), and let phi be any
    automorphism.
    (a) Each prime part is itself a stable kernel. For a prime p let mu be
        the p-parts of m, and K_p >= K the kernel of N -> N/K -> (Sylow p
        of N/K). The image of a_i there has p-power order dividing m_i, so
        a_i^(mu_i) lies in K_p, and K <= C <= K_p for C the normal closure
        of the a_i^(mu_i). N/C is covered by the a_1^(e_1)..a_h^(e_h) with
        0 <= e_i < mu_i, so |N:C| <= prod mu_i = |N:K_p| and C = K_p. Its
        leads divide the mu_i and multiply to the index, so C = D(mu) as in
        diagonal_kernel's proof, and mu is stable.
    (b) K is the intersection of its prime parts, by (a): N/K is the
        direct product of its Sylow subgroups.
    (c) K separates y from [x]_phi only if some K_p does. With L_p = K_p
        meet phi^-1(K_p), z x phi(z)^-1 modulo K_p depends only on z
        modulo L_p. Each L_p is normal of p-power index, so by the Chinese
        remainder theorem one z matches any choice of z_p modulo every L_p
        at once. Hence y lies in [x]_phi K exactly when it lies in
        [x]_phi K_p for every p.
    (d) That prime part comes first. When K has composite order, K_p has
        a smaller order, and its largest modulus is at most max(m), so an
        order or modulus budget that admits K admits K_p.
    So the first separating kernel of the full family, and whether any
    kernel within a budget separates, are unchanged; a composite order is
    skipped before any of its moduli vectors is built. The moduli vectors
    of order p^k are the p^e for the compositions e of k into h parts,
    whose lexicographic order is that of the vectors."""
    for order in range(2, max_order + 1):
        prime_power = _prime_power(order)
        if prime_power is None:
            continue
        p, k = prime_power
        for exponents in _compositions(k, pres.h):
            vec = tuple(p ** e for e in exponents)
            seq = diagonal_kernel(pres, vec)
            if seq is not None:
                yield order, vec, seq


@dataclass
class DepthResult:
    separated: bool
    order: int = None
    moduli: tuple = None
    budget_exhausted: bool = False
    conjugate: bool = False
    witness: tuple = None


class _OrbitLabels:
    """The orbits of xi -> pi(a) xi pi(phi(a))^-1 on N/K, the projected
    twisted classes, labelled lazily: an orbit is searched in full the first
    time one of its elements asks for its label. Each generator permutes the
    finite set N/K, so the searches need only the generators' own moves.

    search, the depth scans' hot path, writes every orbit at a kernel into
    one shared label map, where malcev.breadth_first keeps one seen set per
    walk, and stays independent of depth_scan's sifting re-check."""

    def __init__(self, pres, phi, canon):
        self.canon = canon
        self.mult = pres.mult
        self.moves = [(canon(pres.gen(i)), canon(pres.inv(fa)))
                      for i, fa in enumerate(phi.images)]
        self.labels = {}

    def search(self, g):
        """The label of g's orbit, searching the orbit when it is new."""
        start = self.canon(g)
        if start in self.labels:
            return self.labels[start]
        canon, mult, labels, moves = self.canon, self.mult, self.labels, self.moves
        labels[start] = start
        frontier = [start]
        while frontier:
            nxt = []
            for e in frontier:
                for u, v in moves:
                    t = canon(mult(mult(u, e), v))
                    if t not in labels:
                        labels[t] = start
                        nxt.append(t)
            frontier = nxt
        return start

    def peek(self, g):
        """The label of g's orbit, or None when it has not been searched."""
        return self.labels.get(self.canon(g))


def depth_scan(pres, phi, blocks, order_budget, modulus_budget=None):
    """Congruence depths of blocks of elements (a pair is a block of two)
    in one pass over the stable diagonal kernels of prime-power order, in
    increasing order: exact over all of them (congruence_kernels).

    Each block is first reduced to the first element of each twisted
    class, in block order, by one canonical form per element
    (twisted.canonical_form); no part is ever decided. Depth depends only
    on the two classes and is symmetric, so the first maximal pair of a
    block is a pair of first elements: replacing either element of a pair
    by the first of its class, and reordering, never gives a later pair.
    The representatives are pairwise non-conjugate, so every part of two or
    more is still to be split. At a kernel a part peels off the elements
    labelled like its first element, the only orbit searched, and repeats
    on the rest; pairs split apart have the kernel's order as depth, and a
    piece of one element is finished. A split into P_1..P_k is re-checked
    by sifting in a fresh quotient: for i < k the class of P_i's first
    element holds P_i and none of P_(i+1)..P_k.

    Per block: order, moduli and witness (first pair in block order) of the
    deepest split; conjugate when it is one class; budget_exhausted when a
    part is left. Forms that split a class could only leave it in one part,
    since orbit labels are exact: budget_exhausted, never a wrong depth.
    modulus_budget caps every single modulus."""
    for name, budget in (("order", order_budget), ("modulus", modulus_budget)):
        if budget is not None and budget < 1:
            raise ValidationError(f"{name} budget must be at least 1, got {budget}")
    blocks = [[pres.check_element(g) for g in block] for block in blocks]
    firsts = [{} for _ in blocks]   # canonical form -> index of its class's first element
    for first, block in zip(firsts, blocks):
        for i, g in enumerate(block):
            first.setdefault(canonical_form(pres, phi, g)[1], i)
    parts = [(b, list(first.values())) for b, first in enumerate(firsts) if len(first) > 1]
    best = {}   # block -> (order, witness indices, moduli)
    for order, vec, kernel in congruence_kernels(pres, order_budget) if parts else ():
        if modulus_budget is not None and max(vec) > modulus_budget:
            continue
        # g mod vec is a stable diagonal kernel's coset form (diagonal_kernel proves it)
        labels = _OrbitLabels(pres, phi, lambda g: tuple(map(operator.mod, g, vec)))
        quotient, still = FiniteQuotient(pres, kernel), []
        for b, part in parts:
            block, pieces, rest = blocks[b], [], part
            while len(rest) > 1:  # the orbit is complete before the rest is peeked
                label, split = labels.search(block[rest[0]]), ([], [])
                for i in rest[1:]:
                    split[labels.peek(block[i]) != label].append(i)
                pieces, rest = pieces + [[rest[0]] + split[0]], split[1]
            pieces += [rest] if rest else []
            if len(pieces) == 1:
                still.append((b, part))
                continue
            for k, piece in enumerate(pieces[:-1]):
                cls = projected_class(quotient, phi, block[piece[0]])
                if not all(quotient.canon(block[i]) in cls for i in piece[1:]) or any(
                        quotient.canon(block[i]) in cls for p in pieces[k + 1:] for i in p):
                    raise ValidationError("separation re-check failed")
            new = (order, (part[0], pieces[1][0]), vec)   # the first pair split here
            best[b] = min(best.get(b, new), new, key=lambda r: (-r[0], r[1]))  # deepest first
            still += [(b, p) for p in pieces if len(p) > 1]
        parts = still
        if not parts:
            break
    left = {b for b, _ in parts}
    return [DepthResult(True, best[b][0], best[b][2], b in left,
                        witness=tuple(block[i] for i in best[b][1])) if b in best
            else DepthResult(False, budget_exhausted=b in left, conjugate=b not in left)
            for b, block in enumerate(blocks)]


def congruence_depth(pres, phi, x, y, order_budget=DEFAULT_ORDER_BUDGET,
                     modulus_budget=None):
    """The smallest congruence quotient order separating y from [x]_phi:
    the single-pair case of depth_scan. The result is exact among
    congruence quotients when the scan is exhaustive below the found
    order. Raises PreconditionError when the scan finds x and y twisted
    conjugate."""
    res = depth_scan(pres, phi, [(x, y)], order_budget, modulus_budget)[0]
    if res.conjugate:
        raise PreconditionError("x and y are twisted conjugate", reason="conjugate")
    return res


def full_power_subgroup(pres, m, order_budget=200_000):
    """The subgroup generated by all m-th powers, exactly: the preimage of
    the m-th power subgroup of N modulo the level-m congruence kernel.
    Characteristic, so induced automorphisms always exist."""
    base = power_subgroup(pres, m)
    q = FiniteQuotient(pres, base, order_budget)
    gens = list(base.generators())
    seen = set()
    for el in q.elements():
        w = q.canon(pres.pow(el, m))
        if any(w) and w not in seen:
            seen.add(w)
            gens.append(w)
    return InducedSequence.from_generators(
        pres, gens, conjugators=[pres.gen(i) for i in range(pres.h)])


def quotient_twisted_subgroup(q, phi_bar):
    """X_c of the finite quotient: displacements u phibar(u)^-1 that land
    in the top lower-central-series layer of the quotient."""
    p = q.pres
    c = p.nilpotency_class
    gamma_c = q.subgroup_image([p.gen(i) for i in p.layer_indices(c)])
    out = set()
    for el in q.elements():
        d = q.mult(el, q.inv(phi_bar(el)))
        if d in gamma_c:
            out.add(d)
    return out


def verify_pullback_reduction(pres, phi, x, p, k, order_budget=200_000):
    """Check the central pullback reduction: with k0 = v_p(D_{phi_x}) +
    k*(p, c-1), the twisted subgroup of N/N^(p^(k+k0)) projects onto the
    image of N_{phi_x} in N/N^(p^k). Uses full (characteristic) power
    subgroups and exhaustive set computation."""
    c = pres.nilpotency_class
    phi_x = compose_with_inner(pres, phi, x)
    chain = twisted_chain(pres, phi_x)
    _, D = chain.determinants()
    _, k_star = blackburn_constants(p, max(c - 1, 1))
    k0 = (_vp(abs(D), p) or 0) + k_star
    big = FiniteQuotient(pres, full_power_subgroup(pres, p ** (k + k0), order_budget),
                         order_budget)
    small = FiniteQuotient(pres, full_power_subgroup(pres, p ** k, order_budget),
                           order_budget)
    bar = induced_automorphism(big, phi_x)
    lhs = {small.canon(d) for d in quotient_twisted_subgroup(big, bar)}
    n_phi = chain.level(c).image
    central_gens = [pres.from_layer_coords(row, c) for row in n_phi.rows]
    rhs = small.subgroup_image(central_gens)
    return lhs == rhs


# -- quotients by central subgroups -------------------------------------------


class CentralQuotientError(ValidationError):
    """The adapted quotient construction failed; carries the reason."""


def _center_lattice(pres):
    zc = center(pres)
    rows = [list(g) for g in zc.generators()]
    return zc, lin.Lattice.from_rows(pres.h, rows)


def central_quotient(pres, c_entries):
    """Quotient by a central isolated subgroup whose induced entries are
    each supported in a single weight layer. Returns (quotient, project)
    where project maps old exponent vectors to new ones.

    Raises CentralQuotientError when the entries mix layers, are not
    saturated layerwise, or the resulting presentation fails verification.
    """
    p = pres
    by_layer = {}
    for g in c_entries:
        w = p.weight_of(g)
        if w is None:
            continue
        support_weights = {p.weights[i] for i, e in enumerate(g) if e}
        if support_weights != {w}:
            raise CentralQuotientError("central entry mixes weight layers")
        by_layer.setdefault(w, []).append(list(p.layer_coords(g, w)))

    complements = {}
    kill = {}
    new_index = []
    for w in range(1, p.nilpotency_class + 1):
        r = p.layer_rank(w)
        S = lin.Lattice.from_rows(r, by_layer.get(w, []))
        if lin.saturation(S).rows != S.rows:
            raise CentralQuotientError(f"layer {w} part is not saturated")
        if S.rows:
            _, _, V = lin.snf(S.rows)
            vinv = lin.inverse_unimodular(V)
            comp = vinv[S.rank:]
        else:
            comp = lin.identity_matrix(r)
        complements[w] = comp
        kill[w] = S.rows
        for t in range(len(comp)):
            new_index.append((w, t))

    section = []
    for w, t in new_index:
        section.append(p.from_layer_coords(complements[w][t], w))

    def project(g):
        g = p.check_element(g)
        coords = []
        residual = g
        for w in range(1, p.nilpotency_class + 1):
            # residual is supported on weight >= w by induction
            t = [residual[i] for i in p.layer_indices(w)]
            basis = complements[w] + kill[w]
            M = lin.transpose(basis) if basis else []
            sol = lin.solve(M, t) if basis else ([] if not any(t) else None)
            if sol is None:
                raise CentralQuotientError("layer split failed; quotient has torsion")
            beta = sol[:len(complements[w])]
            coords.extend(beta)
            prefix = product_of_powers(
                p, (p.from_layer_coords(vec, w) for vec in complements[w] + kill[w]), sol)
            residual = p.mult(p.inv(prefix), residual)
        if any(residual):
            raise CentralQuotientError("projection residual is nontrivial")
        return tuple(coords)

    new_h = len(new_index)
    new_weights = [w for w, _ in new_index]
    names = []
    counters = {}
    for w, _ in new_index:
        counters[w] = counters.get(w, 0) + 1
        names.append(f"g{w}_{counters[w]}")
    commutators = {}
    for j in range(new_h):
        for i in range(j):
            cvec = p.comm(section[j], section[i])
            img = project(cvec)
            if any(img):
                commutators[(j, i)] = img
    # a collapsed or non-adapted quotient fails construction or
    # verification here and is reported, never approximated
    quotient = MalcevPresentation(names, new_weights, commutators)
    problems = verify_presentation(quotient)
    if problems:
        raise CentralQuotientError("; ".join(problems))
    hom = GroupHom(p, quotient, [project(p.gen(i)) for i in range(p.h)])
    for g in c_entries:
        if any(hom.apply(g)):
            raise CentralQuotientError("kernel generator does not die in the quotient")
    return quotient, hom


def one_dim_central_quotient(pres, z):
    """A torsion-free quotient whose center is generated by the image of
    the primitive central element z. Returns (quotient, hom, steps).

    Iterates: complement the direction of z inside the center, quotient,
    recompute.
    """
    current = pres
    hom = GroupHom(pres, pres, [pres.gen(i) for i in range(pres.h)])
    z_cur = pres.check_element(z)
    steps = 0
    for _ in range(CENTRAL_QUOTIENT_STEPS):
        zc, zlat = _center_lattice(current)
        coords = zlat.coordinates(z_cur)
        if coords is None:
            raise CentralQuotientError("z is not central")
        g = math.gcd(*[abs(c) for c in coords]) if any(coords) else 0
        if g != 1:
            raise CentralQuotientError("z is not primitive in the center")
        if zlat.rank == 1:
            return current, hom, steps
        # complement of the primitive z inside the center lattice, over
        # center coordinates
        _, _, V = lin.snf([list(coords)])
        kill_elements = [product_of_powers(current, zc.generators(), cc)
                         for cc in lin.inverse_unimodular(V)[1:]]
        kill_seq = InducedSequence.from_generators(current, kill_elements)
        quotient, proj = central_quotient(current, kill_seq.generators())
        hom = proj.compose(hom)
        z_cur = proj.apply(z_cur)
        current = quotient
        steps += 1
    raise CentralQuotientError("central quotient iteration did not stabilize")
