"""Induced sequences: the exact subgroup representation.

A subgroup of a Mal'cev-presented group is stored as a sequence of
elements with strictly increasing leading indices and positive leading
exponents. Because collection corrections always land strictly deeper
than the letters that produce them, leading coordinates add linearly,
which makes gcd elimination on leading exponents work exactly as in the
abelian case. Construction closes the entries under mutual conjugation
(and optionally under external conjugators, giving normal closures), so
membership testing by sifting is sound and complete.
"""

import math

from .errors import BudgetExceededError, ValidationError
from .lattice import xgcd
from .malcev import breadth_first

CLOSURE_PASSES = 200


def _lead(g):
    for i, e in enumerate(g):
        if e:
            return i
    return None


class InducedSequence:
    def __init__(self, pres, entries=None):
        self.pres = pres
        self.entries = dict(entries or {})

    @classmethod
    def from_generators(cls, pres, gens, conjugators=None):
        seq = cls(pres)
        work = [pres.check_element(g) for g in gens]
        while work:
            seq._insert(work.pop())
        seq._close(conjugators or [])
        seq.canonicalize()
        return seq

    # -- construction -------------------------------------------------------

    def _insert(self, g):
        """Sift g into the sequence, combining leads by extended gcd.
        Returns True when the sequence changed."""
        p = self.pres
        changed = False
        while True:
            i = _lead(g)
            if i is None:
                return changed
            s = self.entries.get(i)
            if s is None:
                if g[i] < 0:
                    g = p.inv(g)
                self.entries[i] = g
                return True
            a, b = s[i], g[i]
            if b % a == 0:
                g = p.mult(p.pow(s, -(b // a)), g)
                continue
            u, v, d = xgcd(a, b)
            hnew = p.mult(p.pow(s, u), p.pow(g, v))
            s_res = p.mult(p.pow(hnew, -(a // d)), s)
            g_res = p.mult(p.pow(hnew, -(b // d)), g)
            if hnew[i] < 0:
                hnew = p.inv(hnew)
            self.entries[i] = hnew
            changed = True
            self._insert(s_res)
            g = g_res

    def _close(self, conjugators):
        p = self.pres
        conj = [p.check_element(c) for c in conjugators]
        for _ in range(CLOSURE_PASSES):
            changed = False
            entries = list(self.entries.values())
            for s in entries:
                for t in list(self.entries.values()) + conj:
                    for w in (p.conjugate(s, t), p.conjugate(s, p.inv(t))):
                        changed |= self._insert(w)
            if not changed:
                return
        raise BudgetExceededError("induced sequence closure did not stabilize",
                                  budget="closure passes", limit=CLOSURE_PASSES)

    def canonicalize(self):
        """Reduce each entry's tail modulo deeper entries, making the
        sequence the unique canonical basis of the subgroup."""
        p = self.pres
        for i in sorted(self.entries, reverse=True):
            s = self.entries[i]
            for m in sorted(self.entries):
                if m <= i:
                    continue
                t = self.entries[m]
                q = s[m] // t[m]
                if q:
                    s = p.mult(s, p.pow(t, -q))
            self.entries[i] = s

    # -- queries ------------------------------------------------------------

    def residual(self, g):
        """Sift g; returns the identity exactly when g is a member."""
        p = self.pres
        g = p.check_element(g)
        while True:
            i = _lead(g)
            if i is None:
                return g
            s = self.entries.get(i)
            if s is None or g[i] % s[i] != 0:
                return g
            g = p.mult(p.pow(s, -(g[i] // s[i])), g)

    def contains(self, g):
        return not any(self.residual(g))

    def coset_rep(self, g):
        """Canonical coset representative: exponents at occupied leads are
        reduced into [0, lead exponent) by left multiplication, so the map
        is constant on cosets K*g."""
        p = self.pres
        g = p.check_element(g)
        for i in sorted(self.entries):
            s = self.entries[i]
            q = g[i] // s[i]
            if q:
                g = p.mult(p.pow(s, -q), g)
        return g

    def index(self):
        """The index in the ambient group, or None when infinite."""
        if set(self.entries) != set(range(self.pres.h)):
            return None
        out = 1
        for i in range(self.pres.h):
            out *= self.entries[i][i]
        return out

    def generators(self):
        return [self.entries[i] for i in sorted(self.entries)]

    def rank(self):
        return len(self.entries)

    def conjugated(self, phi):
        """The image subgroup under a homomorphism (used for cores)."""
        return InducedSequence.from_generators(
            self.pres, [phi.apply(g) for g in self.generators()])

    def __eq__(self, other):
        return (isinstance(other, InducedSequence)
                and self.pres is other.pres and self.entries == other.entries)

    def __repr__(self):
        gens = {self.pres.basis[i]: g for i, g in sorted(self.entries.items())}
        return f"InducedSequence({gens})"


def power_subgroup(pres, m):
    """The congruence kernel of level m: the subgroup generated by the
    m-th powers of the basis generators, which is the uniform diagonal
    kernel diagonal_kernel(pres, (m,) * h). Its stability (checked there,
    in closed form for class <= 2 and by the closure otherwise) makes it
    normal of index m^h, with every coordinate of a member divisible by m.
    """
    if m < 1:
        raise ValidationError("power subgroup level must be >= 1")
    seq = diagonal_kernel(pres, (m,) * pres.h)
    if seq is None:
        raise ValidationError(
            f"basis power subgroup of level {m} is not a stable diagonal kernel")
    return seq


def diagonal_kernel(pres, moduli):
    """The subgroup generated by a_i^(m_i), when it is stable: the normal
    closure must keep the diagonal induced sequence. Returns the sequence
    or None when the vector is not stable (the closure escapes).

    For class <= 2 stability has a closed form (each relation vector v of
    [a_j, a_i] must satisfy m_t | m_i v_t and m_t | m_j v_t), checked
    directly; deeper groups run the generic closure. Cached per
    presentation."""
    moduli = tuple(moduli)
    if len(moduli) != pres.h or any(m < 1 for m in moduli):
        raise ValidationError("bad moduli vector")
    cache = pres.__dict__.setdefault("_diag_kernel_cache", {})
    if moduli in cache:
        return cache[moduli]
    seq = _diagonal_kernel_uncached(pres, moduli)
    cache[moduli] = seq
    return seq


def _diagonal_kernel_uncached(pres, moduli):
    if pres.nilpotency_class <= 2:
        for (j, i), v in pres.commutators.items():
            for t, e in enumerate(v):
                if e:
                    if (moduli[i] * e) % moduli[t] or (moduli[j] * e) % moduli[t]:
                        return None
        entries = {}
        for i, m in enumerate(moduli):
            vec = [0] * pres.h
            vec[i] = m
            entries[i] = tuple(vec)
        return InducedSequence(pres, entries)
    gens = [pres.pow(pres.gen(i), m) for i, m in enumerate(moduli)]
    seq = InducedSequence.from_generators(
        pres, gens, conjugators=[pres.gen(i) for i in range(pres.h)])
    for i in range(pres.h):
        entry = seq.entries.get(i)
        if entry is None or entry[i] != moduli[i]:
            return None
        if any(entry[j] for j in range(pres.h) if j != i):
            return None
    return seq


def schreier_kernel(pres, canon_fns, budget=1_000_000):
    """The kernel of the product of finitely many finite-quotient maps,
    via a Schreier transversal over the joint canonical forms.

    canon_fns: callables mapping an element to a hashable canonical form.
    Each edge t*s that reaches a known state gives the Schreier generator
    t*s*rep^-1, rep the transversal element of that state.
    """
    p = pres
    gens = [p.gen(i) for i in range(p.h)]
    walk = breadth_first(p.identity, gens + [p.inv(g) for g in gens], p.mult,
                         key=lambda g: tuple(fn(g) for fn in canon_fns),
                         cap=budget, name="Schreier transversal")
    schreier = [p.mult(e, p.inv(rep)) for e, rep, _ in walk if rep is not None]
    return InducedSequence.from_generators(pres, [g for g in schreier if any(g)])


def intersect_finite_index(pres, seqs, budget=1_000_000):
    """Intersection of finitely many finite-index subgroups."""
    fns = [s.coset_rep for s in seqs]
    return schreier_kernel(pres, fns, budget)


def enumerate_finite_index_subgroups(pres, max_index):
    """All subgroups of index <= max_index, as induced sequences.

    Candidates are full diagonal sequences with bounded leads and reduced
    tails; each candidate is kept when its own closure reproduces it.
    """
    h = pres.h
    out = []

    def diag_vectors(prefix, budget):
        if len(prefix) == h:
            yield tuple(prefix)
            return
        d = 1
        while d <= budget:
            yield from diag_vectors(prefix + [d], budget // d)
            d += 1

    def tails(diag):
        # entry at lead i has free coordinates at j > i modulo diag[j]
        slots = [(i, j) for i in range(h) for j in range(i + 1, h)]

        def rec(assign, k):
            if k == len(slots):
                yield dict(assign)
                return
            i, j = slots[k]
            for v in range(diag[j]):
                assign[(i, j)] = v
                yield from rec(assign, k + 1)
            del assign[(i, j)]

        yield from rec({}, 0)

    seen = set()
    for diag in diag_vectors([], max_index):
        for tail in tails(diag):
            entries = {}
            for i in range(h):
                vec = [0] * h
                vec[i] = diag[i]
                for j in range(i + 1, h):
                    vec[j] = tail[(i, j)]
                entries[i] = tuple(vec)
            seq = InducedSequence.from_generators(pres, list(entries.values()))
            if seq.index() != math.prod(diag):
                continue
            key = tuple(sorted(seq.entries.items()))
            if key in seen:
                continue
            seen.add(key)
            out.append(seq)
    return out

