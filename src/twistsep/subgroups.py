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
            # leads add linearly, so hnew[i] = u a + v b = d > 0
            hnew = p.mult(p.pow(s, u), p.pow(g, v))
            s_res = p.mult(p.pow(hnew, -(a // d)), s)
            g_res = p.mult(p.pow(hnew, -(b // d)), g)
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

    def contains(self, g):
        """coset_rep(g) lies in K g, so it is the identity exactly when g
        is in K."""
        return not any(self.coset_rep(g))

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
    """The congruence kernel of level m, diagonal_kernel(pres, (m,) * h):
    generated by the m-th powers of the basis generators, normal of index
    m^h, its members the g with m | g_i for all i (diagonal_kernel)."""
    if m < 1:
        raise ValidationError("power subgroup level must be >= 1")
    seq = diagonal_kernel(pres, (m,) * pres.h)
    if seq is None:
        raise ValidationError(
            f"basis power subgroup of level {m} is not a stable diagonal kernel")
    return seq


def diagonal_kernel(pres, moduli):
    """The subgroup K(m) generated by the a_i^(m_i) when m is stable, that
    is when its normal closure keeps the diagonal induced sequence with
    leads m_i; otherwise None. Cached per presentation.

    One test in every class: m is stable exactly when, for every relation
    pair (j, i), a_j a_i^(m_i) a_j^-1 and a_i a_j^(m_j) a_i^-1 lie in
    D(m) = {g : m_k | g_k for all k}. Let N_>=i = <a_i..a_h>; a relation
    of a_i has support of weight > w_i, so [N, N_>=i] <= N_>i.
    (=>) A stable K(m) is D(m): a member s_1^(k_1)..s_h^(k_h), s_i its
        entries, is a_1^(k_1 m_1)..a_h^(k_h m_h), already in normal form.
        It is normal, so it holds every conjugate.
    (<=) Downward induction on i: H_i = <a_i^(m_i)..a_h^(m_h)> is normal
        and equals D(m) meet N_>=i. For a generator a_b without a relation
        to a_i, c = a_b a_i^(m_i) a_b^-1 is a_i^(m_i). Otherwise c lies in
        N_>=i with c_i = m_i, and a_i^(-m_i) c = (0,..,0,c_(i+1),..,c_h)
        lies in D(m) meet N_>i = H_(i+1) by the test and induction. So
        conjugation by a_b maps H_i = <a_i^(m_i)> H_(i+1) into itself, and
        onto itself, as it maps N_>=i onto itself and H_i has finite index
        there; so a_b^-1 keeps H_i too. As a_i^(k m_i) h, h in H_(i+1), is
        in normal form, H_i = D(m) meet N_>=i. So K(m) = H_1 = D(m), and
        its canonical sequence is diagonal.
    Coset forms: for stable m, coset_rep(g) is g mod m coordinatewise.
    With g_i = q_i m_i + r_i, moving each a_i^(q_i m_i) left by normality
    puts g in D(m) r, r = g mod m. There are prod m_i box vectors
    0 <= r_i < m_i, as many as cosets, so r is the one box vector of
    K(m) g, which coset_rep(g) is too."""
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
    powers = [tuple(m if t == i else 0 for t in range(pres.h)) for i, m in enumerate(moduli)]
    for j, i in pres.commutators:
        for b, a in ((j, i), (i, j)):
            c = pres.conjugate(powers[a], pres.gen(b))
            if any(e % m for e, m in zip(c, moduli)):
                return None
    return InducedSequence(pres, dict(enumerate(powers)))


def schreier_kernel(pres, canon_fns, budget=1_000_000):
    """The kernel of the product of finitely many finite-quotient maps,
    via a Schreier transversal over the joint canonical forms.

    canon_fns: callables mapping an element to a hashable canonical form.
    Each generator permutes the finite set of states, so the walk over the
    generators alone reaches every state, and by Schreier's lemma the
    kernel is generated by e*s*rep(e*s)^-1 over the transversal elements e
    and the generators s, rep(t) the transversal element of t's state.
    """
    p = pres
    gens = [p.gen(i) for i in range(p.h)]
    key = lambda g: tuple(fn(g) for fn in canon_fns)
    rep = {key(e): e for e, _ in breadth_first(p.identity, gens, p.mult, key=key,
                                               cap=budget, name="Schreier transversal")}
    schreier = [p.mult(t, p.inv(rep[key(t)])) for t in
                (p.mult(e, s) for e in rep.values() for s in gens)]
    return InducedSequence.from_generators(pres, [g for g in schreier if any(g)])


def intersect_finite_index(pres, seqs, budget=1_000_000):
    """Intersection of finitely many finite-index subgroups."""
    fns = [s.coset_rep for s in seqs]
    return schreier_kernel(pres, fns, budget)
