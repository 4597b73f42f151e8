"""Twisted centralizer chains, twisted determinants, the twisted conjugacy
decision procedure, and the constructive p-power solvers.

For an automorphism phi of a class-c group N, the i-th twisted centralizer
is N_i = {x : x phi(x)^-1 in gamma_i(N)}, and psi_i : N_i -> layer_i sends
x to the layer-i coordinates of its displacement x phi(x)^-1. Each psi_i
is a homomorphism with kernel N_{i+1}, so the chain is computed by
iterated integer kernel calculations; the displacement image at the top
layer is the central subgroup controlling twisted conjugacy of centrally
deformed elements.
"""

from dataclasses import dataclass
from functools import cached_property
import math

from .errors import PreconditionError, TwistsepError, ValidationError
from . import lattice as lin
from .malcev import (GroupHom, breadth_first, compose_with_inner, inner_automorphism,
                     root, word_length_upper)
from .subgroups import InducedSequence, power_subgroup


def _realize_class(pres, gens, coeffs):
    g = pres.identity
    for gen, e in zip(gens, coeffs):
        if e:
            g = pres.mult(g, pres.pow(gen, e))
    return g


@dataclass
class ChainLevel:
    level: int
    seq: InducedSequence          # the twisted centralizer at this level
    psi_rows: list                # psi values of the sequence generators
    image: lin.Lattice            # image lattice of psi in the layer
    determinant: int              # isolator index of the image

    @cached_property
    def preimage(self):
        """target -> the coefficients on the generators whose psi value is
        target, or None; built on first use, once per level."""
        return lin.solver(lin.transpose(self.psi_rows))


class TwistedChain:
    """The descending chain N_1 >= N_2 >= ... >= N_{c+1} for one or several
    automorphisms (several maps give joint displacement chains, used for
    centralizers and centers; determinants are per-map only for a single
    automorphism).

    Levels are built on demand: level(i) builds N_i and its psi rows, and
    N_{i+1} is closed from level i's kernel only when level i+1 or fixed
    is read. levels, fixed, determinants and norm_report force the whole
    chain."""

    def __init__(self, pres, maps):
        if isinstance(maps, GroupHom):
            maps = [maps]
        self.pres = pres
        self.maps = maps
        self._seqs = {1: InducedSequence(pres, {i: pres.gen(i) for i in range(pres.h)})}
        self._levels = {}

    def _build_level(self, level):
        p = self.pres
        seq = self.subgroup(level)
        r = p.layer_rank(level)
        rows = []
        for g in seq.generators():
            row = []
            for d in (p.mult(g, p.inv(m.apply(g))) for m in self.maps):
                w = p.weight_of(d)
                if w is not None and w < level:
                    raise TwistsepError(
                        "chain generator displacement is too shallow")
                row.extend(p.layer_coords(d, level))
            rows.append(row)
        image = lin.Lattice.from_rows(r * len(self.maps), rows)
        return ChainLevel(level, seq, rows, image, lin.isolator_index(image))

    def _close_kernel(self, lv):
        """N_{i+1}: the kernel of the stacked psi map of level i, closed
        under commutators and conjugation by N_i."""
        p = self.pres
        gens = lv.seq.generators()
        t = len(gens)
        kern = lin.kernel_basis(lin.transpose(lv.psi_rows))
        new_gens = [_realize_class(p, gens, v) for v in kern.rows]
        for a in range(t):
            for b in range(a + 1, t):
                cgen = p.comm(gens[a], gens[b])
                if any(cgen):
                    new_gens.append(cgen)
        return InducedSequence.from_generators(p, new_gens, conjugators=gens)

    def level(self, i):
        if not 1 <= i <= self.pres.nilpotency_class:
            raise ValidationError("chain level out of range")
        if i not in self._levels:
            self._levels[i] = self._build_level(i)
        return self._levels[i]

    def subgroup(self, i):
        """N_i as an induced sequence; i may be c+1 for the fixed subgroup."""
        if i not in self._seqs:
            self._seqs[i] = self._close_kernel(self.level(i - 1))
        return self._seqs[i]

    @property
    def levels(self):
        return [self.level(i) for i in range(1, self.pres.nilpotency_class + 1)]

    @property
    def fixed(self):
        """N_{c+1}: the common fixed subgroup."""
        return self.subgroup(self.pres.nilpotency_class + 1)

    def determinants(self):
        if len(self.maps) != 1:
            raise ValidationError("determinants need a single automorphism")
        ds = [lv.determinant for lv in self.levels]
        return ds, math.prod(ds)

    def norm_report(self):
        """Constructive word-length upper bounds for each level's
        generating sequence (the labelled upper bound for ||N_i||)."""
        out = []
        for lv in self.levels:
            gens = lv.seq.generators()
            bound = max((word_length_upper(self.pres, g) for g in gens), default=0)
            out.append({"level": lv.level, "num_gens": len(gens), "norm_upper": bound})
        return out


def twisted_chain(pres, phi):
    """The chain for a single automorphism, memoised on the presentation by
    the tuple of generator images (chains are pure functions of those). The
    memo holds 512 chains; a new one evicts the oldest."""
    cache = pres.__dict__.setdefault("_chain_cache", {})
    key = tuple(phi.images)
    if key not in cache:
        if len(cache) >= 512:
            del cache[next(iter(cache))]
        cache[key] = TwistedChain(pres, phi)
    return cache[key]


def twist_level(pres, phi, g, w):
    """Level w of the chain of phi_g = Inn(g) o phi. An inner automorphism
    acts trivially on every layer gamma_i/gamma_(i+1), so phi_g has phi's
    psi_1 and hence phi's N_2: level 1, and every level when g is the
    identity, is read from phi's chain, and phi_g's N_2 is seeded from it,
    exactly, since equal subgroups have equal canonical sequences."""
    base = twisted_chain(pres, phi)
    if w == 1 or not any(g):
        return base.level(w)
    chain = twisted_chain(pres, compose_with_inner(pres, phi, g))
    chain._seqs.setdefault(2, base.subgroup(2))
    return chain.level(w)


def center(pres):
    """Z(N) as an induced sequence, via the joint chain of all inner
    automorphisms of basis generators."""
    maps = [inner_automorphism(pres, pres.gen(i)) for i in range(pres.h)]
    return TwistedChain(pres, maps).fixed


def fixed_subgroup(pres, phi):
    return twisted_chain(pres, phi).fixed


def psi(pres, phi, i, x):
    """psi_{phi,i}(x): layer-i coordinates of x phi(x)^-1. Raises when x is
    not in the i-th twisted centralizer."""
    chain = twisted_chain(pres, phi)
    if not chain.subgroup(i).contains(x):
        raise PreconditionError("element is not in the i-th twisted centralizer",
                                reason="membership")
    d = pres.mult(x, pres.inv(phi.apply(x)))
    return pres.layer_coords(d, i)


def twisted_subgroup(pres, phi):
    """N_phi: the image of psi at the top layer, as a lattice in the
    layer-c coordinates."""
    chain = twisted_chain(pres, phi)
    return chain.level(pres.nilpotency_class).image


def twisted_determinant(pres, phi):
    return twisted_chain(pres, phi).determinants()


@dataclass
class TwistedWitness:
    z: tuple
    x: tuple
    y: tuple

    def verify(self, pres, phi):
        return pres.mult(pres.mult(self.z, self.x), pres.inv(phi.apply(self.z))) == self.y


@dataclass
class NotTwistedConjugate:
    level: int
    obstruction: tuple   # escaped layer coordinates, reduced modulo the psi image
    image_rows: list


def _walk(pres, phi, x, y=None):
    """The one layer loop of is_twisted_conjugate and canonical_form. It
    builds a conjugator u, with cur = u x phi(u)^-1, through the layers
    w = 1..c, each step solving for a preimage of the layer's target in
    level w of a twist's chain (twist_level). A layer whose coordinates
    are zero reads no level, and a zero target costs no solve.

    Towards y: z x phi(z)^-1 = y exactly when z phi_x(z)^-1 = y x^-1, for
    the one twist phi_x = Inn(x) o phi. The target is the layer-w part of
    the residual y cur^-1. A step takes z in N_w(phi_x) with psi_w(z) the
    target, an exact lattice condition, and sets u <- u z. Then g = u z u^-1
    lies in N_w of cur's twist phi_cur = Inn(u) o phi_x o Inn(u)^-1 with the
    same psi value, as conjugation fixes the layer, and g cur phi(g)^-1 =
    u z x phi(u z)^-1: the step keeps cur's layers below w and adds the
    target to its layer w, which cancels the residual's. Any other solution
    differs by N_(w+1)(phi_x), which changes no later verdict, so a target
    outside the psi_w image gives a NotTwistedConjugate certificate. The
    residual is the one of the decision that steps by z^-1 d phi_x(z) from
    d = y x^-1, conjugated by u, so the same z is taken at every layer. The
    walk ends at cur = y and returns the witness u.

    Without y, the target takes cur's layer-w coordinates t to
    L_w.reduce(t), for L_w the psi_w image of phi_cur, and a step takes z
    in N_w(phi_cur) with psi_w(z) the target and sets u <- z u; the walk
    returns (u, cur). Level w of phi_cur's chain is read from the chain of
    cur cut to its coordinates of weight below w, which are canonical by
    then, so every element of a class shares it. The cut keeps the level:
    for h in gamma_w, Inn(g h) o phi = Inn(k) o phi_g with k = g h g^-1 in
    gamma_w, and Inn(k) moves every element by a factor in gamma_(w+1), so
    the displacements b phi_g(b)^-1 and b phi_gh(b)^-1 agree modulo
    gamma_(w+1), and with them N_i and psi_i for every i <= w."""
    p, u, cur = pres, pres.identity, x
    for w in range(1, p.nilpotency_class + 1):
        e = cur if y is None else p.mult(y, p.inv(cur))
        t = [e[i] for i in p.layer_indices(w)]
        if not any(t):  # nothing to reduce or cancel, so the level is not read
            continue
        if y is not None:  # the target is t
            lv = twist_level(p, phi, x, w)
        else:  # the target takes t to L_w.reduce(t), on the chain of cur cut below w
            lv = twist_level(p, phi, tuple(a if wt < w else 0 for a, wt in zip(cur, p.weights)), w)
            if not any(t := [r - a for r, a in zip(lv.image.reduce(t), t)]):
                continue
        if (v := lv.preimage(t)) is None:
            return NotTwistedConjugate(w, lv.image.reduce(t), lv.image.rows)
        z = _realize_class(p, lv.seq.generators(), v)
        u = p.mult(u, z) if y is not None else p.mult(z, u)
        cur = p.mult(p.mult(u, x), p.inv(phi.apply(u)))
    if y is not None and cur != y:  # cur is u x phi(u)^-1, so this verifies the witness
        raise TwistsepError("internal witness verification failed")
    return (u, cur) if y is None else TwistedWitness(u, x, y)


def is_twisted_conjugate(pres, phi, x, y):
    """Decide x ~_phi y by the walk towards y (_walk). Returns a
    TwistedWitness (verified exactly) or a NotTwistedConjugate certificate."""
    return _walk(pres, phi, pres.check_element(x), pres.check_element(y))


def canonical_form(pres, phi, x):
    """(u, form) with form = u x phi(u)^-1 the canonical representative of
    x's twisted class: form(x) = form(y) exactly when x ~_phi y, and then
    u_y^-1 u_x is a witness. The walk without y reduces cur layer by layer.

    Proof. Let e be a class element. The class elements that agree with e
    on the layers below w are the g e phi(g)^-1 = g phi_e(g)^-1 e for g in
    N_w(phi_e), and as g phi_e(g)^-1 lies in gamma_w, their layer-w
    coordinates fill t + L_w, for t those of e and L_w the psi_w image of
    phi_e's chain. The walk's step at w is such a g, so it keeps the layers
    below w and takes t to L_w.reduce(t), the one representative of
    t + L_w. L_w is a class invariant: the twist of g e phi(g)^-1 is
    Inn(g) o phi_e o Inn(g)^-1, whose N_w is g N_w(phi_e) g^-1, and
    conjugation fixes the layer, so psi_w(g h g^-1) = psi_w(h). So two
    class elements that agree below w reduce to the same layer-w
    coordinates, and by induction on w they reach the same form; elements
    of different classes cannot, since each is conjugate to its form."""
    return _walk(pres, phi, pres.check_element(x))


def bounded_witness(pres, phi, y):
    """A witness x with x phi(x)^-1 = y, plus a constructive norm report.
    Raises when y is not a twisted displacement at all."""
    res = is_twisted_conjugate(pres, phi, pres.identity, y)
    if isinstance(res, NotTwistedConjugate):
        raise PreconditionError("y is not of the form x phi(x)^-1",
                                reason="membership")
    x = res.z
    report = {
        "witness": x,
        "norm_upper": word_length_upper(pres, x),
        "y_norm_upper": word_length_upper(pres, y),
    }
    return x, report


# -- Blackburn machinery ------------------------------------------------------


def _is_prime(n):
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


def blackburn_constants(p, c):
    """k(p,c) = sum over i <= c of the largest e with p^e <= i, and
    k*(p,c) = (c-1) k(p,c). Also certifies p^k(p,c) <= c!."""
    if not _is_prime(p):
        raise ValidationError(f"{p} is not prime")
    k = 0
    for i in range(1, c + 1):
        e = 0
        while p ** (e + 1) <= i:
            e += 1
        k += e
    k_star = (c - 1) * k
    if p ** k > math.factorial(c):
        raise TwistsepError("certified bound p^k <= c! failed")
    return k, k_star


def _vp(n, p):
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _vector_valuation(g, p):
    """min p-adic valuation over nonzero coordinates; None for identity."""
    vals = [_vp(e, p) for e in g if e]
    return min(vals) if vals else None


def blackburn_root(pres, p, k, x):
    """The p^k-th root of x, for x in the level-p^(k+k(p,c)) congruence
    kernel. Membership is the precondition; existence of the root then
    follows and the returned equation is verified exactly."""
    kc, _ = blackburn_constants(p, pres.nilpotency_class)
    level = p ** (k + kc)
    member = power_subgroup(pres, level).contains(x)
    if not member:
        raise PreconditionError(
            f"x is not in the congruence kernel of level p^(k + k(p,c)) = {level}",
            reason="membership")
    y = root(pres, x, p ** k)
    if y is None:
        raise TwistsepError("guaranteed root does not exist; arithmetic bug")
    if pres.pow(y, p ** k) != x:
        raise TwistsepError("root verification failed")
    return y


def _deepen_into_congruence(pres, u, next_seq, level, budget=200_000):
    """Find eta in next_seq with u*eta in the level-congruence kernel K, by
    a breadth-first search over the cosets K*u*eta (K is normal, so they
    follow the cosets K*eta). Returns u*eta, or None when no eta exists;
    raises BudgetExceededError past budget cosets."""
    K = power_subgroup(pres, level)
    gens = next_seq.generators()
    walk = breadth_first(u, gens + [pres.inv(g) for g in gens], pres.mult,
                         key=K.coset_rep, cap=budget, name="congruence deepening search")
    for t, first, _ in walk:
        if first is None and K.contains(t):
            return t
    return None


def solve_power_twisted(pres, phi, p, k, x):
    """Find y in the level-p^k congruence kernel with the same displacement
    as x, assuming the displacement of x lies in the congruence kernel of
    level p^(k + k*(p,c) + v_p(D_phi)).

    Follows the inductive proof shape but lifts by coordinates: at each
    layer the displacement's p-depth is measured, one determinant's worth
    of p-valuation is spent to pull the class back with p-power control,
    and the class is realised inside the twisted centralizer with a
    repair step that pushes the realisation into the congruence kernel
    without changing its psi value.
    """
    pres.check_element(x)
    c = pres.nilpotency_class
    kc, k_star = blackburn_constants(p, c)
    chain = twisted_chain(pres, phi)
    _, D = chain.determinants()
    vD = _vp(D, p)
    budget = k + k_star + vD
    disp = pres.mult(x, pres.inv(phi.apply(x)))
    val = _vector_valuation(disp, p)
    if val is not None and val < budget:
        raise PreconditionError(
            f"displacement valuation {val} is below k + k*(p,c) + v_p(D) = {budget}",
            reason=f"divisibility at level p^{budget}")
    target_seq = power_subgroup(pres, p ** k)
    x_cur = x
    parts = []
    for _ in range(c + 1):
        w = pres.mult(x_cur, pres.inv(phi.apply(x_cur)))
        if w == pres.identity:
            break
        wt = pres.weight_of(w)
        lv = chain.level(wt)
        b = list(pres.layer_coords(w, wt))
        depth = _vector_valuation(w, p)
        vd = _vp(lv.determinant, p)
        j = max(depth - vd, 0)
        vv = lv.preimage([e // p ** j for e in b])
        if vv is None:
            raise TwistsepError("psi class pullback failed; displacement escaped the image")
        coeffs = [p ** j * e for e in vv]
        u = _realize_class(pres, lv.seq.generators(), coeffs)
        if not target_seq.contains(u):
            next_seq = chain.subgroup(wt + 1)
            fixed = _deepen_into_congruence(pres, u, next_seq, p ** k)
            if fixed is None:
                raise TwistsepError(
                    "could not realise the pullback class inside the congruence kernel")
            u = fixed
        parts.append(u)
        x_cur = pres.mult(pres.inv(u), x_cur)
    else:
        raise TwistsepError("power twisted solver did not terminate")
    y = pres.identity
    for u in parts:
        y = pres.mult(y, u)
    if pres.mult(y, pres.inv(phi.apply(y))) != disp:
        raise TwistsepError("solver output failed the displacement equation")
    if not target_seq.contains(y):
        raise TwistsepError("solver output escaped the level-p^k congruence kernel")
    return y
