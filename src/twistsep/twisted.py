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
from .malcev import GroupHom, compose_with_inner, inner_automorphism, product_of_powers
from .subgroups import InducedSequence, power_subgroup


# at most this many chain levels are memoised per presentation; the CI rows
# read at most 856 (ut4's 6-ball under the identity)
MEMO_LEVELS = 4096


@dataclass
class ChainLevel:
    level: int
    seq: InducedSequence          # the twisted centralizer at this level
    psi_rows: list                # psi values of the sequence generators
    image: lin.Lattice            # image lattice of psi in the layer

    @cached_property
    def determinant(self):
        """The isolator index of the image; built on first use."""
        return lin.isolator_index(self.image)

    @cached_property
    def preimage(self):
        """target -> the coefficients on the generators whose psi value is
        target, or None; built on first use, once per level."""
        return lin.solver(lin.transpose(self.psi_rows))

    @cached_property
    def next_subgroup(self):
        """N_(i+1): the kernel of the stacked psi map of this level i, closed
        under commutators and conjugation by N_i; built on first use."""
        p = self.seq.pres
        gens = self.seq.generators()
        t = len(gens)
        kern = lin.kernel_basis(lin.transpose(self.psi_rows))
        new_gens = [product_of_powers(p, gens, v) for v in kern.rows]
        for a in range(t):
            for b in range(a + 1, t):
                cgen = p.comm(gens[a], gens[b])
                if any(cgen):
                    new_gens.append(cgen)
        return InducedSequence.from_generators(p, new_gens, conjugators=gens)


def _build_level(pres, maps, level, seq):
    """The level of the joint chain of maps whose twisted centralizer is seq."""
    rows = []
    for g in seq.generators():
        row = []
        for d in (pres.mult(g, pres.inv(m.apply(g))) for m in maps):
            w = pres.weight_of(d)
            if w is not None and w < level:
                raise TwistsepError("chain generator displacement is too shallow")
            row.extend(pres.layer_coords(d, level))
        rows.append(row)
    image = lin.Lattice.from_rows(pres.layer_rank(level) * len(maps), rows)
    return ChainLevel(level, seq, rows, image)


def twist_level(pres, phi, g, w):
    """Level w of the joint chain of the twists Inn(g) o m, m in phi (one
    automorphism or a list). It depends only on g cut to its coordinates of
    weight below w (_walk has the cut lemma), so it is memoised per
    presentation by phi's images, that cut and w, up to MEMO_LEVELS levels;
    a new level evicts the oldest. A new level's N_w is seeded from level
    w - 1 read for g cut below w - 1: the two cuts differ by h in
    gamma_(w-1), so their chains share N_i and psi_i for i <= w - 1, hence
    N_w, exactly, since equal subgroups have equal canonical sequences.
    N_1 is the whole group."""
    maps = [phi] if isinstance(phi, GroupHom) else phi
    if not 1 <= w <= pres.nilpotency_class:
        raise ValidationError("chain level out of range")
    g = tuple(a if wt < w else 0 for a, wt in zip(g, pres.weights))
    memo = pres.__dict__.setdefault("_twist_levels", {})
    key = (tuple(tuple(m.images) for m in maps), g, w)
    if key not in memo:
        seq = (twist_level(pres, maps, g, w - 1).next_subgroup if w > 1 else
               InducedSequence(pres, {i: pres.gen(i) for i in range(pres.h)}))
        lv = _build_level(pres, [compose_with_inner(pres, m, g) for m in maps], w, seq)
        if len(memo) >= MEMO_LEVELS:
            del memo[next(iter(memo))]
        memo[key] = lv
    return memo[key]


class TwistedChain:
    """The descending chain N_1 >= N_2 >= ... >= N_{c+1} for one or several
    automorphisms (several maps give joint displacement chains, used for
    centralizers and centers; determinants are per-map only for a single
    automorphism): a view on the levels twist_level memoises, at the
    identity cut. Each level is built when first read; levels, fixed and
    determinants read the whole chain."""

    def __init__(self, pres, maps):
        self.pres = pres
        self.maps = [maps] if isinstance(maps, GroupHom) else maps

    def level(self, i):
        return twist_level(self.pres, self.maps, self.pres.identity, i)

    def subgroup(self, i):
        """N_i as an induced sequence; i may be c+1 for the fixed subgroup."""
        return self.fixed if i == self.pres.nilpotency_class + 1 else self.level(i).seq

    @property
    def levels(self):
        return [self.level(i) for i in range(1, self.pres.nilpotency_class + 1)]

    @property
    def fixed(self):
        """N_{c+1}: the common fixed subgroup."""
        return self.level(self.pres.nilpotency_class).next_subgroup

    def determinants(self):
        if len(self.maps) != 1:
            raise ValidationError("determinants need a single automorphism")
        ds = [lv.determinant for lv in self.levels]
        return ds, math.prod(ds)


def twisted_chain(pres, phi):
    """The chain of a single automorphism."""
    return TwistedChain(pres, phi)


def center(pres):
    """Z(N) as an induced sequence, via the joint chain of all inner
    automorphisms of basis generators."""
    maps = [inner_automorphism(pres, pres.gen(i)) for i in range(pres.h)]
    return TwistedChain(pres, maps).fixed


def psi(pres, phi, i, x):
    """psi_{phi,i}(x): layer-i coordinates of x phi(x)^-1. Raises when x is
    not in the i-th twisted centralizer."""
    chain = twisted_chain(pres, phi)
    if not chain.subgroup(i).contains(x):
        raise PreconditionError("element is not in the i-th twisted centralizer",
                                reason="membership")
    d = pres.mult(x, pres.inv(phi.apply(x)))
    return pres.layer_coords(d, i)


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
    """The one layer loop of canonical_form and is_twisted_conjugate. It
    builds u, with cur = u x phi(u)^-1, through the layers w = 1..c. At w,
    with t cur's layer-w coordinates and L_w the psi_w image of cur's twist,
    it aims at a goal: L_w.reduce(t) for a form, y's layer-w coordinates
    for a decision. A step takes z in N_w with psi_w(z) = goal - t and sets
    u <- z u, so cur keeps its layers below w and reaches the goal at w.
    A zero layer of a form, and a decision's layer already at its goal,
    read no level.

    By canonical_form's proof the class elements that agree with cur below
    w fill t + L_w at layer w, and L_w is a class invariant. y agrees with
    cur below w, by induction, so y is reachable at w exactly when
    goal - t lies in L_w. If not, the certificate (w, goal - t reduced
    modulo L_w, and L_w's rows) depends only on x's class and y, as t + L_w
    and L_w do. A decision ends at cur = y and returns the witness u.

    Level w of cur's twist is read from the chain of cur cut to its
    coordinates of weight below w (twist_level). The cut keeps the level:
    for h in gamma_w, Inn(g h) o phi = Inn(k) o phi_g with k = g h g^-1 in
    gamma_w, and Inn(k) moves every element by a factor in gamma_(w+1), so
    the displacements b phi_g(b)^-1 and b phi_gh(b)^-1 agree modulo
    gamma_(w+1), and with them N_i and psi_i for every i <= w."""
    p, u, cur = pres, pres.identity, x
    for w in range(1, p.nilpotency_class + 1):
        t, lv = tuple(cur[i] for i in p.layer_indices(w)), None
        if y is not None:
            goal = tuple(y[i] for i in p.layer_indices(w))
        else:  # a zero t is reduced already, so its level is not read
            goal = (lv := twist_level(p, phi, cur, w)).image.reduce(t) if any(t) else t
        if goal == t:
            continue
        lv = lv or twist_level(p, phi, cur, w)
        d = [a - b for a, b in zip(goal, t)]
        if (v := lv.preimage(d)) is None:
            return NotTwistedConjugate(w, lv.image.reduce(d), lv.image.rows)
        u = p.mult(product_of_powers(p, lv.seq.generators(), v), u)
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


# -- Blackburn machinery ------------------------------------------------------


def blackburn_constants(p, c):
    """k(p,c) = sum over i <= c of the largest e with p^e <= i, and
    k*(p,c) = (c-1) k(p,c). Also certifies p^k(p,c) <= c!."""
    if _prime_power(p) != (p, 1):
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


def _prime_power(n):
    """(p, k) with n = p^k for a prime p, or None when n is not a prime
    power; None for every n < 2."""
    if n < 2:
        return None
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    k = _vp(n, p)
    return (p, k) if n == p ** k else None


def _vector_valuation(g, p):
    """min p-adic valuation over nonzero coordinates; None for identity."""
    vals = [_vp(e, p) for e in g if e]
    return min(vals) if vals else None


def solve_power_twisted(pres, phi, p, k, x):
    """Find y in the level-p^k congruence kernel with the same displacement
    as x, assuming the displacement of x lies in the congruence kernel of
    level p^(k + k*(p,c) + v_p(D_phi)).

    Follows the inductive proof shape but lifts by coordinates: at each
    layer w the displacement's p-depth is measured, one determinant's
    worth of p-valuation is spent to pull the class back with p-power
    control, and the class is realised in the twisted centralizer N_w as
    u = prod g_t^(p^j c_t), the g_t generating N_w and j the depth less
    v_p(det_w).

    How far u is proved to lie in K(p^k) = {g : p^k | g_i}, a group since
    power_subgroup(p^k) is stable. Coordinate i of g^n is an integer-valued
    polynomial in n of degree at most c with no constant term, so a sum of
    a_d C(n, d) over 1 <= d <= c with integer a_d, and C(p^m, d) is 0 or
    has valuation m - v_p(d). So p^(m - floor(log_p c)) divides every
    coordinate of g^(p^m), and u lies in K(p^k) once j >= k + floor(log_p c),
    in particular once j >= k + k(p,c), whose i = c term is floor(log_p c).
    At the first layer the precondition gives j >= k + k*(p,c) + v_p(D) -
    v_p(det_w) >= k + (c - 1) k(p,c), since D is the product of the levels'
    determinants; that suffices for c >= 2, and for c = 1 floor(log_p 1)
    is 0. A later layer starts from the displacement u^-1 w phi(u), and
    this argument does not bound its depth by k + floor(log_p c) +
    v_p(det_w). So the final membership check stays, and a part outside
    K(p^k) ends in that check's typed failure.
    """
    pres.check_element(x)
    c = pres.nilpotency_class
    _, k_star = blackburn_constants(p, c)
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
    x_cur, y = x, pres.identity
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
        u = product_of_powers(pres, lv.seq.generators(), coeffs)
        y = pres.mult(y, u)
        x_cur = pres.mult(pres.inv(u), x_cur)
    else:
        raise TwistsepError("power twisted solver did not terminate")
    if pres.mult(y, pres.inv(phi.apply(y))) != disp:
        raise TwistsepError("solver output failed the displacement equation")
    if not target_seq.contains(y):
        raise TwistsepError("solver output escaped the level-p^k congruence kernel")
    return y
