"""Finite extensions of nilpotent groups: explicit action-plus-cocycle
arithmetic, decomposition of twisted classes into kernel classes under
one twist per coset, the assembled conjugacy decision, and union
separation through normal cores.

An extension G of the kernel N by r coset representatives s_0..s_{r-1}
(s_0 the identity coset) is described by one automorphism of N per
representative (conjugation by s_i) and a cocycle table s_i s_j =
n_{ij} s_{k(i,j)}. Elements are pairs (n, i) meaning n * s_i.

The constructor checks once that these tables are extension data, so the
rest is read from them: conjugation on N by s_c is actions[c], and an
automorphism of G is checked on G's defining relations only.
"""

from dataclasses import dataclass
import itertools
import math

from .errors import BudgetExceededError, ValidationError
from .groups import free_abelian, heisenberg, heisenberg_automorphism
from .malcev import (GroupHom, _ball_distances, breadth_first, compose_with_inner,
                     identity_automorphism, verify_hom)
from .subgroups import diagonal_kernel, intersect_finite_index
from .quotients import depth_scan
from .twisted import TwistedWitness, is_twisted_conjugate

STABILIZE_ROUNDS = 6
UNION_ORDER_BUDGET = 20000


@dataclass(frozen=True)
class ExtElement:
    n: tuple
    coset: int


class FiniteExtension:
    def __init__(self, kernel, actions, cocycle):
        """actions: list of GroupHom automorphisms of the kernel, one per
        coset rep, actions[0] the identity. cocycle: {(i, j): (k, n)} with
        s_i s_j = n * s_k; missing pairs default inside the identity coset
        rules."""
        self.kernel = kernel
        self.actions = list(actions)
        self.r = len(self.actions)
        self.cocycle = {}
        for i, j in itertools.product(range(self.r), repeat=2):
            if (i, j) not in cocycle and i and j:
                raise ValidationError(f"cocycle entry ({i},{j}) missing")
            k, n = cocycle.get((i, j), (i + j, kernel.identity))
            if k not in range(self.r):
                raise ValidationError(f"cocycle entry ({i},{j}) names no coset")
            self.cocycle[(i, j)] = (k, kernel.check_element(n))
        self._check()

    def _check(self):
        """The axioms of extension data, which make mult a group law: the
        actions are automorphisms, actions[0] the identity; s_0 is a
        two-sided identity and every coset has an inverse coset; s_i s_j =
        n s_k gives actions[i] o actions[j] = Inn(n) o actions[k]; and the
        cocycle is associative on the reps."""
        p = self.kernel
        if self.actions[0] != identity_automorphism(p):
            raise ValidationError("action of the identity coset must be trivial")
        for a in self.actions:
            problems = verify_hom(a, check_automorphism=True)
            if problems:
                raise ValidationError("coset action: " + "; ".join(problems))
        if any(self.cocycle[(0, j)] != (j, p.identity) or self.cocycle[(j, 0)] != (j, p.identity)
               for j in range(self.r)):
            raise ValidationError("s0 must be a two-sided identity of the cocycle")
        # the coset j with s_i s_j in N, per coset i
        self._inverse = [next((j for j in range(self.r) if self.cocycle[(i, j)][0] == 0), None)
                         for i in range(self.r)]
        if None in self._inverse:
            raise ValidationError(f"coset {self._inverse.index(None)} has no inverse coset")
        for (i, j), (k, n) in self.cocycle.items():
            if self.actions[i].compose(self.actions[j]) != \
                    compose_with_inner(p, self.actions[k], n):
                raise ValidationError(f"actions of s{i} s{j} disagree with its cocycle value")
        reps = [self.element(p.identity, i) for i in range(self.r)]
        for a, b, c in itertools.product(reps, repeat=3):
            if self.mult(a, self.mult(b, c)) != self.mult(self.mult(a, b), c):
                raise ValidationError("cocycle fails associativity on reps")

    def element(self, n, coset):
        if coset not in range(self.r):
            raise ValidationError(f"coset {coset} is not one of the {self.r} cosets")
        return ExtElement(self.kernel.check_element(n), coset)

    @property
    def identity(self):
        return ExtElement(self.kernel.identity, 0)

    def mult(self, a, b):
        p = self.kernel
        k, n_ij = self.cocycle[(a.coset, b.coset)]
        n = p.mult(p.mult(a.n, self.actions[a.coset].apply(b.n)), n_ij)
        return ExtElement(n, k)

    def inv(self, a):
        # s_i s_j = n_ij s_0 gives s_i^-1 = s_j n_ij^-1, hence
        # (n s_i)^-1 = s_j n_ij^-1 n^-1 = alpha_j(n_ij^-1 n^-1) s_j
        p = self.kernel
        j = self._inverse[a.coset]
        n_ij = self.cocycle[(a.coset, j)][1]
        return ExtElement(self.actions[j].apply(p.mult(p.inv(n_ij), p.inv(a.n))), j)

    def generators(self):
        p = self.kernel
        gens = [self.element(p.gen(i), 0) for i in range(p.h)]
        gens += [self.element(p.identity, i) for i in range(1, self.r)]
        return gens


class ExtAutomorphism:
    """An automorphism of the extension preserving the kernel: restriction
    to N, a permutation of cosets, and correction elements c_i with
    phi(s_i) = c_i s_{sigma(i)}."""

    def __init__(self, ext, restriction, perm, corrections):
        self.ext = ext
        self.restriction = restriction
        if restriction.domain is not ext.kernel or restriction.codomain is not ext.kernel:
            raise ValidationError("the restriction must act on the extension's kernel")
        self.perm = list(perm)
        self.corrections = [ext.kernel.check_element(c) for c in corrections]
        if self.perm[0] != 0 or self.corrections[0] != ext.kernel.identity:
            raise ValidationError("identity coset must map to itself trivially")
        if sorted(self.perm) != list(range(ext.r)):
            raise ValidationError("coset map must be a permutation")
        problems = verify_hom(restriction, check_automorphism=True)
        if problems:
            raise ValidationError("restriction to the kernel: " + "; ".join(problems))
        self._check()

    def apply(self, g):
        p = self.ext.kernel
        n = p.mult(self.restriction.apply(g.n), self.corrections[g.coset])
        return ExtElement(n, self.perm[g.coset])

    def _check(self):
        """Multiplicativity on G's defining relations, the pairs (s_i, s_j)
        and (s_i, a) for basis generators a of N: the restriction and the
        actions are verified automorphisms, so this holds on all of G."""
        ext = self.ext
        p = ext.kernel
        reps = [ext.element(p.identity, i) for i in range(ext.r)]
        gens = [ext.element(p.gen(i), 0) for i in range(p.h)]
        for a, b in itertools.product(reps, reps + gens):
            if self.apply(ext.mult(a, b)) != ext.mult(self.apply(a), self.apply(b)):
                raise ValidationError("extension automorphism fails multiplicativity")


def ext_identity_automorphism(ext):
    return ExtAutomorphism(ext, identity_automorphism(ext.kernel),
                           list(range(ext.r)), [ext.kernel.identity] * ext.r)


def decompose_twisted_class(ext, phi, x):
    """[x]_phi as a union of parts, one per coset i: pairs (psi_c, x_i) with
    x_i = s_i x phi(s_i)^-1 = n_i s_c and psi_c = actions[c] o phi|N. Every
    g in G is z s_i with z in N, so g x phi(g)^-1 = z x_i phi(z)^-1, and
    as s_c m s_c^-1 = actions[c](m) this is z n_i psi_c(z)^-1 s_c: the part
    is [n_i]_(psi_c) s_c, and its twist does not depend on x."""
    if phi.ext is not ext:
        raise ValidationError("phi is an automorphism of another extension")
    x = ext.element(x.n, x.coset)
    out = []
    for i in range(ext.r):
        s_i = ext.element(ext.kernel.identity, i)
        x_i = ext.mult(ext.mult(s_i, x), ext.inv(phi.apply(s_i)))
        out.append((ext.actions[x_i.coset].compose(phi.restriction), x_i))
    return out


def is_conjugate_virtual(ext, phi, x, y):
    """Decide y ~_phi x in the extension: y lies in the part [n_i]_(psi_c)
    s_c (decompose_twisted_class) iff c is y's coset and n_i ~_(psi_c) y.n
    in N. Returns (True, witness ExtElement) or (False, None); witnesses
    verify exactly."""
    p = ext.kernel
    y = ext.element(y.n, y.coset)
    for i, (psi, x_i) in enumerate(decompose_twisted_class(ext, phi, x)):
        if x_i.coset != y.coset:
            continue
        res = is_twisted_conjugate(p, psi, x_i.n, y.n)
        if isinstance(res, TwistedWitness):
            w = ext.mult(ext.element(res.z, 0), ext.element(p.identity, i))
            if ext.mult(ext.mult(w, x), ext.inv(phi.apply(w))) != y:
                raise ValidationError("virtual witness verification failed")
            return True, w
    return False, None


def ball_ext(ext, n, cap=500_000):
    """Ball of radius n in the extension over kernel standard generators
    plus the nontrivial coset representatives."""
    p = ext.kernel
    gens = [ext.element(g, 0) for g in p.standard_gens()]
    gens += [ext.element(p.identity, i) for i in range(1, ext.r)]
    return _ball_distances(ext, gens, n, cap, "extension ball")


def farb_depth_union(ext, phi, x, y):
    """Separate y from [x]_phi in a finite quotient of the extension,
    assembled from per-part kernel separations.

    G/N separates every part [n_i]_(psi_c) s_c (decompose_twisted_class)
    outside y's coset c. The parts in c share the twist psi_c, so one depth
    scan up to order UNION_ORDER_BUDGET takes a block (n_i, y.n) per part
    and also decides it; a conjugate part means y ~_phi x and raises. A
    part's depths are those of (1, y.n n_i^-1) under Inn(n_i) o psi_c, its
    class translated to the identity: for K normal in N, right translation
    by n_i is a bijection of N/K that maps [1]_(Inn(n_i) psi_c) K onto
    [n_i]_(psi_c) K (z n_i psi_c(z)^-1 n_i^-1 goes to z n_i psi_c(z)^-1)
    and y.n n_i^-1 K onto y.n K, so every kernel separates the one pair
    exactly when it separates the other.

    The scans' kernels are intersected (N itself stands in when no part
    lies in c) and then with their images under the coset action and phi
    until stable, giving a normal, phi-invariant kernel K. An image has the
    same index, so only a round in which some automorphism moves a
    generator out of the kernel builds images and intersects them through
    a Schreier transversal. The separation is re-verified by orbit
    enumeration in G/K over the moves of G's generators: each permutes
    that finite set, so its inverse is a positive power of it.

    The scanned kernels are intersected in closed form. A stable kernel
    K(m) is D(m) = {g : m_i | g_i for all i} (diagonal_kernel has the
    proof), so K(m) meet K(m') = D(l) with l = lcm(m, m') coordinatewise.
    D(l) is normal and holds every conjugate of an a_i^(l_i), so l passes
    diagonal_kernel's test and is stable; the canonical induced sequence
    is unique, so diagonal_kernel(l) is what a Schreier transversal gives.

    Returns a dict with the combined quotient order, per-part orders, and
    the product bound the combined order is compared against.
    """
    p = ext.kernel
    y = ext.element(y.n, y.coset)
    parts = decompose_twisted_class(ext, phi, x)
    scanned = depth_scan(p, ext.actions[y.coset].compose(phi.restriction),
                         [(x_i.n, y.n) for _, x_i in parts if x_i.coset == y.coset],
                         UNION_ORDER_BUDGET)
    if any(res.conjugate for res in scanned):
        raise ValidationError("x and y are conjugate; nothing to separate")
    if not all(res.separated for res in scanned):
        raise BudgetExceededError("no separating congruence quotient for a part",
                                  budget="order budget", limit=UNION_ORDER_BUDGET)
    orders = iter(res.order for res in scanned)
    part_orders = [next(orders) if x_i.coset == y.coset else ext.r for _, x_i in parts]
    combined = diagonal_kernel(p, [math.lcm(*ms) for ms in
                                   zip((1,) * p.h, *(res.moduli for res in scanned))])
    if combined is None:
        raise ValidationError("the lcm of stable moduli is not stable")
    # actions[0] is the identity (FiniteExtension._check)
    autos = ext.actions[1:] + [phi.restriction]
    for _ in range(STABILIZE_ROUNDS):
        # a(K) has K's index, so a keeps K exactly when a(K) <= K
        moved = [a for a in autos
                 if not all(combined.contains(a.apply(g)) for g in combined.generators())]
        if not moved:
            break
        combined = intersect_finite_index(p, [combined] + [combined.conjugated(a) for a in moved])
    else:
        raise BudgetExceededError("core stabilization did not converge",
                                  budget="stabilization rounds", limit=STABILIZE_ROUNDS)
    order = combined.index() * ext.r
    canon = lambda g: ExtElement(combined.coset_rep(g.n), g.coset)
    moves = [(g, ext.inv(phi.apply(g))) for g in ext.generators()]
    orbit = breadth_first(canon(x), moves,
                          lambda e, uv: canon(ext.mult(ext.mult(uv[0], e), uv[1])),
                          cap=order, name="orbit in the combined quotient")
    target = canon(y)
    try:
        separated = all(t != target for t, _ in orbit)
    except BudgetExceededError as exc:
        raise ValidationError("orbit escaped the quotient order") from exc
    if not separated:
        raise ValidationError("combined quotient failed to separate")
    return {
        "order": order,
        "part_orders": part_orders,
        "product_bound": math.prod(part_orders) ** ext.r,
        "moduli": [combined.entries[i][i] for i in range(p.h)] if scanned else None,
    }


# -- built-in example extensions ----------------------------------------------


def z_semidirect_c2():
    """Z x| C2 with the inversion action (the infinite dihedral group)."""
    Z = free_abelian(1)
    inv_auto = GroupHom(Z, Z, [(-1,)])
    return FiniteExtension(Z, [identity_automorphism(Z), inv_auto],
                           {(1, 1): (0, Z.identity)})


def heisenberg_semidirect_c2():
    """H3 x| C2 where the involution negates x and y and fixes z."""
    H = heisenberg()
    neg = heisenberg_automorphism(H, [[-1, 0], [0, -1]])
    return FiniteExtension(H, [identity_automorphism(H), neg],
                           {(1, 1): (0, H.identity)})
