"""Finite extensions of nilpotent groups: explicit action-plus-cocycle
arithmetic, decomposition of twisted classes into translated kernel
classes, the assembled conjugacy decision, and union separation through
normal cores.

An extension G of the kernel N by r coset representatives s_1..s_r
(s_1 the identity coset) is described by one automorphism of N per
representative (conjugation by s_i) and a cocycle table s_i s_j =
n_{ij} s_{k(i,j)}. Elements are pairs (n, i) meaning n * s_i.
"""

from dataclasses import dataclass
import random

from .errors import BudgetExceededError, ValidationError
from .groups import free_abelian, heisenberg, heisenberg_automorphism
from .malcev import (GroupHom, _ball_distances, breadth_first, identity_automorphism,
                     verify_hom)
from .subgroups import diagonal_kernel, intersect_finite_index
from .quotients import congruence_depth
from .twisted import TwistedWitness, is_twisted_conjugate


@dataclass(frozen=True)
class ExtElement:
    n: tuple
    coset: int


class FiniteExtension:
    def __init__(self, kernel, actions, cocycle, rep_names=None):
        """actions: list of GroupHom automorphisms of the kernel, one per
        coset rep, actions[0] the identity. cocycle: {(i, j): (k, n)} with
        s_i s_j = n * s_k; missing pairs default inside the identity coset
        rules."""
        self.kernel = kernel
        self.actions = list(actions)
        self.r = len(self.actions)
        self.rep_names = rep_names or [f"s{i}" for i in range(self.r)]
        self.cocycle = {}
        for i in range(self.r):
            for j in range(self.r):
                if (i, j) in cocycle:
                    k, n = cocycle[(i, j)]
                    self.cocycle[(i, j)] = (k, kernel.check_element(n))
                elif i == 0:
                    self.cocycle[(i, j)] = (j, kernel.identity)
                elif j == 0:
                    self.cocycle[(i, j)] = (i, kernel.identity)
                else:
                    raise ValidationError(f"cocycle entry ({i},{j}) missing")
        self._check()

    def _check(self):
        p = self.kernel
        id0 = self.actions[0]
        for i in range(p.h):
            if id0.apply(p.gen(i)) != p.gen(i):
                raise ValidationError("action of the identity coset must be trivial")
        for i in range(self.r):
            if not any(self.cocycle[(i, j)][0] == 0 for j in range(self.r)):
                raise ValidationError(f"coset {i} has no inverse coset")
        for i in range(self.r):
            for j in range(self.r):
                for k in range(self.r):
                    a = self.mult(self.element(p.identity, i),
                                  self.mult(self.element(p.identity, j),
                                            self.element(p.identity, k)))
                    b = self.mult(self.mult(self.element(p.identity, i),
                                            self.element(p.identity, j)),
                                  self.element(p.identity, k))
                    if a != b:
                        raise ValidationError("cocycle fails associativity on reps")

    def element(self, n, coset):
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
        for j in range(self.r):
            k, n_ij = self.cocycle[(a.coset, j)]
            if k == 0:
                n_part = self.actions[j].apply(p.mult(p.inv(n_ij), p.inv(a.n)))
                return ExtElement(n_part, j)
        raise ValidationError("no inverse coset; cocycle is not a group")

    def conj(self, g, by):
        return self.mult(self.mult(by, g), self.inv(by))

    def conjugation_on_kernel(self, g):
        """Conjugation by a group element restricted to N, as a GroupHom."""
        p = self.kernel
        images = []
        for i in range(p.h):
            img = self.conj(self.element(p.gen(i), 0), g)
            if img.coset != 0:
                raise ValidationError("kernel is not normal under the cocycle data")
            images.append(img.n)
        return GroupHom(p, p, images)

    def in_kernel(self, g):
        return g.coset == 0

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
        ext = self.ext
        p = ext.kernel
        rng = random.Random(11)
        samples = [ext.element(p.identity, i) for i in range(ext.r)]
        samples += [ext.element(p.gen(i), 0) for i in range(p.h)]
        for _ in range(10):
            samples.append(ext.element(
                tuple(rng.randint(-3, 3) for _ in range(p.h)), rng.randrange(ext.r)))
        for a in samples:
            for b in samples:
                if self.apply(ext.mult(a, b)) != ext.mult(self.apply(a), self.apply(b)):
                    raise ValidationError("extension automorphism fails multiplicativity")


def ext_identity_automorphism(ext):
    return ExtAutomorphism(ext, identity_automorphism(ext.kernel),
                           list(range(ext.r)), [ext.kernel.identity] * ext.r)


def decompose_twisted_class(ext, phi, x):
    """[x]_phi as a union of translated kernel twisted classes: pairs
    (f_i after the restriction of phi, translate x_i) with
    x_i = s_i x phi(s_i)^-1."""
    p = ext.kernel
    out = []
    for i in range(ext.r):
        s_i = ext.element(p.identity, i)
        x_i = ext.mult(ext.mult(s_i, x), ext.inv(phi.apply(s_i)))
        f_i = ext.conjugation_on_kernel(x_i)
        out.append((f_i.compose(phi.restriction), x_i))
    return out


def is_conjugate_virtual(ext, phi, x, y):
    """Decide y ~_phi x in the extension: y lies in some translated class
    iff y x_i^-1 lands in N and is a twisted displacement there. Returns
    (True, witness ExtElement) or (False, None); witnesses verify exactly."""
    p = ext.kernel
    for i, (f, x_i) in enumerate(decompose_twisted_class(ext, phi, x)):
        d = ext.mult(y, ext.inv(x_i))
        if not ext.in_kernel(d):
            continue
        res = is_twisted_conjugate(p, f, p.identity, d.n)
        if isinstance(res, TwistedWitness):
            s_i = ext.element(p.identity, i)
            w = ext.mult(ext.element(res.z, 0), s_i)
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


def farb_depth_union(ext, phi, x, y, order_budget=20000, stabilize_rounds=6):
    """Separate y from [x]_phi in a finite quotient of the extension,
    assembled from per-part kernel separations.

    Per translated part, a congruence kernel of N separating the shifted
    element is found; the kernels are intersected, replaced by their
    normal core over the coset action (and intersected with automorphism
    images until stable), and the separation is re-verified by orbit
    enumeration in the resulting finite quotient of G.

    Returns a dict with the combined quotient order, per-part orders, and
    the product bound the combined order is compared against.
    """
    p = ext.kernel
    conj, _ = is_conjugate_virtual(ext, phi, x, y)
    if conj:
        raise ValidationError("x and y are conjugate; nothing to separate")
    part_orders = []
    kernels = []
    for f, x_i in decompose_twisted_class(ext, phi, x):
        d = ext.mult(y, ext.inv(x_i))
        if not ext.in_kernel(d):
            # the quotient G/N already separates this part
            part_orders.append(ext.r)
            continue
        # is_conjugate_virtual above has decided this part non-conjugate
        res = congruence_depth(p, f, p.identity, d.n, order_budget,
                               check_nonconjugate=False)
        if not res.separated:
            raise BudgetExceededError("no separating congruence quotient for a part",
                                      budget="order budget", limit=order_budget)
        part_orders.append(res.order)
        kernels.append(diagonal_kernel(p, res.moduli))
    if not kernels:
        combined = None
    else:
        combined = kernels[0] if len(kernels) == 1 else intersect_finite_index(p, kernels)
        # normal core over the coset action, then phi-stabilization
        for _ in range(stabilize_rounds):
            conjugated = [combined.conjugated(ext.actions[i]) for i in range(ext.r)]
            conjugated.append(combined.conjugated(phi.restriction))
            merged = intersect_finite_index(p, [combined] + conjugated)
            if merged == combined:
                break
            combined = merged
        else:
            raise BudgetExceededError("core stabilization did not converge",
                                      budget="stabilization rounds", limit=stabilize_rounds)
    order = (combined.index() if combined else 1) * ext.r
    # verify separation in the finite quotient G/K by orbit enumeration on
    # coset forms: K is normal in G and phi-invariant once stable, so the
    # moves act on its cosets
    if combined is None:
        canon = lambda g: ExtElement(p.identity, g.coset)
    else:
        canon = lambda g: ExtElement(combined.coset_rep(g.n), g.coset)
    moves = []
    for g in ext.generators():
        moves.append((g, ext.inv(phi.apply(g))))
        moves.append((ext.inv(g), phi.apply(g)))
    orbit = breadth_first(canon(x), moves,
                          lambda e, uv: canon(ext.mult(ext.mult(uv[0], e), uv[1])),
                          cap=order, name="orbit in the combined quotient")
    target = canon(y)
    try:
        separated = all(t != target for t, _, _ in orbit)
    except BudgetExceededError as exc:
        raise ValidationError("orbit escaped the quotient order") from exc
    if not separated:
        raise ValidationError("combined quotient failed to separate")
    bound = 1
    for po in part_orders:
        bound *= po
    return {
        "order": order,
        "part_orders": part_orders,
        "product_bound": bound ** ext.r,
        "moduli": None if combined is None else [combined.entries[i][i] for i in range(p.h)],
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
