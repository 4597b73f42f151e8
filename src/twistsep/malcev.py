"""Mal'cev presentations and exact arithmetic in finitely generated
torsion-free nilpotent groups.

Elements are exponent vectors (tuples of ints): the vector (e_1, ..., e_h)
is the normal form a_1^e_1 ... a_h^e_h over the weighted basis. For every
pair j > i the presentation stores the normal form of
[a_j, a_i] = a_j a_i a_j^-1 a_i^-1, supported on generators of weight at
least w_i + w_j.

One group law serves every nilpotency class. In such a basis each
coordinate of g*h and of g^n is an integer-valued polynomial of weighted
degree at most the coordinate's weight (P. Hall, Nilpotent groups, 1957;
Leedham-Green and Soicher, Symbolic collection using Deep Thought, 1998).
The constructor interpolates these polynomials from collection at small
non-negative points, compiles them to straight-line integer code, and
checks the compiled law against collection at a fixed sample of other
points. Generic collection from the left stays as that bootstrap and as
the reference the tests compare against: it bootstraps conjugation
tables a_j^(a_i^+-1), processing j from the deepest generator upward so
each step only needs tables already built.
"""

import itertools
import math
import random

from .errors import BudgetExceededError, ValidationError
from . import lattice as lin

DEFAULT_BALL_CAP = 10_000_000
# fixed sample on which the compiled law is checked against collection
LAW_CHECK_SEED = 20240214
LAW_CHECK_SAMPLES = 4
# interpolation points per weight layer; UT(6, Z) needs about 6,000
LAW_GRID_CAP = 20_000
# the law check copies an h-tuple per letter, so verification time still
# grows quadratically, at C speed: Z^2000 verifies in 0.12 s, Z^8000 in 1.4 s
MAX_HIRSCH_LENGTH = 2000

Element = tuple  # exponent vector over the Mal'cev basis


def _multi_indices(weights, budget):
    """The exponent tuples a with sum(a_v * weights[v]) <= budget, a
    downward-closed set, as a list; BudgetExceededError beyond
    LAW_GRID_CAP of them."""
    def gen(k, left):
        if k == len(weights):
            yield ()
            return
        for e in range(left // weights[k] + 1):
            for rest in gen(k + 1, left - e * weights[k]):
                yield (e,) + rest

    grid = list(itertools.islice(gen(0, budget), LAW_GRID_CAP + 1))
    if len(grid) > LAW_GRID_CAP:
        raise BudgetExceededError(
            f"the group law of weight {budget} needs more than the cap of "
            f"{LAW_GRID_CAP} interpolation points",
            budget="group law interpolation points", limit=LAW_GRID_CAP)
    return grid


def _binomial_coefficients(values):
    """Coefficients c_a with f(x) = sum_a c_a prod_v C(x_v, a_v), from the
    values f(a) (lists, one entry per output) on a downward-closed set of
    points: forward differences along each variable in turn."""
    c = {a: list(v) for a, v in values.items()}
    for v in range(len(next(iter(c)))):
        order = sorted(c, key=lambda a: a[v], reverse=True)
        for j in range(1, order[0][v] + 1):
            for a in order:
                if a[v] < j:
                    break
                below = c[a[:v] + (a[v] - 1,) + a[v + 1:]]
                c[a] = [x - y for x, y in zip(c[a], below)]
    return c


def _poly_source(linear, terms, names, binoms):
    """Source of linear + sum c * prod C(names[v], a_v) over (c, a) in
    terms; records the binomials C(name, d >= 2) it uses in binoms."""
    src = linear
    for c, a in terms:
        factors = []
        for name, d in zip(names, a):
            if d == 1:
                factors.append(name)
            elif d > 1:
                factors.append(f"{name}_{d}")
                binoms.add((name, d))
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        src += (" - " if c < 0 else " + ") + "*".join(factors)
    return src


def _function_source(signature, vectors, exprs, binoms, h):
    """def signature: unpack each vector argument v into v0..v{h-1}, define
    the binomials as exact floor divisions of consecutive products, and
    return the tuple of exprs."""
    lines = [f"def {signature}:"]
    for v in vectors if h else ():
        lines.append("    " + "".join(f"{v}{t}, " for t in range(h)) + f"= {v}")
    for var, d in sorted(binoms):
        product = " * ".join([var] + [f"({var} - {i})" for i in range(1, d)])
        lines.append(f"    {var}_{d} = {product} // {math.factorial(d)}")
    lines.append("    return (" + "".join(e + ", " for e in exprs) + ")")
    return "\n".join(lines)


def check_hirsch_length(h):
    """h, or BudgetExceededError when it exceeds MAX_HIRSCH_LENGTH."""
    if h > MAX_HIRSCH_LENGTH:
        raise BudgetExceededError(
            f"Hirsch length {h} exceeds the cap of {MAX_HIRSCH_LENGTH}",
            budget="Hirsch length", limit=MAX_HIRSCH_LENGTH)
    return h


class MalcevPresentation:
    """A weighted polycyclic presentation of a torsion-free nilpotent group.

    basis: generator names a_1..a_h, sorted by nondecreasing weight.
    weights: weight (lower central series layer) per generator.
    commutators: {(j, i): exponent vector of [a_j, a_i]} for j > i,
        supported on generators of weight >= w_i + w_j; missing pairs
        commute.
    """

    def __init__(self, basis, weights, commutators, nilpotency_class=None):
        self.basis = list(basis)
        self.h = check_hirsch_length(len(self.basis))
        if isinstance(weights, dict):
            self.weights = [weights[name] for name in self.basis]
        else:
            self.weights = list(weights)
        if len(self.weights) != self.h:
            raise ValidationError("one weight per basis generator required")
        if any(w < 1 for w in self.weights):
            raise ValidationError("weights must be positive")
        if any(a > b for a, b in zip(self.weights, self.weights[1:])):
            raise ValidationError("basis must be sorted by nondecreasing weight")
        self.nilpotency_class = nilpotency_class or max(self.weights, default=1)
        if self.nilpotency_class != max(self.weights, default=1):
            raise ValidationError("declared class must equal the maximal weight")
        self.commutators = {}
        for (j, i), vec in commutators.items():
            if not (0 <= i < j < self.h):
                raise ValidationError(f"commutator pair ({j},{i}) out of range")
            v = tuple(vec)
            if len(v) != self.h:
                raise ValidationError("commutator vectors must have full length")
            w = self.weights[i] + self.weights[j]
            for t, e in enumerate(v):
                if e and self.weights[t] < w:
                    raise ValidationError(
                        f"[{self.basis[j]},{self.basis[i]}] has support of weight < {w}")
            if any(v):
                self.commutators[(j, i)] = v
        self.identity = (0,) * self.h
        self._build_tables()
        self._compile_law()
        self._check_law()

    # -- construction of conjugation tables -------------------------------

    def _build_tables(self):
        # the generators above a_i that have a relation with it, read once
        self._above = [[] for _ in range(self.h)]
        for j, i in self.commutators:
            self._above[i].append(j)
        self._cplus = {}   # (j, i) -> a_i^-1 a_j a_i, for pairs with a relation
        self._cminus = {}  # (j, i) -> a_i a_j a_i^-1
        for (j, i), v in sorted(self.commutators.items(), reverse=True):
            # a_i^-1 a_j a_i = (a_i^-1 [a_j,a_i] a_i) * a_j
            self._cplus[(j, i)] = self._rmul_gen(self._conj(v, i, 1), j, 1)
            # a_i a_j a_i^-1 = [a_j,a_i]^-1 * a_j
            self._cminus[(j, i)] = self._rmul_gen(self._inv_generic(v), j, 1)

    # -- generic collection ------------------------------------------------

    def _conj_single(self, vec, i, eps):
        """a_i^-eps * vec * a_i^eps for eps in {1, -1}; vec supported on
        indices > i. A pair with no table entry commutes."""
        table = self._cplus if eps == 1 else self._cminus
        out = self.identity
        for j in range(self.h - 1, -1, -1):
            e = vec[j]
            if not e:
                continue
            if j <= i:
                raise ValidationError("conjugation support error")
            out = self._mul_generic(self._pow_generic(table.get((j, i)) or self.gen(j), e), out)
        return out

    def _conj(self, vec, i, t):
        """a_i^-t * vec * a_i^t by binary splitting on t."""
        # a_i commutes with every generator in the support of vec
        if t == 0 or all(not vec[j] for j in self._above[i]):
            return tuple(vec)
        if t == 1 or t == -1:
            return self._conj_single(vec, i, t)
        half = t // 2
        return self._conj(self._conj(vec, i, half), i, t - half)

    def _rmul_gen(self, g, i, t):
        """g * a_i^t in normal form."""
        g = tuple(g)
        if all(not g[j] for j in self._above[i]):  # a_i commutes with the tail
            return g[:i] + (g[i] + t,) + g[i + 1:]
        conj_tail = self._conj((0,) * (i + 1) + g[i + 1:], i, t)
        return g[:i] + (g[i] + t,) + conj_tail[i + 1:]

    def _mul_generic(self, g, hvec):
        out = tuple(g)
        for i in range(self.h):
            e = hvec[i]
            if e:
                out = self._rmul_gen(out, i, e)
        return out

    def _inv_generic(self, g):
        out = self.identity
        for i in range(self.h - 1, -1, -1):
            e = g[i]
            if e:
                out = self._rmul_gen(out, i, -e)
        return out

    def _pow_generic(self, g, n):
        # the generators in the support of g commute: g^n = (n * g_k)_k
        if all(not g[j] for i, e in enumerate(g) if e for j in self._above[i]):
            return tuple(n * e for e in g)
        if n < 0:
            return self._inv_generic(self._pow_generic(g, -n))
        result = self.identity
        base = tuple(g)
        while True:
            if n & 1:
                result = self._mul_generic(result, base)
            n >>= 1
            if not n:
                return result
            base = self._mul_generic(base, base)

    # -- the compiled group law ---------------------------------------------

    def _compile_law(self):
        """Interpolate the product and power polynomials and compile them.

        For a coordinate k of weight w, (g*h)_k = g_k + h_k + q_k and
        (g^n)_k = n*g_k + r_k, where q_k and r_k are polynomials in the
        coordinates of weight < w, r_k also in n with degree <= w. Their
        coefficients in the binomial basis prod C(x_v, a_v) are integers,
        read off by forward differences of generic collection on the
        non-negative points a of weighted degree sum a_v w_v <= w.
        """
        h = self.h

        def point(idx, vals):
            out = [0] * h
            for t, e in zip(idx, vals):
                out[t] = e
            return tuple(out)

        prod = [f"g{k} + h{k}" for k in range(h)]
        power = [f"n * g{k}" for k in range(h)]
        prod_binoms, pow_binoms = set(), set()
        for w in sorted(set(self.weights)):
            low = [t for t in range(h) if self.weights[t] < w]
            if not low:
                continue
            layer = self.layer_indices(w)
            low_w = [self.weights[t] for t in low]
            prod_values = {}
            for a in _multi_indices(low_w * 2, w):
                gh = self._mul_generic(point(low, a[:len(low)]), point(low, a[len(low):]))
                prod_values[a] = [gh[k] for k in layer]
            pow_values = {}
            for a in _multi_indices(low_w, w):
                for n in range(w + 1):
                    gn = self._pow_generic(point(low, a), n)
                    pow_values[(n,) + a] = [gn[k] for k in layer]
            for values, exprs, names, binoms in (
                    (prod_values, prod, [f"g{t}" for t in low] + [f"h{t}" for t in low],
                     prod_binoms),
                    (pow_values, power, ["n"] + [f"g{t}" for t in low], pow_binoms)):
                coeffs = _binomial_coefficients(values)
                for col, k in enumerate(layer):
                    terms = [(c[col], a) for a, c in coeffs.items() if c[col]]
                    exprs[k] = _poly_source(exprs[k], terms, names, binoms)
        source = (_function_source("mult(g, h)", "gh", prod, prod_binoms, h) + "\n"
                  + _function_source("pow(g, n)", "g", power, pow_binoms, h))
        namespace = {}
        exec(compile(source, "<malcev group law>", "exec"), {"__builtins__": {}}, namespace)
        self._mult, self._pow = namespace["mult"], namespace["pow"]

    def _check_law(self):
        """Compare the compiled law with generic collection on a fixed
        sample outside the interpolation grid (g has a negative entry)."""
        rng = random.Random(LAW_CHECK_SEED)
        for _ in range(LAW_CHECK_SAMPLES if self.h else 0):
            g = (-rng.randint(1, 2),) + tuple(rng.randint(-2, 2) for _ in range(self.h - 1))
            hvec = tuple(rng.randint(-2, 2) for _ in range(self.h))
            n = rng.randint(-3, 3)
            if (self._mult(g, hvec) != self._mul_generic(g, hvec)
                    or self._pow(g, n) != self._pow_generic(g, n)):
                raise ValidationError(
                    f"collection is not polynomial at g={g}, h={hvec}, n={n}: "
                    "the presentation is inconsistent")

    # -- public arithmetic ----------------------------------------------------

    def check_element(self, g):
        if len(g) != self.h:
            raise ValidationError("exponent vector has the wrong length")
        return tuple(g)

    def mult(self, g, hvec):
        return self._mult(g, hvec)

    def inv(self, g):
        return self._pow(g, -1)

    def pow(self, g, n):
        return self._pow(g, n)

    def comm(self, g, hvec):
        return self.mult(self.mult(g, hvec), self.inv(self.mult(hvec, g)))

    def conjugate(self, g, by):
        """by * g * by^-1."""
        return self.mult(self.mult(by, g), self.inv(by))

    def gen(self, i):
        return tuple(1 if t == i else 0 for t in range(self.h))

    def standard_gens(self):
        """The weight-1 basis generators, the default generating set."""
        return [self.gen(i) for i in range(self.h) if self.weights[i] == 1]

    # -- layers -------------------------------------------------------------

    def layer_indices(self, w):
        return [i for i in range(self.h) if self.weights[i] == w]

    def layer_rank(self, w):
        return len(self.layer_indices(w))

    def weight_of(self, g):
        """The largest w with g in gamma_w, or None for the identity."""
        for i in range(self.h):
            if g[i]:
                return self.weights[i]
        return None

    def layer_coords(self, g, w):
        """Coordinates of g in gamma_w / gamma_{w+1}; g must lie in gamma_w."""
        for i in range(self.h):
            if g[i] and self.weights[i] < w:
                raise ValidationError("element is not in the requested layer")
        return tuple(g[i] for i in self.layer_indices(w))

    def from_layer_coords(self, coords, w):
        out = [0] * self.h
        for i, c in zip(self.layer_indices(w), coords):
            out[i] = c
        return tuple(out)


def multiply(p, g, h):
    return p.mult(p.check_element(g), p.check_element(h))


def inverse(p, g):
    return p.inv(p.check_element(g))


def commutator(p, g, h):
    return p.comm(p.check_element(g), p.check_element(h))


def power(p, g, n):
    return p.pow(p.check_element(g), n)


def verify_presentation(p):
    """Check the adaptedness invariants constructively. Returns a list of
    violation strings, empty when the presentation passes."""
    problems = []
    # the class and the commutator supports were checked at construction
    # overlap consistency (Sims, ch. 9): a_k (a_j a_i) = (a_k a_j) a_i for
    # k > j > i, also with a_j or a_i inverted. A triple with no relation
    # among (k, j), (k, i), (j, i) cannot fail: collection makes no
    # correction on its span, so the compiled law is addition there.
    triples = set()
    for j, i in p.commutators:
        triples.update((k, j, i) for k in range(j + 1, p.h))
        triples.update((j, i, t) for t in range(i))
        triples.update((j, t, i) for t in range(i + 1, j))
    for k, j, i in sorted(triples):
        x = p.gen(k)
        if any(p.mult(p.mult(x, y), z) != p.mult(x, p.mult(y, z))
               for y in (p.gen(j), p.inv(p.gen(j)))
               for z in (p.gen(i), p.inv(p.gen(i)))):
            problems.append(
                f"overlap ({p.basis[k]},{p.basis[j]},{p.basis[i]}) is not associative")
    # each layer w >= 2 must be spanned by commutators [a_k, a_m] with
    # weight(a_k) = 1 and weight(a_m) = w - 1, with index one
    for w in range(2, p.nilpotency_class + 1):
        rows = []
        for k in p.layer_indices(1):
            for m in range(p.h):
                if p.weights[m] == w - 1:
                    c = p.comm(p.gen(k), p.gen(m))
                    if p.weight_of(c) is not None and p.weight_of(c) >= w:
                        rows.append(list(p.layer_coords(c, w)))
        L = lin.Lattice.from_rows(p.layer_rank(w), rows)
        if L.rank != p.layer_rank(w):
            problems.append(f"layer {w} is not spanned by commutators (rank)")
        elif lin.isolator_index(L) != 1:
            problems.append(f"layer {w} commutator span has index {lin.isolator_index(L)}")
    return problems


def product_of_powers(p, gens, exps):
    """g_1^e_1 g_2^e_2 ... for the gens g_i and exponents e_i, in order."""
    out = p.identity
    for g, e in zip(gens, exps):
        if e:
            out = p.mult(out, p.pow(g, e))
    return out


class GroupHom:
    """A homomorphism determined by generator images, with the induced
    integer matrix on each lower central series layer."""

    def __init__(self, domain, codomain, images):
        self.domain = domain
        self.codomain = codomain
        self.images = [codomain.check_element(g) for g in images]
        if len(self.images) != domain.h:
            raise ValidationError("one image per basis generator required")

    def apply(self, g):
        return product_of_powers(self.codomain, self.images, g)

    def layer_matrix(self, w):
        """Matrix of the induced map on gamma_w/gamma_{w+1}, acting on
        column vectors of layer coordinates."""
        cols = []
        for i in self.domain.layer_indices(w):
            img = self.apply(self.domain.gen(i))
            iw = self.codomain.weight_of(img)
            if img != self.codomain.identity and (iw is None or iw < w):
                raise ValidationError("image does not respect the layer filtration")
            cols.append(list(self.codomain.layer_coords(img, w)))
        return lin.transpose(cols) if cols else []

    def compose(self, other):
        """self after other."""
        return GroupHom(other.domain, self.codomain,
                        [self.apply(g) for g in other.images])

    def __eq__(self, other):
        return (isinstance(other, GroupHom) and self.domain is other.domain
                and self.codomain is other.codomain and self.images == other.images)


def identity_automorphism(p):
    return GroupHom(p, p, [p.gen(i) for i in range(p.h)])


def inner_automorphism(p, x):
    return GroupHom(p, p, [p.conjugate(p.gen(i), x) for i in range(p.h)])


def compose_with_inner(p, phi, x):
    """Inn(x) o phi, the twist entering nearly-twisted-conjugacy reductions;
    phi itself when x is the identity."""
    if not any(x):
        return phi
    x_inv = p.inv(x)
    return GroupHom(p, p, [p.mult(p.mult(x, a), x_inv) for a in phi.images])


def verify_hom(f, check_automorphism=False):
    """Check relation preservation, layer filtration, and (optionally) that
    every layer matrix is unimodular. Returns a list of violations."""
    problems = []
    dom, cod = f.domain, f.codomain
    for (j, i), v in dom.commutators.items():
        lhs = f.apply(tuple(v))
        rhs = cod.comm(f.images[j], f.images[i])
        if lhs != rhs:
            problems.append(
                f"relation [{dom.basis[j]},{dom.basis[i]}] is not preserved")
    for w in range(1, dom.nilpotency_class + 1):
        try:
            M = f.layer_matrix(w)
        except ValidationError as exc:
            problems.append(str(exc))
            continue
        if check_automorphism:
            if dom is not cod:
                problems.append("automorphism must be an endomorphism")
                break
            d = lin.det(M) if M else 1
            if d not in (1, -1):
                problems.append(f"layer {w} matrix has determinant {d}, not +-1")
    return problems


# -- breadth-first search, balls and word metrics ----------------------------


def breadth_first(start, moves, step, key=None, cap=math.inf, name="search"):
    """Lazy breadth-first search from start, where step(e, m) is the
    element reached from e along move m; a repeated move is taken once.

    Yields (start, 0), then (t, depth) once for every newly reached key
    (key defaults to t itself), level by level in breadth-first order: t
    is the first element found with its key, at distance depth, and is
    the one expanded. Raises BudgetExceededError naming the budget and its
    cap once more than cap keys are seen; the check follows the yield, so
    a consumer that stops at the element passing the cap gets no error."""
    seen = {start if key is None else key(start)}
    yield start, 0
    moves = list(dict.fromkeys(moves))
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for e in frontier:
            for m in moves:
                t = step(e, m)
                k = t if key is None else key(t)
                if k in seen:
                    continue
                seen.add(k)
                yield t, depth
                nxt.append(t)
                if len(seen) > cap:
                    raise BudgetExceededError(
                        f"{name} exceeded its cap of {cap} elements",
                        budget=name, limit=cap)
        frontier = nxt


def _cayley_walk(group, gens, cap, name):
    """breadth_first from the identity of group (anything with mult, inv
    and identity) over gens and their inverses."""
    steps = [s for g in gens for s in (g, group.inv(g))]
    return breadth_first(group.identity, steps, group.mult, cap=cap, name=name)


def _ball_distances(group, gens, n, cap, name):
    dist = {}
    for t, depth in _cayley_walk(group, gens, cap, name):
        if depth > n:
            break
        dist[t] = depth
    return dist


def ball(p, gens, n, cap=DEFAULT_BALL_CAP):
    """All elements of word length <= n over gens united with their
    inverses, as a sorted list. Raises BudgetExceededError at the cap."""
    return sorted(ball_with_distances(p, gens, n, cap))


def ball_with_distances(p, gens, n, cap=DEFAULT_BALL_CAP):
    """The word length of every element of the n-ball, in breadth-first
    order."""
    return _ball_distances(p, [p.check_element(g) for g in gens], n, cap,
                           "ball enumeration")


def word_length(p, gens, g, cap=64, count_cap=DEFAULT_BALL_CAP):
    """Exact word length of g by breadth-first search; raises
    BudgetExceededError when the radius or element cap is hit."""
    g = p.check_element(g)
    walk = _cayley_walk(p, [p.check_element(s) for s in gens], count_cap,
                        "word length search")
    for t, depth in walk:
        if depth > cap:
            break
        if t == g:
            return depth
    raise BudgetExceededError(f"word length of {g} exceeds the radius cap of {cap}",
                              budget="word length radius", limit=cap)


def word_length_upper(p, g):
    """A constructive upper bound on the word length over the standard
    (weight-1 basis) generators, with no search.

    The weight-1 part contributes the sum of absolute exponents. For class
    exactly 2 the central part b^m with b a commutator of two weight-1
    generators is realised as [u^s, w^s] * [u^r, w] with s = isqrt(|m|),
    giving the 8*sqrt + 2 bound; central coordinates are first expressed
    over the available commutator vectors. Deeper layers (class > 2) fall
    back to a linear per-coordinate bound, which stays a true upper bound.
    """
    g = p.check_element(g)
    total = 0
    for i in p.layer_indices(1):
        total += abs(g[i])
    if p.nilpotency_class == 1:
        return total
    if p.nilpotency_class == 2:
        coords = [g[i] for i in p.layer_indices(2)]
        if any(coords):
            total += _central_norm_upper_two_step(p, coords)
        return total
    # conservative fallback for deeper groups
    for w in range(2, p.nilpotency_class + 1):
        word_cost = 3 * (2 ** w)
        for i in p.layer_indices(w):
            total += abs(g[i]) * word_cost
    return total


def _two_step_commutator_table(p):
    """Pairs ((j, i), layer-2 vector of [a_j, a_i]) over weight-1 j > i."""
    pairs = []
    for (j, i), v in p.commutators.items():
        if p.weights[i] == 1 and p.weights[j] == 1:
            pairs.append(((j, i), list(p.layer_coords(v, 2))))
    return pairs


def _central_norm_upper_two_step(p, coords):
    pairs = _two_step_commutator_table(p)
    if not pairs:
        raise ValidationError("no commutator relations span the central layer")
    M = lin.transpose([vec for _, vec in pairs])
    combo = lin.solve(M, list(coords))
    if combo is None:
        raise ValidationError("central element is not spanned by commutators")
    bound = 0
    for c in combo:
        if c:
            m = abs(c)
            s = math.isqrt(m)
            r = m - s * s
            bound += 4 * s + (2 * r + 2 if r else 0)
    return bound


def automorphism_norm(p, gens, phi, cap=64, count_cap=DEFAULT_BALL_CAP):
    """max word length of phi(s) over s in gens."""
    best = 0
    for s in gens:
        img = phi.apply(p.check_element(s))
        ln = 0 if img == p.identity else word_length(p, gens, img, cap, count_cap)
        best = max(best, ln)
    return best


def root(p, g, m):
    """The unique y with y^m = g, or None.

    Solved layer by layer: the weight-w coordinates of y are forced by
    divisibility once the shallower coordinates are fixed, and the final
    candidate is verified exactly, so a failed verification proves no root
    exists (roots in torsion-free nilpotent groups are unique).
    """
    if m < 1:
        raise ValidationError("root exponent must be >= 1")
    g = p.check_element(g)
    if m == 1:
        return g
    partial = [0] * p.h
    for w in range(1, p.nilpotency_class + 1):
        t = p.pow(tuple(partial), m)
        for i in p.layer_indices(w):
            delta = g[i] - t[i]
            if delta % m != 0:
                return None
            partial[i] = delta // m
    y = tuple(partial)
    return y if p.pow(y, m) == g else None
