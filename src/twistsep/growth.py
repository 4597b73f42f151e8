"""Growth measurements: congruence-depth growth rows, the Heisenberg
automorphism classifier, the five-dimensional scenario, lower bound
witness families, and exponent fitting.

Depth values entering any row are verified separations: the scan both
finds the separating quotient and exhausts everything smaller, so row
maxima are exact within the congruence family. A row's depth scan reduces
the ball, or each sampled pair, to one element per twisted class by
canonical forms and refines those, and only pairs split apart by a kernel
have a depth.
"""

import csv
import math
import random
from dataclasses import dataclass

from .errors import BudgetExceededError, ValidationError
from . import lattice as lin
from .malcev import (automorphism_norm, ball_with_distances, compose_with_inner,
                     identity_automorphism, verify_hom, word_length,
                     word_length_upper)
from .groups import dim5, dim5_automorphism, heisenberg
from .quotients import congruence_depth, depth_scan, one_dim_central_quotient
from .twisted import canonical_form, twist_level, twisted_chain

DEFAULT_SEED = 20240214


@dataclass
class ExperimentConfig:
    group: object
    automorphisms: list                    # (name, GroupHom) pairs
    radii: list
    ball_cap: int = 200_000
    order_budget: int = 2000
    mode: str = "exhaustive"               # or "sampled"
    sample_pairs: int = 200
    seed: int = DEFAULT_SEED
    tconj: bool = False                    # filter family by ||phi|| <= n

    def __post_init__(self):
        numbers = [self.ball_cap, self.order_budget, self.sample_pairs, self.seed]
        if not isinstance(self.radii, (list, tuple)) or not isinstance(self.tconj, bool) \
                or any(type(v) is not int for v in [*self.radii, *numbers]):
            raise ValidationError("radii must be a list of integers, ball_cap, order_budget, "
                                  "sample_pairs and seed integers, and tconj a boolean")
        if any(n < 0 for n in self.radii) or sorted(self.radii) != list(self.radii):
            raise ValidationError("radii must be nonnegative and increasing")
        if self.ball_cap <= 0 or self.order_budget <= 0 or self.sample_pairs <= 0:
            raise ValidationError("ball_cap, order_budget and sample_pairs must be positive")
        if self.mode not in ("exhaustive", "sampled"):
            raise ValidationError(f"mode must be 'exhaustive' or 'sampled', not {self.mode!r}")


@dataclass
class GrowthRow:
    n: int
    phi_id: str
    depth: int
    witness_x: tuple = None
    witness_y: tuple = None
    moduli: tuple = None
    exhaustive: bool = True
    budget_exhausted: bool = False


def fit_exponent(rows):
    """Least squares slope of log(value) against log(n) plus r^2.
    rows: (n, value) pairs with n >= 1, value >= 1. Needs >= 3 rows."""
    pts = [(math.log(n), math.log(v)) for n, v in rows if n >= 1 and v >= 1]
    if len(pts) < 3:
        raise ValidationError("need at least 3 rows to fit an exponent")
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    if sxx == 0:
        raise ValidationError("degenerate fit: all radii equal")
    slope = sxy / sxx
    syy = sum((y - my) ** 2 for _, y in pts)
    ss_res = sum((y - (my + slope * (x - mx))) ** 2 for x, y in pts)
    r2 = 1.0 if syy == 0 else 1.0 - ss_res / syy
    return slope, r2


def measure_conj_growth(config):
    """Growth rows: for each radius n and automorphism, the maximal
    congruence depth over the pairs of the n-ball, or over sampled pairs,
    flagged, from one depth scan per row. The sorted ball is one block
    (depth is symmetric) and a sampled pair a block of two; conjugate pairs
    have no depth. The row's witness is the first pair attaining the
    maximum: x < y when exhaustive, the first such sample otherwise."""
    p = config.group
    gens = p.standard_gens()
    rng = random.Random(config.seed)
    rows = []
    for name, phi in config.automorphisms:
        if config.tconj:
            nphi = automorphism_norm(p, gens, phi)
        for n in config.radii:
            if config.tconj and nphi > n:
                continue
            elements = sorted(ball_with_distances(p, gens, n, config.ball_cap))
            exhaustive = config.mode == "exhaustive" or len(elements) ** 2 <= config.sample_pairs
            blocks = [elements] if exhaustive else [
                (rng.choice(elements), rng.choice(elements)) for _ in range(config.sample_pairs)]
            best, exhausted = (0, None, None, None), False   # depth, witness x and y, moduli
            for res in depth_scan(p, phi, blocks, config.order_budget):
                exhausted |= res.budget_exhausted
                if res.separated and res.order > best[0]:
                    best = (res.order, *res.witness, res.moduli)
            rows.append(GrowthRow(n, name, *best, exhaustive, exhausted))
    return rows


def growth_rows_to_csv(rows, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "phi", "depth", "x", "y", "moduli", "exhaustive",
                    "budget_exhausted"])
        for r in rows:
            w.writerow([r.n, r.phi_id, r.depth,
                        "" if r.witness_x is None else ";".join(map(str, r.witness_x)),
                        "" if r.witness_y is None else ";".join(map(str, r.witness_y)),
                        "" if r.moduli is None else ";".join(map(str, r.moduli)),
                        int(r.exhaustive), int(r.budget_exhausted)])


def plot_script_for(csv_path, out_path):
    """Emit a small offline plotting script next to the CSV."""
    script = f"""import csv
import matplotlib.pyplot as plt

ns, depths = [], []
with open({csv_path!r}) as fh:
    for row in csv.DictReader(fh):
        if int(row["depth"]) > 0:
            ns.append(int(row["n"]))
            depths.append(int(row["depth"]))
plt.loglog(ns, depths, "o-")
plt.xlabel("n")
plt.ylabel("congruence depth")
plt.savefig("growth.png", dpi=150)
"""
    with open(out_path, "w") as fh:
        fh.write(script)


# -- Heisenberg specifics -----------------------------------------------------


def heisenberg_case(pres, phi, samples=50, seed=DEFAULT_SEED):
    """Classify a Heisenberg automorphism by the rank of its second
    twisted centralizer (the eigenvalue-1 eigenspace of the induced
    abelianized matrix) and report the invariants.

    Case 1: rank 1 (no eigenvalue 1), case 2: rank 2, case 3: A = I.
    When the determinant is -1 the uniform witness z^2 in N_{phi_X} is
    checked over sampled X.
    """
    if samples < 1:  # a claim over no sample would hold vacuously
        raise ValidationError(f"samples must be at least 1, got {samples}")
    problems = verify_hom(phi, check_automorphism=True)
    if problems:
        raise ValidationError("; ".join(problems))
    A = phi.layer_matrix(1)
    AmI = [[A[i][j] - (1 if i == j else 0) for j in range(2)] for i in range(2)]
    eig1_dim = 2 - lin.rank(AmI)
    case = {0: 1, 1: 2, 2: 3}[eig1_dim]
    D = lin.det(A)
    report = {"case": case, "det": D, "eig1_dim": eig1_dim}
    if case == 2 and D == -1:
        rng = random.Random(seed)
        twists = (tuple(rng.randint(-8, 8) for _ in range(3)) for _ in range(samples))
        report["uniform_witness_z2"] = all(
            twist_level(pres, phi, X, 2).image.contains([2]) for X in twists)
    return report


def heisenberg_central_pair_rows(radii):
    """Case-3 growth rows along the central translate pairs (x^p, x^p z) of
    lower_bound_witnesses for the primes 2, 3 and 5: the mechanism behind
    the cubic growth. A pair enters the row at n once both elements fit in
    the n-ball; its depth is the exact congruence depth, scan-verified."""
    p = heisenberg()
    gens = p.standard_gens()
    pairs = [(max(word_length(p, gens, g) for g in w["family"][:2]), w["depth"])
             for w in lower_bound_witnesses((2, 3, 5))]
    rows = [(n, max((order for enter, order in pairs if enter <= n), default=0))
            for n in radii]
    return [row for row in rows if row[1]]


def lower_bound_witnesses(primes):
    """The central translate family x^p z^i, i = 0..3, for each prime: pairwise
    non-conjugate where i and j differ by less than p (compared by canonical
    forms), with the congruence depth of (x^p, x^p z) exactly p^3
    (separation at order p^3, exhaustive non-separation below), scanned
    with an order budget of p^3 + 50."""
    p = heisenberg()
    phi = identity_automorphism(p)
    out = []
    for q in primes:
        xq = p.pow(p.gen(0), q)
        fam = [p.mult(xq, p.pow(p.gen(2), i)) for i in range(4)]
        forms = [canonical_form(p, phi, g)[1] for g in fam]
        if any(forms[i] == forms[j] for i in range(4) for j in range(i + 1, min(i + q, 4))):
            raise ValidationError("translate family failed pairwise non-conjugacy")
        budget = q ** 3 + 50
        res = congruence_depth(p, phi, fam[0], fam[1], budget)
        if not res.separated:
            raise BudgetExceededError(f"no separation within budget for p={q}",
                                      budget="order budget", limit=budget)
        out.append({"prime": q, "depth": res.order, "moduli": res.moduli,
                    "family": fam})
    return out


# -- five-dimensional scenario ------------------------------------------------


def _random_word_element(pres, gens, length, rng):
    g = pres.identity
    for _ in range(length):
        s = gens[rng.randrange(len(gens))]
        if rng.random() < 0.5:
            s = pres.inv(s)
        g = pres.mult(g, s)
    return g


def dim5_scenario(samples=50, max_norm=40, seed=DEFAULT_SEED, growth_radii=(1, 2, 3)):
    """Reproduce the five-dimensional example: the second twisted
    centralizer, the exact psi values on the central generators, the
    square-root trend of the psi-image norm, the one-dimensional central
    quotients of Hirsch length 3, and a small growth scan."""
    if samples < 1:
        raise ValidationError(f"samples must be at least 1, got {samples}")
    if max_norm < 6:
        raise ValidationError(f"max_norm must be at least 6 for the norm fit, got {max_norm}")
    p = dim5()
    phi = dim5_automorphism(p)
    problems = verify_hom(phi, check_automorphism=True)
    if problems:
        raise ValidationError("; ".join(problems))
    rng = random.Random(seed)
    gens = p.standard_gens()
    expected = {0: p.gen(0), 1: p.gen(1), 3: p.gen(3), 4: p.gen(4)}

    n2_ok = True
    for _ in range(samples):
        x = tuple(rng.randint(-6, 6) for _ in range(5))
        chain = twisted_chain(p, compose_with_inner(p, phi, x))
        if chain.subgroup(2).entries != expected:
            n2_ok = False
            break

    x0 = tuple(rng.randint(-4, 4) for _ in range(5))
    phi_x0 = compose_with_inner(p, phi, x0)
    disp_b1 = p.mult(p.gen(3), p.inv(phi_x0.apply(p.gen(3))))
    disp_b2 = p.mult(p.gen(4), p.inv(phi_x0.apply(p.gen(4))))
    psi_b1 = p.layer_coords(disp_b1, 2)
    psi_b2 = p.layer_coords(disp_b2, 2)

    norm_rows = []
    for n in range(2, max_norm + 1, 2):
        # the growth function takes a max over the ball, so extreme
        # straight-line words are sampled alongside random ones
        xs = [p.pow(p.gen(2), n), p.pow(p.gen(0), n),
              p.mult(p.pow(p.gen(2), n - 1), p.gen(1))]
        xs += [_random_word_element(p, gens, n, rng) for _ in range(3)]
        worst = 0
        for x in xs:
            image = twist_level(p, phi, x, 2).image
            bound = 0
            for row in image.rows:
                el = p.from_layer_coords(row, 2)
                bound = max(bound, word_length_upper(p, el))
            worst = max(worst, bound)
        norm_rows.append((n, max(worst, 1)))
    sqrt_exponent, sqrt_r2 = fit_exponent(norm_rows)

    q1, _, _ = one_dim_central_quotient(p, p.gen(3))
    q2, _, _ = one_dim_central_quotient(p, p.gen(4))

    growth = None
    growth_fit = None
    if growth_radii:
        config = ExperimentConfig(p, [("phi", phi)], list(growth_radii),
                                  mode="sampled", sample_pairs=60, seed=seed,
                                  order_budget=3000)
        growth = measure_conj_growth(config)
        usable = [(r.n, r.depth) for r in growth if r.depth > 0]
        if len(usable) >= 3:
            growth_fit = fit_exponent(usable)

    return {
        "n2_matches": n2_ok,
        "psi_b1": psi_b1,
        "psi_b2": psi_b2,
        "norm_rows": norm_rows,
        "sqrt_fit_exponent": sqrt_exponent,
        "sqrt_fit_r2": sqrt_r2,
        "central_quotient_hirsch": (q1.h, q2.h),
        "growth_rows": growth,
        "growth_fit": growth_fit,
        "growth_reference_exponent": 3,
    }
