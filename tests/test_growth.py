import math
import random

import pytest

from twistsep.errors import ValidationError
from twistsep.groups import (free_abelian, heisenberg,
                             heisenberg_automorphism, ut4)
from twistsep import growth, quotients
from twistsep.growth import (ExperimentConfig, GrowthRow, dim5_scenario,
                             fit_exponent, growth_rows_to_csv,
                             heisenberg_case, heisenberg_central_pair_rows,
                             lower_bound_witnesses, measure_conj_growth)
from twistsep.malcev import ball, compose_with_inner, identity_automorphism
from test_twisted import ut_flip
from twistsep.quotients import depth_scan
from twistsep.twisted import TwistedChain, canonical_form

SEED = 20240214
H3 = heisenberg()
U4 = ut4()


def test_fit_exponent_synthetic():
    expo, r2 = fit_exponent([(n, n ** 3) for n in range(1, 9)])
    assert abs(expo - 3.0) < 0.01 and r2 > 0.999
    expo, r2 = fit_exponent([(n, max(1, round(10 * math.log(n)))) for n in range(2, 12)])
    assert expo < 1.0
    with pytest.raises(ValidationError):
        fit_exponent([(1, 1), (2, 8)])


def test_heisenberg_case_classifier():
    rep = heisenberg_case(H3, heisenberg_automorphism(H3, [[1, 0], [0, 1]]))
    assert rep["case"] == 3
    rep = heisenberg_case(H3, heisenberg_automorphism(H3, [[0, 1], [1, 0]]),
                          samples=25)
    assert rep["case"] == 2 and rep["det"] == -1 and rep["uniform_witness_z2"]
    rep = heisenberg_case(H3, heisenberg_automorphism(H3, [[2, 1], [1, 1]]))
    assert rep["case"] == 1 and rep["det"] == 1
    # unipotent: rank-2 twisted centralizer but determinant +1, so the
    # uniform witness claim does not apply
    rep = heisenberg_case(H3, heisenberg_automorphism(H3, [[1, 1], [0, 1]]))
    assert rep["case"] == 2 and rep["det"] == 1
    assert "uniform_witness_z2" not in rep


def test_classifier_invariant_under_inner_twists():
    # Inn(g) acts trivially on every layer, so Inn(g) o phi has phi's level
    # 1 and N_2, which decisions and canonical forms read from phi's chain
    def level_one_and_n2(chain):
        lv = chain.level(1)
        return lv.seq.entries, lv.psi_rows, lv.image, lv.determinant, chain.subgroup(2).entries

    rng = random.Random(SEED)
    for pres, phi in [(H3, heisenberg_automorphism(H3, [[0, 1], [1, 0]], e=1)),
                      (U4, ut_flip(U4))]:
        base = level_one_and_n2(TwistedChain(pres, phi))
        for _ in range(50):
            g = tuple(rng.randint(-6, 6) for _ in range(pres.h))
            assert level_one_and_n2(TwistedChain(pres, compose_with_inner(pres, phi, g))) == base


def test_central_pair_rows_and_fit():
    rows = heisenberg_central_pair_rows([1, 2, 3, 4, 5, 6])
    assert rows == [(4, 8), (5, 27), (6, 27)]
    expo, _ = fit_exponent(rows)
    assert 2.5 <= expo <= 3.5


def test_lower_bound_witnesses():
    out = lower_bound_witnesses([2, 3])
    assert [w["depth"] for w in out] == [8, 27]
    for w in out:
        assert w["moduli"] == (w["prime"],) * 3


def test_measure_growth_zlike():
    Z = free_abelian(1)
    cfg = ExperimentConfig(Z, [("id", identity_automorphism(Z))],
                           [1, 2, 4, 8], order_budget=100)
    rows = measure_conj_growth(cfg)
    depths = [r.depth for r in rows]
    assert depths == sorted(depths)
    assert all(r.exhaustive for r in rows)
    # log-like scale: doubling n grows depth by a bounded additive amount
    assert depths[-1] <= depths[0] + 4


def test_measure_growth_h3_small():
    cfg = ExperimentConfig(H3, [("id", identity_automorphism(H3))],
                           [1, 2], order_budget=200)
    rows = measure_conj_growth(cfg)
    assert [r.n for r in rows] == [1, 2]
    assert rows[0].depth <= rows[1].depth
    for r in rows:
        assert r.depth > 0 and not r.budget_exhausted


def test_exhaustive_growth_row_is_one_block(monkeypatch):
    # depth is symmetric, so the row scanned as one block, the sorted ball,
    # equals the maximum over all ordered pairs, each a block of two, with
    # the first maximal ordered pair as witness
    fam = [("id", identity_automorphism(H3)),
           ("A", heisenberg_automorphism(H3, [[2, 1], [1, 1]]))]
    scanned, forms = [], []
    monkeypatch.setattr(growth, "depth_scan", lambda p, phi, blocks, budget:
                        scanned.append(blocks) or depth_scan(p, phi, blocks, budget))
    monkeypatch.setattr(quotients, "canonical_form", lambda p, phi, g:
                        forms.append(g) or canonical_form(p, phi, g))
    rows = measure_conj_growth(ExperimentConfig(H3, fam, [1, 2], order_budget=200))
    monkeypatch.undo()
    expected, balls = [], []
    for name, phi in fam:
        for n in (1, 2):
            elements = sorted(ball(H3, H3.standard_gens(), n))
            balls.append([elements])
            pairs = [(x, y) for x in elements for y in elements if x != y]
            best, exhausted = (0, None, None, None), False
            for (x, y), res in zip(pairs, depth_scan(H3, phi, pairs, 200)):
                exhausted |= res.budget_exhausted
                if res.separated and res.order > best[0]:
                    best = (res.order, x, y, res.moduli)
            expected.append(GrowthRow(n, name, *best, True, exhausted))
    assert scanned == balls
    assert rows == expected
    assert all(r.depth > 0 for r in rows)
    # one canonical form per element of each ball, and no decision
    assert forms == [g for b in balls for g in b[0]]


@pytest.mark.parametrize("pres, n, depth, witness, moduli", [
    (H3, 10, 512, ((-8, 0, -8), (-8, 0, -4)), (8, 8, 8)),
    (ut4(), 4, 243, ((-1, 0, -1, -1, 0, 0), (-1, 0, -1, 0, 1, 0)), (3, 3, 3, 3, 3, 1)),
], ids=["H3-10", "ut4-4"])
def test_exhaustive_rows_beyond_the_pair_scan(pres, n, depth, witness, moduli):
    # 4,309 and 557 elements: rows a scan over every pair did not reach
    [row] = measure_conj_growth(ExperimentConfig(pres, [("id", identity_automorphism(pres))],
                                                 [n], order_budget=2000))
    assert (row.depth, (row.witness_x, row.witness_y), row.moduli) == (depth, witness, moduli)
    assert row.exhaustive and not row.budget_exhausted


def test_growth_rows_csv(tmp_path):
    rows = [GrowthRow(1, "id", 3, (1, 0, 0), (0, 1, 0), (3, 1, 1))]
    path = tmp_path / "rows.csv"
    growth_rows_to_csv(rows, str(path))
    text = path.read_text()
    assert "n,phi,depth" in text and "3,1;0;0" in text


def test_tconj_mode_filters_by_norm():
    fam = [("id", identity_automorphism(H3)),
           ("big", heisenberg_automorphism(H3, [[2, 1], [1, 1]]))]
    cfg = ExperimentConfig(H3, fam, [1], order_budget=100, tconj=True)
    rows = measure_conj_growth(cfg)
    assert {r.phi_id for r in rows} == {"id"}
    # the aggregated row dominates every member row by construction
    cfg_all = ExperimentConfig(H3, fam, [2], order_budget=300)
    all_rows = measure_conj_growth(cfg_all)
    tconj_value = max(r.depth for r in all_rows)
    for r in all_rows:
        assert tconj_value >= r.depth


def test_radius_zero_row_is_empty():
    cfg = ExperimentConfig(H3, [("id", identity_automorphism(H3))], [0])
    rows = measure_conj_growth(cfg)
    assert rows[0].depth == 0 and rows[0].witness_x is None


def test_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig(H3, [], [3, 2, 1])
    with pytest.raises(ValidationError):
        ExperimentConfig(H3, [], [1], ball_cap=0)


def test_dim5_scenario_quick():
    res = dim5_scenario(samples=8, max_norm=16, growth_radii=())
    assert res["n2_matches"]
    assert res["psi_b1"] == (0, 0)
    assert res["psi_b2"] == (-1, 0)
    assert res["sqrt_fit_exponent"] <= 0.6
    assert res["central_quotient_hirsch"] == (3, 3)


@pytest.mark.parametrize("samples", [0, -5])
def test_sampled_certificates_need_a_sample(samples):
    # case 2 with determinant -1: the uniform witness claim would hold
    # vacuously over no sampled twist
    flip = heisenberg_automorphism(H3, [[1, 0], [0, -1]])
    assert heisenberg_case(H3, flip, samples=1)["uniform_witness_z2"]
    with pytest.raises(ValidationError, match="samples must be at least 1"):
        heisenberg_case(H3, flip, samples=samples)
    with pytest.raises(ValidationError, match="samples must be at least 1"):
        dim5_scenario(samples=samples, max_norm=6, growth_radii=())


def test_dim5_scenario_names_the_least_max_norm():
    # max_norm 5 leaves the norm rows 2 and 4, too few for the fit
    with pytest.raises(ValidationError, match="max_norm must be at least 6"):
        dim5_scenario(samples=2, max_norm=5, growth_radii=())
