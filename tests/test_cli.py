import json

import pytest

from twistsep.cli import main
from twistsep.groups import heisenberg
from twistsep.malcev import MAX_HIRSCH_LENGTH, MalcevPresentation
from twistsep.serialize import dump_json, presentation_to_dict


def test_group_verify_builtin(capsys):
    assert main(["group", "verify", "heisenberg"]) == 0
    out = capsys.readouterr().out
    assert "class 2" in out
    # no pair of Z^200 has a relation, so no overlap triple is checked
    assert main(["group", "verify", "abelian:200"]) == 0
    assert "200 generators" in capsys.readouterr().out


def test_group_verify_file(tmp_path, capsys):
    path = tmp_path / "h3.json"
    dump_json(presentation_to_dict(heisenberg()), str(path))
    assert main(["group", "verify", str(path)]) == 0


def test_group_verify_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "basis": ["x", "y"], "weights": {"x": 1, "y": 1},
        "commutators": {"y,x": {"x": "1"}}, "class": 1}))
    assert main(["group", "verify", str(path)]) == 1


def test_twisted_chain_and_decide(capsys):
    assert main(["twisted", "chain", "heisenberg", "heis:0,1,1,0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["twisted_determinant"] == "1"
    assert main(["twisted", "decide", "heisenberg", "id", "2,0,0", "2,0,2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verified"]
    assert main(["twisted", "decide", "heisenberg", "id", "2,0,0", "2,0,1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["conjugate"] is False


def test_depth_command(capsys):
    assert main(["depth", "heisenberg", "id", "3,0,0", "3,0,1",
                 "--order-budget", "100"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == "27"


def test_depth_budget_exit_code(capsys):
    assert main(["depth", "heisenberg", "id", "3,0,0", "3,0,1",
                 "--order-budget", "5"]) == 2


@pytest.mark.parametrize("option, value", [
    ("--order-budget", "0"), ("--order-budget", "-5"),
    ("--modulus-budget", "0"), ("--modulus-budget", "-3"),
])
def test_depth_budgets_below_one_are_refused(option, value, capsys):
    # a budget below 1 scans nothing, which is a usage error, not exhaustion
    assert main(["depth", "heisenberg", "id", "2,0,0", "2,0,1", option, value]) == 1
    name = option[2:].replace("-", " ")
    assert f"error: {name} must be at least 1, got {value}" in capsys.readouterr().err


def test_depth_exhaustion_names_both_budgets(capsys):
    # depth 27 needs the modulus 3, so the modulus budget stops this scan
    assert main(["depth", "heisenberg", "id", "3,0,0", "3,0,1",
                 "--order-budget", "500", "--modulus-budget", "2"]) == 2
    assert "within the order and modulus budgets (500, 2)" in capsys.readouterr().err
    assert main(["depth", "heisenberg", "id", "3,0,0", "3,0,1", "--order-budget", "5"]) == 2
    assert "within the order budget 5" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["depth", "heisenberg", "id", "1,0,0", "--bogus"],
    ["twisted", "decide", "heisenberg", "id", "1,0,0"],
    ["bogus"],
], ids=["unknown-option", "missing-argument", "unknown-command"])
def test_usage_error_exits_one(argv, capsys):
    # exit 2 is kept for an exhausted budget
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_dim5_max_norm_below_six_is_error(capsys):
    assert main(["examples", "dim5", "--samples", "2", "--max-norm", "5"]) == 1
    assert "max_norm must be at least 6" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_dim5_without_samples_is_error(samples, capsys):
    # "n2_matches" over no sample would be vacuously true
    assert main(["examples", "dim5", "--samples", samples]) == 1
    captured = capsys.readouterr()
    assert "samples must be at least 1" in captured.err
    assert "n2_matches" not in captured.out


def test_depth_conjugate_pair_is_error(capsys):
    assert main(["depth", "heisenberg", "id", "1,0,0", "1,0,0"]) == 1


def test_growth_command(tmp_path, capsys):
    cfg = {
        "group": "abelian:1",
        "automorphisms": ["id"],
        "radii": [1, 2, 3],
        "order_budget": 50,
        "output": str(tmp_path / "rows.csv"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["growth", str(cfg_path)]) == 0
    assert (tmp_path / "rows.csv").exists()


def test_examples_and_witness(capsys):
    assert main(["examples", "heisenberg", "--phi", "heis:0,1,1,0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["case"] == 2
    assert main(["witness", "lower-bound", "--primes", "2,3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [w["depth"] for w in data] == [8, 27]


@pytest.mark.parametrize("radius, rows", [
    (3, {"central_pair_rows": []}),
    (6, {"central_pair_rows": [[4, 8], [5, 27], [6, 27]], "fit_exponent": 3.09, "r2": 0.798}),
], ids=["radius-3", "radius-6"])
def test_examples_heisenberg_growth_prints_rows_and_fits_from_three(radius, rows, capsys):
    # the pairs (x^p, x^p z) for p = 2, 3, 5 enter the ball at radii 4, 5 and 7
    assert main(["examples", "heisenberg", "--growth", str(radius)]) == 0
    out = capsys.readouterr().out
    report, last = out.rstrip("\n").rsplit("\n", 1)
    assert json.loads(report)["case"] == 3
    assert json.loads(last) == rows


def _non_automorphism(tmp_path):
    # x -> x^2, z -> z^2: a homomorphism of H3 with layer determinant 2
    from twistsep.malcev import GroupHom
    from twistsep.serialize import hom_to_dict
    H = heisenberg()
    path = tmp_path / "phi.json"
    dump_json(hom_to_dict(GroupHom(H, H, [(2, 0, 0), (0, 1, 0), (0, 0, 2)])), str(path))
    return str(path)


def test_twisted_chain_rejects_non_automorphism(tmp_path, capsys):
    assert main(["twisted", "chain", "heisenberg", _non_automorphism(tmp_path)]) == 1


def test_twisted_decide_rejects_non_automorphism(tmp_path, capsys):
    assert main(["twisted", "decide", "heisenberg", _non_automorphism(tmp_path),
                 "2,0,0", "2,0,1"]) == 1


def test_depth_rejects_non_automorphism(tmp_path, capsys):
    assert main(["depth", "heisenberg", _non_automorphism(tmp_path),
                 "3,0,0", "3,0,1", "--order-budget", "100"]) == 1


def test_growth_rejects_non_automorphism(tmp_path, capsys):
    cfg = {
        "group": "heisenberg",
        "automorphisms": [_non_automorphism(tmp_path)],
        "radii": [1],
        "order_budget": 50,
        "output": str(tmp_path / "rows.csv"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["growth", str(cfg_path)]) == 1
    assert not (tmp_path / "rows.csv").exists()


def _assert_input_error(argv, capsys):
    assert main(argv) == 1
    assert any(line.startswith("error:")
               for line in capsys.readouterr().err.splitlines())


def test_hirsch_length_is_capped_on_every_route(tmp_path, capsys):
    assert main(["group", "verify", "abelian:1000"]) == 0
    big = MAX_HIRSCH_LENGTH + 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"basis": [f"e{i}" for i in range(big)],
                                "weights": {f"e{i}": 1 for i in range(big)}}))
    # the abelian: spec is refused before any generator is built
    for ref in (f"abelian:{big}", "abelian:1000000000", str(path)):
        assert main(["group", "verify", ref]) == 2
        assert "Hirsch length" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["abelian:x", "abelian:-1", "abelian:0"])
def test_bad_abelian_spec_is_error(spec, capsys):
    _assert_input_error(["group", "verify", spec], capsys)


def test_heis_spec_with_determinant_two_is_error(capsys):
    _assert_input_error(["twisted", "decide", "heisenberg", "heis:2,0,0,1",
                         "1,0,0", "1,0,1"], capsys)


def test_heis_spec_with_three_entries_is_error(capsys):
    _assert_input_error(["twisted", "decide", "heisenberg", "heis:1,0,0",
                         "1,0,0", "1,0,1"], capsys)


def test_non_integer_element_is_error(capsys):
    _assert_input_error(["twisted", "decide", "heisenberg", "id",
                         "1,x,0", "1,0,1"], capsys)


def _non_associative_group(tmp_path):
    # weights (1,1,2,3,4): collection is polynomial but the overlap
    # (c,b,a) is not associative, so group verify rejects it
    pres = MalcevPresentation(list("abcde"), [1, 1, 2, 3, 4], {
        (1, 0): (0, 0, 0, -1, 0), (2, 0): (0, 0, 0, -1, 1),
        (3, 1): (0, 0, 0, 0, -1)})
    path = tmp_path / "nonassoc.json"
    dump_json(presentation_to_dict(pres), str(path))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["twisted", "decide", "{g}", "id", "1,0,0,0,0", "1,0,0,0,1"],
    ["twisted", "chain", "{g}", "id"],
    ["depth", "{g}", "id", "1,0,0,0,0", "0,1,0,0,0", "--order-budget", "100"],
    ["growth", "{cfg}"],
], ids=["twisted-decide", "twisted-chain", "depth", "growth"])
def test_commands_reject_a_presentation_group_verify_rejects(argv, tmp_path, capsys):
    group = _non_associative_group(tmp_path)
    assert main(["group", "verify", group]) == 1
    assert "FAIL: overlap (c,b,a) is not associative" in capsys.readouterr().out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": group, "automorphisms": ["id"], "radii": [1],
                               "order_budget": 50,
                               "output": str(tmp_path / "rows.csv")}))
    assert main([a.format(g=group, cfg=cfg) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overlap (c,b,a) is not associative" in captured.err
    assert not (tmp_path / "rows.csv").exists()


_H3_DATA = presentation_to_dict(heisenberg())
_GROWTH = {"group": "heisenberg", "automorphisms": ["id"], "radii": [1], "order_budget": 50}


# the three kinds of JSON file the CLI reads, each in a command
_FILE_COMMANDS = {
    "group": ["group", "verify", "{}"],
    "phi": ["twisted", "decide", "heisenberg", "{}", "2,0,0", "2,0,1"],
    "growth": ["growth", "{}"],
}


@pytest.mark.parametrize("kind, text", [
    ("growth", '{"group": "heisenberg",'),
    ("group", "basis: [x]"),
    ("phi", "{'images': {}}"),
    ("growth", json.dumps([_GROWTH])),
    ("group", json.dumps([_H3_DATA])),
    ("phi", json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1]])),
    ("group", json.dumps(dict(_H3_DATA, weights={"x": 1, "y": 1}))),
    ("group", json.dumps(dict(_H3_DATA, commutators=[]))),
    ("growth", json.dumps({k: v for k, v in _GROWTH.items() if k != "automorphisms"})),
    ("growth", json.dumps(dict(_GROWTH, mode="sampeld"))),
    ("growth", json.dumps(dict(_GROWTH, mode="sampled", sample_pairs=0))),
], ids=["growth-malformed", "group-malformed", "phi-malformed", "growth-list",
        "group-list", "phi-list", "weights-miss-a-name", "commutators-list",
        "growth-without-automorphisms", "growth-mode-typo", "growth-no-samples"])
def test_bad_json_input_is_error(kind, text, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / f"{kind}.json"
    path.write_text(text)
    _assert_input_error([a.format(path) for a in _FILE_COMMANDS[kind]], capsys)
    assert not (tmp_path / "growth.csv").exists()


@pytest.mark.parametrize("argv, conjugate", [
    (["twisted", "decide", "heisenberg", "id", "-1,0,0", "1,0,0"], False),
    (["twisted", "decide", "heisenberg", "id", "-1,0,0", "-1,0,3"], True),
    (["twisted", "decide", "heisenberg", "id", "--output", "w.json", "-1,0,0", "-1,0,3"],
     True),
], ids=["not-conjugate", "conjugate", "option-first"])
def test_decide_reads_elements_that_start_with_minus(argv, conjugate, tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    if conjugate:
        assert data["verified"]
    else:
        assert data["conjugate"] is False


@pytest.mark.parametrize("argv", [
    ["depth", "heisenberg", "id", "-3,0,0", "-3,0,1", "--order-budget", "100"],
    ["depth", "heisenberg", "id", "--order-budget", "100", "-3,0,0", "-3,0,1"],
], ids=["option-last", "option-first"])
def test_depth_reads_elements_that_start_with_minus(argv, capsys):
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == "27"


def test_decide_writes_a_non_conjugate_answer_to_output(tmp_path, capsys):
    path = tmp_path / "answer.json"
    assert main(["twisted", "decide", "heisenberg", "id", "1,0,0", "0,1,0",
                 "--output", str(path)]) == 0
    printed = capsys.readouterr().out
    assert json.loads(printed)["conjugate"] is False
    assert path.read_text() == printed


def test_dim5_growth_prints_its_rows(capsys):
    assert main(["examples", "dim5", "--samples", "2", "--max-norm", "6"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(["examples", "dim5", "--samples", "2", "--max-norm", "6", "--growth"]) == 0
    data = json.loads(capsys.readouterr().out)
    rows = data.pop("growth_rows")
    assert data == plain
    assert [row["n"] for row in rows] == [1, 2]
    assert all(set(row) == {"n", "depth", "moduli", "exhaustive", "budget_exhausted"}
               and row["depth"] > 0 for row in rows)
