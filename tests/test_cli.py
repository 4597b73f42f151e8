import json

from twistsep.cli import main
from twistsep.groups import heisenberg
from twistsep.serialize import dump_json, presentation_to_dict


def test_group_verify_builtin(capsys):
    assert main(["group", "verify", "heisenberg"]) == 0
    out = capsys.readouterr().out
    assert "class 2" in out


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
