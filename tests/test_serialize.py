import json

import pytest

from twistsep.errors import ValidationError
from twistsep.groups import dim5, dim5_automorphism, heisenberg
from twistsep.serialize import (chain_to_dict, depth_result_to_dict,
                                hom_from_dict, hom_to_dict, matrix_to_json,
                                presentation_from_dict, presentation_to_dict,
                                witness_to_dict)
from twistsep.twisted import TwistedChain, is_twisted_conjugate
from twistsep.malcev import identity_automorphism

H3 = heisenberg()
D5 = dim5()


def test_presentation_round_trip():
    for pres in (H3, D5):
        data = json.loads(json.dumps(presentation_to_dict(pres)))
        back = presentation_from_dict(data)
        assert back.basis == pres.basis
        assert back.weights == pres.weights
        assert back.commutators == pres.commutators


def test_presentation_decimal_strings():
    data = presentation_to_dict(H3)
    assert data["commutators"]["y,x"]["z"] == "-1"
    big = {
        "basis": ["x", "y", "z"],
        "weights": {"x": 1, "y": 1, "z": 2},
        "commutators": {"y,x": {"z": str(-(10 ** 30))}},
        "class": 2,
    }
    pres = presentation_from_dict(big)
    assert pres.commutators[(1, 0)][2] == -(10 ** 30)


def test_presentation_errors():
    with pytest.raises(ValidationError):
        presentation_from_dict({"basis": ["x"], "weights": {"x": 1},
                                "commutators": {"x,q": {}}})
    with pytest.raises(ValidationError):
        presentation_from_dict({"basis": ["x", "y", "z"],
                                "weights": {"x": 1, "y": 1, "z": 2},
                                "commutators": {"x,y": {"z": "1"}}})


def test_hom_round_trip():
    phi = dim5_automorphism(D5)
    back = hom_from_dict(json.loads(json.dumps(hom_to_dict(phi))), D5)
    assert back.images == phi.images


def test_matrix_round_trip():
    M = [[10 ** 25, -3], [0, 7]]
    data = json.loads(json.dumps(matrix_to_json(M)))
    assert data == [[str(10 ** 25), "-3"], ["0", "7"]]
    assert [[int(e) for e in row] for row in data] == M


def test_chain_and_witness_dumps():
    chain = TwistedChain(H3, identity_automorphism(H3))
    data = chain_to_dict(chain)
    assert data["twisted_determinant"] == "1"
    assert len(data["levels"]) == 2
    res = is_twisted_conjugate(H3, identity_automorphism(H3),
                               (2, 0, 0), (2, 0, 2))
    wd = witness_to_dict(H3, identity_automorphism(H3), res)
    assert wd["verified"]
    assert wd["lhs"] == wd["y"]


def test_depth_result_dict():
    from twistsep.quotients import DepthResult
    d = depth_result_to_dict((1, 0, 0), (0, 1, 0), "id",
                             DepthResult(True, 8, (2, 2, 2)))
    assert d["order"] == "8" and d["moduli"] == ["2", "2", "2"]
