"""JSON interchange. All integers travel as decimal strings so that
arbitrary-precision values survive any JSON reader."""

import json

from .errors import ValidationError
from .malcev import GroupHom, MalcevPresentation


def _encode_int(n):
    return str(n)


def _decode_int(v):
    if isinstance(v, bool):
        raise ValidationError("booleans are not integers")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        try:
            return int(v, 10)
        except ValueError as exc:
            raise ValidationError(f"bad integer literal {v!r}") from exc
    raise ValidationError(f"expected an integer, got {type(v).__name__}")


def _decode_vector(v, length):
    if not isinstance(v, list):
        raise ValidationError(f"expected a list of integers, got {type(v).__name__}")
    out = tuple(_decode_int(x) for x in v)
    if len(out) != length:
        raise ValidationError("exponent vector has the wrong length")
    return out


def presentation_to_dict(pres):
    comms = {}
    for (j, i), vec in pres.commutators.items():
        key = f"{pres.basis[j]},{pres.basis[i]}"
        comms[key] = {pres.basis[t]: _encode_int(e)
                      for t, e in enumerate(vec) if e}
    return {
        "basis": list(pres.basis),
        "weights": {name: pres.weights[i] for i, name in enumerate(pres.basis)},
        "commutators": comms,
        "class": pres.nilpotency_class,
    }


def presentation_from_dict(data):
    try:
        basis, weights = data["basis"], data["weights"]
    except KeyError as exc:
        raise ValidationError(f"presentation file missing field {exc}") from exc
    if (not isinstance(basis, list) or not all(isinstance(name, str) for name in basis)
            or len(set(basis)) != len(basis)):
        raise ValidationError("basis must be a list of distinct generator names")
    if not isinstance(weights, dict) or set(weights) != set(basis):
        raise ValidationError("weights must give the weight of each basis name and no other")
    weights = {k: _decode_int(v) for k, v in weights.items()}
    commutators = data.get("commutators", {})
    if not isinstance(commutators, dict):
        raise ValidationError("commutators must map 'later,earlier' keys to exponents")
    index = {name: i for i, name in enumerate(basis)}
    comms = {}
    for key, support in commutators.items():
        try:
            jname, iname = key.split(",")
            j, i = index[jname.strip()], index[iname.strip()]
        except (ValueError, KeyError) as exc:
            raise ValidationError(f"bad commutator key {key!r}") from exc
        if not isinstance(support, dict):
            raise ValidationError(f"commutator {key!r} must map generator names to exponents")
        vec = [0] * len(basis)
        for name, e in support.items():
            if name not in index:
                raise ValidationError(f"unknown generator {name!r} in commutator")
            vec[index[name]] = _decode_int(e)
        if j < i:
            raise ValidationError(
                f"commutator key {key!r} must list the later generator first")
        comms[(j, i)] = tuple(vec)
    cls = data.get("class")
    return MalcevPresentation(basis, weights, comms,
                              nilpotency_class=None if cls is None else _decode_int(cls))


def hom_to_dict(hom):
    return {
        "images": {hom.domain.basis[i]:
                   [_encode_int(e) for e in img]
                   for i, img in enumerate(hom.images)},
    }


def hom_from_dict(data, domain):
    images = []
    imgs = data.get("images", data)
    if not isinstance(imgs, dict):
        raise ValidationError("automorphism images must map generator names to vectors")
    for name in domain.basis:
        if name not in imgs:
            raise ValidationError(f"automorphism file misses the image of {name!r}")
        images.append(_decode_vector(imgs[name], domain.h))
    return GroupHom(domain, domain, images)


def matrix_to_json(M):
    return [[_encode_int(e) for e in row] for row in M]


def chain_to_dict(chain):
    p = chain.pres
    out = {"levels": [], "fixed": [list(map(_encode_int, g))
                                   for g in chain.fixed.generators()]}
    for lv in chain.levels:
        out["levels"].append({
            "level": lv.level,
            "generators": [list(map(_encode_int, g)) for g in lv.seq.generators()],
            "psi_matrix": matrix_to_json(lv.psi_rows),
            "determinant": _encode_int(lv.determinant),
        })
    if len(chain.maps) == 1:
        ds, D = chain.determinants()
        out["twisted_determinant"] = _encode_int(D)
    return out


def witness_to_dict(pres, phi, witness):
    lhs = pres.mult(pres.mult(witness.z, witness.x), pres.inv(phi.apply(witness.z)))
    return {
        "z": [_encode_int(e) for e in witness.z],
        "x": [_encode_int(e) for e in witness.x],
        "y": [_encode_int(e) for e in witness.y],
        "lhs": [_encode_int(e) for e in lhs],
        "verified": lhs == witness.y,
    }


def depth_result_to_dict(x, y, phi_id, result):
    return {
        "x": [_encode_int(e) for e in x],
        "y": [_encode_int(e) for e in y],
        "phi": phi_id,
        "separated": result.separated,
        "order": None if result.order is None else _encode_int(result.order),
        "moduli": None if result.moduli is None else [_encode_int(m) for m in result.moduli],
        "budget_exhausted": result.budget_exhausted,
    }


def load_json(path):
    """The JSON object in the file at path. Text that is not JSON, or JSON
    that is not an object, raises a ValidationError."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path} holds a JSON {type(data).__name__}, not an object")
    return data


def dump_json(data, path=None):
    text = json.dumps(data, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text
