"""Fuzz the CLI loaders: element strings, heis: and abelian: specs, and the
three kinds of JSON file (presentation, automorphism, growth config). Every
input must end in exit code 0, 1 or 2 with no exception escaping main."""

import contextlib
import io
import json
import os
import re
import tempfile

from hypothesis import given, settings, strategies as st

from twistsep.cli import main

FUZZ = settings(max_examples=40, deadline=None, database=None)

small_int = st.integers(-3, 3)
names = st.sampled_from(["x", "y", "z", "w"])
scalars = st.one_of(small_int, st.text(max_size=4), st.sampled_from(["1", "-1", "x"]),
                    st.booleans(), st.none())
values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(names | st.text(max_size=3), inner, max_size=3), max_leaves=6)
int_lists = st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=5).map(
    lambda v: ",".join(map(str, v)))
elements = st.one_of(st.text(max_size=8), int_lists,
                     st.lists(small_int, min_size=3, max_size=3).map(
                         lambda v: ",".join(map(str, v))))
heis_specs = st.one_of(st.text(max_size=8),
                       st.lists(small_int, max_size=7).map(
                           lambda v: ",".join(map(str, v)))).map(lambda t: "heis:" + t)
abelian_specs = st.one_of(st.text(max_size=4), st.integers(-2, 4).map(str)).map(
    lambda t: "abelian:" + t)


def _run(argv, usage_error_ok=False):
    """main(argv) with its output captured; argparse may end a usage error
    (exit 2) or --help (exit 0) only where usage_error_ok."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        assert usage_error_ok, (argv, exc.code, err.getvalue())
        code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    return code


@contextlib.contextmanager
def _fresh_directory():
    """A new temporary directory as the working directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        os.chdir(d)
        try:
            yield d
        finally:
            os.chdir(cwd)


def _run_on_file(content, argv_for):
    """Write content to a file in a fresh directory, which is also the
    working directory, and run the command argv_for(path)."""
    with _fresh_directory() as d:
        path = os.path.join(d, "input.json")
        with open(path, "w") as fh:
            fh.write(content)
        return _run(argv_for(path))


INT_LIST = re.compile(r"(-?[0-9]+(,-?[0-9]+)*)?")


@FUZZ
@given(x=elements, y=elements, group=st.sampled_from(["heisenberg", "abelian:2", "dim5"]))
def test_fuzz_elements(x, y, group):
    # an element such as -1,0,0 is a value wherever it stands; any other
    # text may read as an option, such as --output, so the commands run in
    # a fresh directory
    usage_error_ok = not (INT_LIST.fullmatch(x) and INT_LIST.fullmatch(y))
    with _fresh_directory():
        _run(["twisted", "decide", group, "id", x, y], usage_error_ok)
        _run(["depth", group, "id", "--order-budget", "30", x, y], usage_error_ok)


@FUZZ
@given(spec=heis_specs, group=st.sampled_from(["heisenberg", "abelian:3"]))
def test_fuzz_heis_specs(spec, group):
    _run(["twisted", "decide", group, spec, "1,0,0", "1,0,1"])
    _run(["twisted", "chain", group, spec])


@FUZZ
@given(spec=abelian_specs)
def test_fuzz_abelian_specs(spec):
    _run(["group", "verify", spec])
    _run(["twisted", "chain", spec, "id"])


def _objects(fields):
    """Objects with any subset of the given keys, each value drawn from its
    strategy or from arbitrary small JSON values."""
    return st.fixed_dictionaries({}, optional={k: v | values for k, v in fields.items()})


weights = st.dictionaries(names, st.integers(1, 3) | st.sampled_from(["1", "2"]), max_size=4)
exponents = st.dictionaries(names, small_int | small_int.map(str), max_size=3)
presentations = _objects({
    "basis": st.lists(names, max_size=4),
    "weights": weights,
    "commutators": st.dictionaries(st.tuples(names, names).map(",".join), exponents,
                                   max_size=3),
    "class": st.integers(0, 3),
})
automorphisms = st.one_of(
    _objects({"images": st.dictionaries(names, st.lists(small_int, max_size=4),
                                        max_size=3)}),
    st.dictionaries(names, st.lists(small_int | small_int.map(str), max_size=4),
                    max_size=3))
config_fields = _objects({
    "group": st.sampled_from(["heisenberg", "abelian:1", "abelian:2", "abelian:0"]),
    "automorphisms": st.lists(st.sampled_from(["id", "heis:0,1,1,0", "heis:2"]),
                              max_size=2),
    "radii": st.lists(st.integers(-1, 2), max_size=3),
    "order_budget": st.integers(-1, 40),
    "ball_cap": st.integers(-1, 40),
    "mode": st.sampled_from(["exhaustive", "sampled", "sampeld"]),
    "sample_pairs": st.integers(-1, 5),
    "seed": small_int,
    "tconj": st.booleans(),
})
# output paths are plain names, so the test writes only inside its
# directory; other types stay arbitrary
paths = st.sampled_from(["rows.csv", "", "missing/rows.csv"]) | small_int | st.none() \
    | st.lists(small_int, max_size=2)
growth_configs = st.builds(lambda cfg, files: {**cfg, **files}, config_fields,
                           st.fixed_dictionaries({}, optional={"output": paths,
                                                               "plot_script": paths}))
json_texts = st.text(max_size=30)


@FUZZ
@given(doc=st.one_of(presentations.map(json.dumps), json_texts))
def test_fuzz_presentation_files(doc):
    _run_on_file(doc, lambda path: ["group", "verify", path])
    _run_on_file(doc, lambda path: ["twisted", "chain", path, "id"])


@FUZZ
@given(doc=st.one_of(automorphisms.map(json.dumps), json_texts))
def test_fuzz_automorphism_files(doc):
    _run_on_file(doc, lambda path: ["twisted", "decide", "heisenberg", path,
                                    "1,0,0", "1,0,1"])


@FUZZ
@given(doc=st.one_of(growth_configs.map(json.dumps), json_texts))
def test_fuzz_growth_configs(doc):
    _run_on_file(doc, lambda path: ["growth", path])
