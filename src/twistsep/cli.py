"""Command line interface.

Subcommands: group verify, twisted chain, twisted decide, depth, growth,
examples heisenberg, examples dim5, witness lower-bound. Exit code 0 on
success, 1 on validation errors, 2 on budget exhaustion.
"""

import argparse
import dataclasses
import json
import re
import sys

from .errors import BudgetExceededError, PreconditionError, TwistsepError, ValidationError
from . import groups, serialize
from .growth import (ExperimentConfig, dim5_scenario, fit_exponent,
                     growth_rows_to_csv, heisenberg_case,
                     heisenberg_central_pair_rows, lower_bound_witnesses,
                     measure_conj_growth, plot_script_for)
from .malcev import identity_automorphism, verify_hom, verify_presentation
from .quotients import congruence_depth
from .twisted import TwistedChain, TwistedWitness, is_twisted_conjugate


_BUILTIN_GROUPS = {"heisenberg": groups.heisenberg, "dim5": groups.dim5}


class _Parser(argparse.ArgumentParser):
    """Reads -1,0,0 as a value; argparse before Python 3.13 reads an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d[\d,-]*$")


def _read_group(ref):
    """The built-in group ref names (heisenberg, dim5, abelian:k with
    k >= 1), or the presentation in the JSON file ref, unverified."""
    if ref in _BUILTIN_GROUPS:
        return _BUILTIN_GROUPS[ref]()
    if ref.startswith("abelian:"):
        ks = _parse_ints(ref.split(":", 1)[1], "abelian: spec")
        if len(ks) != 1 or ks[0] < 1:
            raise ValidationError(f"abelian: spec {ref!r} needs one integer k >= 1")
        return groups.free_abelian(ks[0])
    return serialize.presentation_from_dict(serialize.load_json(ref))


def _load_group(ref):
    """_read_group(ref); a presentation from a file must also pass
    verify_presentation, else a ValidationError lists its problems."""
    pres = _read_group(ref)
    if ref in _BUILTIN_GROUPS or ref.startswith("abelian:"):
        return pres
    problems = verify_presentation(pres)
    if problems:
        raise ValidationError(
            "presentation verification failed: " + "; ".join(problems))
    return pres


def _parse_ints(text, what):
    try:
        return [int(t) for t in text.split(",")]
    except ValueError as exc:
        raise ValidationError(
            f"{what} {text!r} is not a comma-separated list of integers") from exc


def _load_phi(ref, pres):
    """The automorphism named by ref, verified to be one."""
    if ref == "id":
        phi = identity_automorphism(pres)
    elif ref.startswith("heis:"):
        vals = _parse_ints(ref.split(":", 1)[1], "heis: spec")
        if len(vals) == 4:
            vals += [0, 0]
        if len(vals) != 6:
            raise ValidationError(
                f"heis: spec {ref!r} needs 4 or 6 integers a,b,c,d[,e,f]")
        a, b, c, d, e, f = vals
        phi = groups.heisenberg_automorphism(pres, [[a, b], [c, d]], e, f)
    else:
        phi = serialize.hom_from_dict(serialize.load_json(ref), pres)
    problems = verify_hom(phi, check_automorphism=True)
    if problems:
        raise ValidationError("; ".join(problems))
    return phi


def _parse_element(text, pres):
    return pres.check_element(_parse_ints(text, "element"))


def cmd_group_verify(args):
    pres = _read_group(args.group)
    problems = verify_presentation(pres)
    if problems:
        for p in problems:
            print("FAIL:", p)
        raise ValidationError("presentation verification failed")
    print(f"ok: {len(pres.basis)} generators, class {pres.nilpotency_class}, "
          f"hirsch {pres.h}")


def cmd_twisted_chain(args):
    pres = _load_group(args.group)
    phi = _load_phi(args.phi, pres)
    chain = TwistedChain(pres, phi)
    print(serialize.dump_json(serialize.chain_to_dict(chain), args.output))


def cmd_twisted_decide(args):
    pres = _load_group(args.group)
    phi = _load_phi(args.phi, pres)
    x = _parse_element(args.x, pres)
    y = _parse_element(args.y, pres)
    res = is_twisted_conjugate(pres, phi, x, y)
    if isinstance(res, TwistedWitness):
        print(serialize.dump_json(serialize.witness_to_dict(pres, phi, res),
                                  args.output))
    else:
        print(serialize.dump_json({"conjugate": False, "obstruction_level": res.level,
                                   "obstruction": list(res.obstruction)}, args.output))


def cmd_depth(args):
    pres = _load_group(args.group)
    phi = _load_phi(args.phi, pres)
    x = _parse_element(args.x, pres)
    y = _parse_element(args.y, pres)
    res = congruence_depth(pres, phi, x, y, order_budget=args.order_budget,
                           modulus_budget=args.modulus_budget)
    print(serialize.dump_json(serialize.depth_result_to_dict(x, y, args.phi, res),
                              args.output))
    if not res.separated:  # either budget may have stopped the scan
        budget, limit = ("order budget", args.order_budget) if args.modulus_budget is None \
            else ("order and modulus budgets", (args.order_budget, args.modulus_budget))
        raise BudgetExceededError(f"no separating congruence quotient within the {budget} {limit}",
                                  budget=budget, limit=limit)


def cmd_growth(args):
    cfg = serialize.load_json(args.config)
    settable = {f.name for f in dataclasses.fields(ExperimentConfig)}
    missing = sorted({"group", "automorphisms", "radii"} - set(cfg))
    unknown = sorted(set(cfg) - settable - {"output", "plot_script"})
    if missing:
        raise ValidationError(f"growth config misses {', '.join(missing)}")
    if unknown:
        raise ValidationError(f"growth config has unknown keys {', '.join(unknown)}")
    out, plot = cfg.pop("output", "growth.csv"), cfg.pop("plot_script", "")
    refs = cfg["automorphisms"]
    if not (all(isinstance(v, str) for v in (cfg["group"], out, plot))
            and isinstance(refs, list) and all(isinstance(r, str) for r in refs)):
        raise ValidationError("growth config: group, output and plot_script must be "
                              "strings, and automorphisms a list of strings")
    pres = _load_group(cfg["group"])
    autos = [(ref, _load_phi(ref, pres)) for ref in refs]
    config = ExperimentConfig(**dict(cfg, group=pres, automorphisms=autos))
    rows = measure_conj_growth(config)
    growth_rows_to_csv(rows, out)
    if plot:
        plot_script_for(out, plot)
    usable = [(r.n, r.depth) for r in rows if r.depth > 0]
    print(f"wrote {len(rows)} rows to {out}")
    if len(usable) >= 3:
        expo, r2 = fit_exponent(usable)
        print(f"fitted exponent {expo:.3f} (r2 {r2:.3f})")
    if any(r.budget_exhausted for r in rows):
        raise BudgetExceededError("some rows hit the order budget",
                                  budget="order budget", limit=config.order_budget)


def cmd_examples_heisenberg(args):
    pres = groups.heisenberg()
    phi = _load_phi(args.phi, pres)
    report = heisenberg_case(pres, phi)
    print(json.dumps(report, indent=2))
    if report["case"] == 3 and args.growth:
        rows = heisenberg_central_pair_rows(list(range(1, args.growth + 1)))
        out = {"central_pair_rows": rows}
        if len(rows) >= 3:
            expo, r2 = fit_exponent(rows)
            out.update(fit_exponent=round(expo, 3), r2=round(r2, 3))
        print(json.dumps(out))


def cmd_examples_dim5(args):
    res = dim5_scenario(samples=args.samples, max_norm=args.max_norm,
                        growth_radii=(1, 2) if args.growth else ())
    printable = {
        "n2_matches": res["n2_matches"],
        "psi_b1": list(res["psi_b1"]),
        "psi_b2": list(res["psi_b2"]),
        "sqrt_fit_exponent": round(res["sqrt_fit_exponent"], 3),
        "central_quotient_hirsch": list(res["central_quotient_hirsch"]),
    }
    if args.growth:
        fields = ("n", "depth", "moduli", "exhaustive", "budget_exhausted")
        printable["growth_rows"] = [{k: getattr(r, k) for k in fields} for r in res["growth_rows"]]
    print(json.dumps(printable, indent=2))


def cmd_witness_lower_bound(args):
    primes = _parse_ints(args.primes, "--primes")
    out = lower_bound_witnesses(primes)
    printable = [{"prime": w["prime"], "depth": w["depth"],
                  "moduli": list(w["moduli"])} for w in out]
    print(json.dumps(printable, indent=2))


def build_parser():
    ap = _Parser(
        prog="twistsep",
        description="exact twisted conjugacy tools for nilpotent groups")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group", help="presentation utilities")
    gsub = g.add_subparsers(dest="subcommand", required=True)
    gv = gsub.add_parser("verify", help="verify a presentation file")
    gv.add_argument("group")
    gv.set_defaults(func=cmd_group_verify)

    t = sub.add_parser("twisted", help="twisted conjugacy computations")
    tsub = t.add_subparsers(dest="subcommand", required=True)
    tc = tsub.add_parser("chain", help="compute the twisted centralizer chain")
    tc.add_argument("group")
    tc.add_argument("phi")
    tc.add_argument("--output")
    tc.set_defaults(func=cmd_twisted_chain)
    td = tsub.add_parser("decide", help="decide twisted conjugacy of two elements")
    td.add_argument("group")
    td.add_argument("phi")
    td.add_argument("x")
    td.add_argument("y")
    td.add_argument("--output")
    td.set_defaults(func=cmd_twisted_decide)

    d = sub.add_parser("depth", help="smallest separating congruence quotient")
    d.add_argument("group")
    d.add_argument("phi")
    d.add_argument("x")
    d.add_argument("y")
    d.add_argument("--order-budget", type=int, default=5000)
    d.add_argument("--modulus-budget", type=int, default=None,
                   help="cap on every individual congruence modulus")
    d.add_argument("--output")
    d.set_defaults(func=cmd_depth)

    gr = sub.add_parser(
        "growth", help="growth measurement from a config file",
        epilog="CSV columns: n, phi, depth, x, y, moduli (semicolon-joined "
               "exponent vectors and moduli), exhaustive, budget_exhausted")
    gr.add_argument("config")
    gr.set_defaults(func=cmd_growth)

    ex = sub.add_parser("examples", help="worked example scenarios")
    exsub = ex.add_subparsers(dest="subcommand", required=True)
    eh = exsub.add_parser("heisenberg")
    eh.add_argument("--phi", default="id")
    eh.add_argument("--growth", type=int, default=0,
                    help="also print the central pair rows up to this radius, "
                         "fitted when there are at least 3")
    eh.set_defaults(func=cmd_examples_heisenberg)
    e5 = exsub.add_parser("dim5")
    e5.add_argument("--samples", type=int, default=25)
    e5.add_argument("--max-norm", type=int, default=30)
    e5.add_argument("--growth", action="store_true")
    e5.set_defaults(func=cmd_examples_dim5)

    w = sub.add_parser("witness", help="lower bound witness families")
    wsub = w.add_subparsers(dest="subcommand", required=True)
    wl = wsub.add_parser("lower-bound")
    wl.add_argument("--primes", default="2,3,5")
    wl.set_defaults(func=cmd_witness_lower_bound)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        args.func(args)
    except SystemExit as exc:  # from argparse: a usage error exits 1, not 2
        raise SystemExit(1 if exc.code else 0) from None
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, PreconditionError, TwistsepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
