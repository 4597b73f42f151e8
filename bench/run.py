"""The twistsep benchmark: time to certified answers, end to end and per layer.

    python3 bench/run.py --workload decide-ut4 --seed 20240214 --seconds 40 --trace 0

Workloads (each reason is also recorded in BENCHMARK.json):

  growth-h3     one measure_conj_growth call on the Heisenberg group H3 with
                automorphisms id and A = [[2,1],[1,1]], radius 2, order
                budget 300, exhaustive scan. Its inputs are fixed; the seed
                only reaches the config's (unused) sampling seed.
  decide-ut4    batches of 150 is_twisted_conjugate queries on ut4(). phi
                cycles through id, the flip automorphism and a diagonal-sign
                automorphism; x and z have exponents in [-2, 2]; half the
                targets are y = z x phi(z)^-1, the other half are perturbed
                by a random element of gamma_2.
  virtual-h3c2  batches of 400 pairs x != y drawn from ball_ext(ext, 6) inside
                the kernel coset N of heisenberg_semidirect_c2(), identity
                automorphism: is_conjugate_virtual, then farb_depth_union
                when the pair is not conjugate.

How a run works. Everything runs in this one process and thread, as a
closed loop: one caller sends the next query when the previous one has
returned. A batch is one fresh session: twistsep is imported afresh,
presentations and automorphisms are built and validated, and the batch's
inputs are generated from (seed, batch index); that is the set-up, timed
as setup_s. Then the batch is timed query by query. Batches repeat while
the next one is expected to end within --seconds of wall-clock time (at
least one runs), and set-up runs at least MIN_SETUPS times and for at
least MIN_SETUP_S seconds. Each batch's answers are checked after it,
untimed: witnesses against the integer-matrix oracle in oracle.py,
verdicts against closed forms, growth rows against the paper's values,
and batch 0 at the default seed against the digests in pinned.json.

Times are this process's CPU time (time.process_time). The timed code is
single-threaded and does no I/O, so on an idle machine CPU time equals
wall time; on a shared virtual machine it leaves out time the hypervisor
steals, which otherwise moves wall times by 20% from minute to minute.

End-to-end metrics (--trace 0): setup_s, the median set-up; solve_s, the
median time to answer one batch; queries_per_s, batch size over solve_s;
query_p50_ms and query_p90_ms over every query of the run (growth-h3 has
one query per batch, so both are its solve time); peak_rss_mib.

With --trace 1 the untraced batches run first, then the first
TRACED_BATCHES of them run again with the library wrapped by tracer.py;
the per-layer metrics are per traced batch, the traced answers must equal
the untraced ones, and the spans are written to
.bench_out/spans-<workload>-<seed>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. It exits 2, printing no result,
when the twistsep sources are not next to this directory.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

DEFAULT_SEED = 20240214
MIN_SETUPS = 7
MIN_SETUP_S = 1.0  # cheap set-ups repeat more, so their median is steady
TRACED_BATCHES = 2
CPU = time.process_time
MODULES = ("errors", "lattice", "malcev", "groups", "subgroups", "twisted",
           "quotients", "extensions", "growth")
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


class SetupError(Exception):
    pass


def fresh_import():
    """Import twistsep from this checkout with nothing cached, so each
    session starts from empty module state. Returns {name: module}."""
    for name in [m for m in sys.modules if m == "twistsep" or m.startswith("twistsep.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("twistsep")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"twistsep was imported from {package.__file__}, not {SRC}")
    mods = {name: importlib.import_module(f"twistsep.{name}") for name in MODULES}
    mods["twistsep"] = package
    return mods


def batch_rng(seed, index):
    return random.Random(seed * 1_000_003 + index)


def digest(summaries):
    text = json.dumps(summaries, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- workloads -----------------------------------------------------------------


class Session:
    """What a batch needs: the modules, the query function and its inputs.
    ask looks library functions up when called, so tracing sees the call."""

    def __init__(self, tw, ask, queries, images=None):
        self.tw = tw
        self.ask = ask
        self.queries = queries
        self.images = images  # growth-h3: generator images per automorphism


def _validated(tw, pres, homs):
    problems = tw["malcev"].verify_presentation(pres)
    for f in homs:
        problems += tw["malcev"].verify_hom(f, check_automorphism=True)
    if problems:
        raise SetupError("; ".join(problems))


class GrowthH3:
    name = "growth-h3"
    batch_size = 1
    # the paper's Heisenberg growth rows at radius 2: (phi, depth, moduli)
    EXPECTED = [("id", 3, (1, 3, 1)), ("A", 125, (5, 5, 5))]

    def __init__(self, tiny):
        self.tiny = tiny

    def setup(self, tw, seed, index):
        groups = tw["groups"]
        H = groups.heisenberg()
        autos = [("id", tw["malcev"].identity_automorphism(H)),
                 ("A", groups.heisenberg_automorphism(H, [[2, 1], [1, 1]]))]
        _validated(tw, H, [f for _, f in autos])
        config = tw["growth"].ExperimentConfig(
            H, autos, [1] if self.tiny else [2],
            order_budget=30 if self.tiny else 300, mode="exhaustive", seed=seed)
        images = {name: f.images for name, f in autos}
        growth = tw["growth"]
        return Session(tw, lambda q: growth.measure_conj_growth(q), [config], images=images)

    def summarize(self, query, answer):
        return [[r.n, r.phi_id, r.depth, r.witness_x and list(r.witness_x),
                 r.witness_y and list(r.witness_y), r.moduli and list(r.moduli),
                 r.exhaustive, r.budget_exhausted] for r in answer]

    def check(self, session, query, answer):
        problems = []
        if len(answer) != len(session.images):
            return [f"{len(answer)} growth rows, expected {len(session.images)}"]
        for r in answer:
            if not r.exhaustive or r.budget_exhausted:
                problems.append(f"row {r.phi_id}: scan not exhaustive or budget hit")
                continue
            if r.depth == 0 and r.moduli is None:
                continue
            if r.moduli is None or r.depth != math.prod(r.moduli):
                problems.append(f"row {r.phi_id}: depth {r.depth} != order of {r.moduli}")
            elif oracle.h3_separates(session.images[r.phi_id], r.witness_x,
                                     r.witness_y, r.moduli) is not True:
                problems.append(f"row {r.phi_id}: moduli {r.moduli} do not separate the witness")
        if not self.tiny:
            got = [(r.phi_id, r.depth, r.moduli) for r in answer]
            if got != self.EXPECTED:
                problems.append(f"rows {got} differ from the paper's {self.EXPECTED}")
        return problems


class DecideUT4:
    name = "decide-ut4"

    def __init__(self, tiny):
        self.batch_size = 6 if tiny else 150

    def setup(self, tw, seed, index):
        malcev = tw["malcev"]
        U = tw["groups"].ut4()
        unit = [U.gen(i) for i in range(6)]
        neg = [tuple(-e for e in g) for g in unit]
        # flip: E_ij(a) -> E_{5-j,5-i}(-a); diagonal sign: conjugation by
        # diag(1, -1, 1, -1), which negates every generator except x13, x24
        flip = malcev.GroupHom(U, U, [neg[2], neg[1], neg[0], neg[4], neg[3], neg[5]])
        sign = malcev.GroupHom(U, U, [neg[0], neg[1], neg[2], unit[3], unit[4], neg[5]])
        phis = [malcev.identity_automorphism(U), flip, sign]
        _validated(tw, U, phis)
        rng = batch_rng(seed, index)
        queries = []
        for k in range(self.batch_size):
            phi = phis[k % 3]
            x = tuple(rng.randint(-2, 2) for _ in range(6))
            z = tuple(rng.randint(-2, 2) for _ in range(6))
            y = oracle.UT4.twisted_conjugate(phi.images, z, x)
            built_conjugate = (k // 3) % 2 == 0
            if not built_conjugate:
                w = (0, 0, 0) + tuple(rng.randint(-2, 2) for _ in range(3))
                if not any(w):
                    w = (0, 0, 0, 0, 0, 1)
                y = oracle.UT4.mult(y, w)
            queries.append((phi, x, y, built_conjugate))
        twisted = tw["twisted"]
        return Session(tw, lambda q: twisted.is_twisted_conjugate(U, q[0], q[1], q[2]), queries)

    def summarize(self, query, answer):
        if hasattr(answer, "z"):
            return ["conj"]
        return ["not", answer.level]

    def check(self, session, query, answer):
        phi, x, y, built_conjugate = query
        if hasattr(answer, "z"):
            if (answer.x, answer.y) != (x, y):
                return ["witness is for another pair"]
            if oracle.UT4.twisted_conjugate(phi.images, answer.z, x) != y:
                return [f"witness z={answer.z} fails the matrix oracle"]
            return []
        if built_conjugate:
            return ["a pair built conjugate was reported not conjugate"]
        if answer.level not in (1, 2, 3):
            return [f"obstruction level {answer.level} is not a layer of ut4"]
        return []


class VirtualH3C2:
    name = "virtual-h3c2"

    def __init__(self, tiny):
        self.batch_size = 8 if tiny else 400

    def setup(self, tw, seed, index):
        ext_mod = tw["extensions"]
        ext = ext_mod.heisenberg_semidirect_c2()
        phi = ext_mod.ext_identity_automorphism(ext)
        _validated(tw, ext.kernel, [phi.restriction] + ext.actions)
        kernel_coset = sorted(g.n for g in ext_mod.ball_ext(ext, 6) if g.coset == 0)
        rng = batch_rng(seed, index)
        queries = []
        for _ in range(self.batch_size):
            x, y = rng.sample(kernel_coset, 2)
            queries.append((ext.element(x, 0), ext.element(y, 0)))

        def ask(q):
            conj, w = ext_mod.is_conjugate_virtual(ext, phi, q[0], q[1])
            if conj:
                return True, w
            return False, ext_mod.farb_depth_union(ext, phi, q[0], q[1])

        return Session(tw, ask, queries)

    def summarize(self, query, answer):
        conj, detail = answer
        if conj:
            return ["conj"]
        return ["not", detail["order"], detail["moduli"]]

    def check(self, session, query, answer):
        x, y = query
        conj, detail = answer
        truth = oracle.h3c2_conjugate_in_kernel(x.n, y.n)
        if conj != truth:
            return [f"verdict {conj} disagrees with the closed form for {x.n}, {y.n}"]
        if conj:
            if not oracle.h3c2_is_conjugator((detail.n, detail.coset), (x.n, 0), (y.n, 0)):
                return [f"witness {detail} fails the matrix oracle"]
            return []
        moduli = detail["moduli"]
        expected = 2 * (math.prod(moduli) if moduli else 1)
        if detail["order"] != expected:
            return [f"union order {detail['order']} != 2 * product of moduli {moduli}"]
        return []


WORKLOADS = {w.name: w for w in (GrowthH3, DecideUT4, VirtualH3C2)}


# -- running ---------------------------------------------------------------------


class Batch:
    """One batch's answers and times. run_phase checks it, records the
    digest and failures, and drops the session."""

    def __init__(self, index, session, answers, latencies, cpu_s, wall_s):
        self.index = index
        self.session = session
        self.answers = answers          # per query: ("ok", answer) or ("error", text)
        self.latencies = latencies      # CPU seconds per query
        self.cpu_s = cpu_s
        self.wall_s = wall_s
        self.digest = None
        self.messages = []
        self.failed = 0


def new_session(workload, seed, index, setup_times):
    t0 = CPU()
    session = workload.setup(fresh_import(), seed, index)
    setup_times.append(CPU() - t0)
    return session


def run_batch(session, index, tracer=None):
    answers, latencies = [], []
    wall0, cpu0 = time.perf_counter(), CPU()
    for k, query in enumerate(session.queries):
        t0 = CPU()
        try:
            if tracer is None:
                answers.append(("ok", session.ask(query)))
            else:
                answers.append(("ok", tracer.query(index, k, session.ask, query)))
        except Exception as exc:  # a failed query is counted, not fatal
            answers.append(("error", f"{type(exc).__name__}: {exc}"))
        latencies.append(CPU() - t0)
    return Batch(index, session, answers, latencies, CPU() - cpu0,
                 time.perf_counter() - wall0)


def summarize_batch(workload, batch):
    """(digest summaries, failure messages, failed query count) of a batch."""
    summaries, messages, failed = [], [], 0
    for query, (status, answer) in zip(batch.session.queries, batch.answers):
        if status == "error":
            summaries.append(["error", answer.split(":")[0]])
            problems = [answer]
        else:
            summaries.append(workload.summarize(query, answer))
            problems = workload.check(batch.session, query, answer)
        messages += problems
        failed += bool(problems)
    return summaries, messages, failed


def run_phase(workload, seed, seconds, setup_times, count=None, tracer=None):
    """Run and check batches 0, 1, ... while the next one is expected to
    end within the given wall-clock seconds, and at most count of them."""
    results = []
    start = time.perf_counter()
    while count is None or len(results) < count:
        session = new_session(workload, seed, len(results), setup_times)
        if tracer is not None:
            tracer.install(session.tw)
        try:
            batch = run_batch(session, len(results), tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        summaries, batch.messages, batch.failed = summarize_batch(workload, batch)
        batch.digest = digest(summaries)
        # drop the session's module and presentation cycles now, so peak
        # memory is one session's, whatever the number of batches
        session = batch.session = batch.answers = None
        gc.collect()
        results.append(batch)
        if time.perf_counter() - start + results[-1].wall_s > seconds:
            break
    return results


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by linear interpolation."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run(workload_name, seed, seconds, trace, tiny=False):
    """Run one workload; returns (report lines, result dict)."""
    workload = WORKLOADS[workload_name](tiny)
    setup_times = []
    batches = run_phase(workload, seed, seconds, setup_times)
    traced = []
    tracer = None
    if trace:
        tracer = Tracer()
        traced = run_phase(workload, seed, seconds, setup_times,
                           count=min(len(batches), TRACED_BATCHES), tracer=tracer)
    while len(setup_times) < MIN_SETUPS or sum(setup_times) < MIN_SETUP_S:
        new_session(workload, seed, len(setup_times), setup_times)

    # a batch whose answers differ from the reference counts wholly failed
    messages = [f"batch {b.index}: {m}" for b in batches for m in b.messages]
    for b in traced:
        messages += [f"traced batch {b.index}: {m}" for m in b.messages]
        if b.digest != batches[b.index].digest:
            messages.append(f"traced batch {b.index}: answers differ from the untraced run")
            b.failed = len(b.latencies)
    digest0 = batches[0].digest
    pinned = json.loads((HERE / "pinned.json").read_text())
    pin = pinned["digests"].get(workload_name)
    pin_checked = seed == pinned["seed"] and not tiny
    if pin_checked and digest0 != pin:
        messages.append(f"batch 0 digest {digest0} != pinned {pin}")
        batches[0].failed = len(batches[0].latencies)
    failed = sum(b.failed for b in batches + traced)

    latencies = [t for b in batches for t in b.latencies]
    attempted = len(latencies) + sum(len(b.latencies) for b in traced)
    solve_s = statistics.median(b.cpu_s for b in batches)
    lines = [
        f"workload {workload_name}  seed {seed}  closed loop, 1 caller, 1 thread",
        f"batch size {workload.batch_size}  untraced batches {len(batches)}  "
        f"traced batches {len(traced)}  set-ups {len(setup_times)}  "
        f"latency samples {len(latencies)}",
        f"times are process CPU seconds  batch 0 digest {digest0}  "
        + (f"pinned {pin} {'match' if digest0 == pin else 'MISMATCH'}"
           if pin_checked else "(not pinned at this seed/size)"),
        f"failed {failed} of {attempted}  failed_frac {failed / attempted:.6f}",
    ]
    lines += [f"  FAIL {m}" for m in messages[:20]]
    if trace:
        untraced = statistics.median(batches[b.index].cpu_s for b in traced)
        overhead = statistics.median(b.cpu_s for b in traced) - untraced
        metrics = tracer.metrics(len(traced), sum(b.wall_s for b in traced), overhead)
        spans_path = ROOT / ".bench_out" / f"spans-{workload_name}-{seed}.json"
        tracer.write_spans(spans_path)
        lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "solve_s": solve_s,
            "queries_per_s": workload.batch_size / solve_s,
            "query_p50_ms": 1000 * percentile(latencies, 50),
            "query_p90_ms": 1000 * percentile(latencies, 90),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    for name, m in metrics.items():
        layer = LAYER_METRICS[name][1] if name in LAYER_METRICS else "end-to-end"
        lines.append(f"  {name:40s} {m['value']:>16.6f} {m['unit']:6s} {layer}")
    result = {"correct": not messages, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return lines, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        fresh_import()
    except ImportError as exc:
        print(f"cannot import twistsep from {SRC}: {exc}", file=sys.stderr)
        return 2
    lines, result = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
