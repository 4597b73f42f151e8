"""Per-layer tracing from outside the library.

The tracer wraps twistsep's public functions and methods at every place
they are bound (a function imported by name into another module is
wrapped there too), so nothing inside the package changes. Hot inner calls
(millions of mult/coset_rep calls) keep only aggregated call counts and
self time; queries and entry points also record spans. Everything stays
in memory until the run ends.

Self time of a call is its wall duration minus the durations of the
wrapped calls made inside it; total time includes them.
"""

import json
import time
from collections import defaultdict

# (module, attribute, trace name, record a span)
TRACED = [
    ("malcev", "MalcevPresentation.mult", "malcev.mult", False),
    ("malcev", "MalcevPresentation.inv", "malcev.inv", False),
    ("malcev", "MalcevPresentation.pow", "malcev.pow", False),
    ("malcev", "GroupHom.apply", "malcev.hom_apply", False),
    ("subgroups", "InducedSequence.coset_rep", "subgroups.coset_rep", False),
    ("subgroups", "InducedSequence.from_generators", "subgroups.closure", False),
    ("subgroups", "schreier_kernel", "subgroups.schreier", True),
    ("subgroups", "diagonal_kernel", "subgroups.diagonal_kernel", False),
    ("quotients", "congruence_depth", "quotients.depth", True),
    ("quotients", "projected_class", "quotients.projected_class", False),
    ("twisted", "is_twisted_conjugate", "twisted.decide", True),
    ("twisted", "twisted_chain", "twisted.chain", False),
    ("twisted", "TwistedChain.__init__", "twisted.chain_build", False),
    ("twisted", "TwistedWitness.verify", "twisted.witness_verify", False),
    ("lattice", "solve", "lattice.solve", False),
    ("lattice", "kernel_basis", "lattice.kernel_basis", False),
    ("lattice", "isolator_index", "lattice.isolator_index", False),
    ("lattice", "hnf", "lattice.hnf", False),
    ("lattice", "snf", "lattice.snf", False),
    ("extensions", "is_conjugate_virtual", "extensions.virtual", True),
    ("extensions", "farb_depth_union", "extensions.union", True),
    ("growth", "measure_conj_growth", "growth.scan", True),
]
# generator functions: only the items they yield are counted
COUNTED_YIELDS = [("quotients", "congruence_kernels", "quotients.kernels_scanned")]

# Per-layer metrics: name -> (unit, layer, end-to-end metric it should move).
LAYER_METRICS = {
    "malcev.mult.calls": ("count", "malcev", "query_p50_ms/query_p90_ms on decide-ut4; solve_s on growth-h3"),
    "malcev.inv.calls": ("count", "malcev", "query_p50_ms/query_p90_ms on decide-ut4; solve_s on growth-h3"),
    "malcev.pow.calls": ("count", "malcev", "query_p50_ms/query_p90_ms on decide-ut4; solve_s on growth-h3"),
    "malcev.hom_apply.calls": ("count", "malcev", "query_p50_ms on decide-ut4"),
    "malcev.collect.self_share": ("%", "malcev", "query_p50_ms/query_p90_ms on decide-ut4; solve_s on growth-h3"),
    "subgroups.coset_rep.calls": ("count", "subgroups", "solve_s on growth-h3"),
    "subgroups.coset_rep.self_share": ("%", "subgroups", "solve_s on growth-h3"),
    "subgroups.closure.calls": ("count", "subgroups", "query_p90_ms on virtual-h3c2 and decide-ut4"),
    "subgroups.closure.self_share": ("%", "subgroups", "query_p90_ms on virtual-h3c2 and decide-ut4"),
    "subgroups.schreier.calls": ("count", "subgroups", "query_p90_ms on virtual-h3c2"),
    "subgroups.schreier.self_share": ("%", "subgroups", "query_p90_ms on virtual-h3c2"),
    "subgroups.diagonal_kernel.calls": ("count", "subgroups", "query_p90_ms on virtual-h3c2; solve_s on growth-h3"),
    "subgroups.diagonal_kernel.hit_ratio": ("ratio", "subgroups", "query_p90_ms on virtual-h3c2; solve_s on growth-h3"),
    "quotients.depth.calls": ("count", "quotients", "solve_s on growth-h3; query_p90_ms on virtual-h3c2"),
    "quotients.kernels_scanned": ("count", "quotients", "solve_s on growth-h3; query_p90_ms on virtual-h3c2"),
    "quotients.projected_class.calls": ("count", "quotients", "solve_s on growth-h3; query_p90_ms on virtual-h3c2"),
    "quotients.projected_class.self_share": ("%", "quotients", "solve_s on growth-h3; query_p90_ms on virtual-h3c2"),
    "quotients.orbit_elements": ("count", "quotients", "solve_s on growth-h3; query_p90_ms on virtual-h3c2"),
    "quotients.class_calls_per_kernel": ("ratio", "quotients", "solve_s on growth-h3; query_p90_ms on virtual-h3c2"),
    "twisted.decide.calls": ("count", "twisted", "query_p50_ms on decide-ut4"),
    "twisted.decide.self_share": ("%", "twisted", "query_p50_ms on decide-ut4"),
    "twisted.chain.requests": ("count", "twisted", "query_p50_ms on decide-ut4"),
    "twisted.chain.builds": ("count", "twisted", "query_p50_ms on decide-ut4"),
    "twisted.chain.hit_ratio": ("ratio", "twisted", "query_p50_ms on decide-ut4"),
    "twisted.witness_verify.share": ("%", "twisted", "query_p50_ms on decide-ut4"),
    "lattice.calls": ("count", "lattice", "query_p50_ms on decide-ut4"),
    "lattice.self_share": ("%", "lattice", "query_p50_ms on decide-ut4"),
    "extensions.virtual.calls": ("count", "extensions", "solve_s/query_p90_ms on virtual-h3c2"),
    "extensions.virtual.self_share": ("%", "extensions", "solve_s/query_p90_ms on virtual-h3c2"),
    "extensions.union.calls": ("count", "extensions", "solve_s/query_p90_ms on virtual-h3c2"),
    "extensions.union.self_share": ("%", "extensions", "solve_s/query_p90_ms on virtual-h3c2"),
    "extensions.union_order": ("count", "extensions", "solve_s/query_p90_ms on virtual-h3c2"),
    "growth.pairs": ("count", "growth", "solve_s on growth-h3"),
    "growth.rows": ("count", "growth", "solve_s on growth-h3"),
    "growth.scan.self_share": ("%", "growth", "solve_s on growth-h3"),
    "trace_overhead_s": ("s", "benchmark", "none: traced minus untraced batch wall time"),
}

LATTICE = ("lattice.solve", "lattice.kernel_basis", "lattice.isolator_index",
           "lattice.hnf", "lattice.snf")
COLLECT = ("malcev.mult", "malcev.inv", "malcev.pow")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.yields = defaultdict(int)
        self.orbit_elements = 0
        self.union_orders = []
        self.rows = 0
        self.diagonal_keys = set()
        self.spans = []          # [name, start, end, parent span index, query]
        self._frames = []        # child seconds of each active wrapped call
        self._open_spans = []
        self._query = None
        self._batch = None
        self._patches = []

    # -- spans ----------------------------------------------------------------

    def _open(self, name):
        sid = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append([name, time.perf_counter(), None, parent, self._query])
        self._open_spans.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._open_spans.pop()

    def query(self, batch, index, fn, arg):
        """Run one query inside a span that its nested spans point to."""
        self._batch = batch
        self._query = (batch, index)
        sid = self._open("query")
        try:
            return fn(arg)
        finally:
            self._close(sid)
            self._query = None

    # -- wrapping -------------------------------------------------------------

    def _observe(self, name, args, result):
        if name == "quotients.projected_class":
            self.orbit_elements += len(result)
        elif name == "subgroups.diagonal_kernel":
            self.diagonal_keys.add((self._batch, id(args[0]), tuple(args[1])))
        elif name == "extensions.union":
            self.union_orders.append(result["order"])
        elif name == "growth.scan":
            self.rows += len(result)

    def _wrap(self, fn, name, span):
        frames = self._frames
        calls = self.calls
        self_s = self.self_s
        total_s = self.total_s
        clock = time.perf_counter
        observed = name in ("quotients.projected_class", "subgroups.diagonal_kernel",
                            "extensions.union", "growth.scan")

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            sid = self._open(name) if span else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                frames.pop()
                calls[name] += 1
                self_s[name] += dur - frame[0]
                total_s[name] += dur
                if frames:
                    frames[-1][0] += dur
                if span:
                    self._close(sid)
            if observed:
                self._observe(name, args, result)
            return result

        return wrapper

    def _count_yields(self, fn, name):
        yields = self.yields

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                yields[name] += 1
                yield item

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, modules, home, attr, new_fn_of):
        original = getattr(modules[home], attr)
        wrapped = new_fn_of(original)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapped)

    def install(self, modules):
        """Wrap the traced functions in the given {short name: module} map."""
        for home, attr, name, span in TRACED:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(modules[home], cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._patch(cls, meth, classmethod(self._wrap(raw.__func__, name, span)))
                else:
                    self._patch(cls, meth, self._wrap(raw, name, span))
            else:
                self._patch_function(modules, home, attr,
                                     lambda fn, n=name, s=span: self._wrap(fn, n, s))
        for home, attr, name in COUNTED_YIELDS:
            self._patch_function(modules, home, attr,
                                 lambda fn, n=name: self._count_yields(fn, n))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results --------------------------------------------------------------

    def write_spans(self, path):
        """Write the spans as JSON: [name, start s, end s, parent, query],
        times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, a - t0, b - t0, parent, q] for n, a, b, parent, q in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(rows, fh)

    def metrics(self, batches, traced_wall_s, overhead_s):
        """Per-layer metrics: counts per batch, and each layer's self time
        as a percentage of the traced batches' wall time. Shares, not
        seconds, so that a layer a workload never enters reads 0 % rather
        than a constant time."""
        c, s = self.calls, self.self_s

        def per(v):
            return v / batches

        def share(v):
            return 100 * v / traced_wall_s

        def ratio(num, den):
            return num / den if den else 0.0

        growth_spans = {i for i, sp in enumerate(self.spans) if sp[0] == "growth.scan"}
        pairs = sum(1 for sp in self.spans
                    if sp[0] == "twisted.decide" and sp[3] in growth_spans)
        kernels = self.yields["quotients.kernels_scanned"]
        diag_calls = c["subgroups.diagonal_kernel"]
        chain_requests = c["twisted.chain"]
        values = {
            "malcev.mult.calls": per(c["malcev.mult"]),
            "malcev.inv.calls": per(c["malcev.inv"]),
            "malcev.pow.calls": per(c["malcev.pow"]),
            "malcev.hom_apply.calls": per(c["malcev.hom_apply"]),
            "malcev.collect.self_share": share(sum(s[n] for n in COLLECT)),
            "subgroups.coset_rep.calls": per(c["subgroups.coset_rep"]),
            "subgroups.coset_rep.self_share": share(s["subgroups.coset_rep"]),
            "subgroups.closure.calls": per(c["subgroups.closure"]),
            "subgroups.closure.self_share": share(s["subgroups.closure"]),
            "subgroups.schreier.calls": per(c["subgroups.schreier"]),
            "subgroups.schreier.self_share": share(s["subgroups.schreier"]),
            "subgroups.diagonal_kernel.calls": per(diag_calls),
            "subgroups.diagonal_kernel.hit_ratio":
                ratio(diag_calls - len(self.diagonal_keys), diag_calls),
            "quotients.depth.calls": per(c["quotients.depth"]),
            "quotients.kernels_scanned": per(kernels),
            "quotients.projected_class.calls": per(c["quotients.projected_class"]),
            "quotients.projected_class.self_share": share(s["quotients.projected_class"]),
            "quotients.orbit_elements": per(self.orbit_elements),
            "quotients.class_calls_per_kernel":
                ratio(c["quotients.projected_class"], kernels),
            "twisted.decide.calls": per(c["twisted.decide"]),
            "twisted.decide.self_share": share(s["twisted.decide"]),
            "twisted.chain.requests": per(chain_requests),
            "twisted.chain.builds": per(c["twisted.chain_build"]),
            "twisted.chain.hit_ratio":
                ratio(max(chain_requests - c["twisted.chain_build"], 0), chain_requests),
            "twisted.witness_verify.share": share(self.total_s["twisted.witness_verify"]),
            "lattice.calls": per(sum(c[n] for n in LATTICE)),
            "lattice.self_share": share(sum(s[n] for n in LATTICE)),
            "extensions.virtual.calls": per(c["extensions.virtual"]),
            "extensions.virtual.self_share": share(s["extensions.virtual"]),
            "extensions.union.calls": per(c["extensions.union"]),
            "extensions.union.self_share": share(s["extensions.union"]),
            "extensions.union_order": ratio(sum(self.union_orders), len(self.union_orders)),
            "growth.pairs": per(pairs),
            "growth.rows": per(self.rows),
            "growth.scan.self_share": share(s["growth.scan"]),
            "trace_overhead_s": overhead_s,
        }
        return {name: {"value": values[name], "unit": LAYER_METRICS[name][0]}
                for name in LAYER_METRICS}
