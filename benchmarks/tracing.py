"""Spans and counters for the traced benchmark run.

The traced run replaces pilotkit's public functions with wrappers inside
the benchmark process, in the defining module and in every pilotkit
module that imported the name, so calls between public functions (for
example local_search_move -> pa_to_mkp) become nested spans. pilotkit's
own source is not changed. The two hot leaves, pairwise_interference and
uplink_rate, only get a call counter: a span per call would cost more
than the call itself.

Spans stay in memory; layer_metrics() turns them into per-instance means.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("system_model", "objective", "reductions", "solvers", "fileio", "cli")

# Public functions recorded as spans, by defining module.
SPANNED = {
    "system_model": ("generate_system", "system_throughput"),
    "objective": ("contamination_objective", "contamination_report"),
    "reductions": ("pa_to_mkp", "mkp_to_pa", "verify_measure_equality", "graphs_equal"),
    "solvers": (
        "brute_force_exact",
        "greedy_feasible",
        "random_feasible",
        "local_search_move",
        "greedy_worst_user",
    ),
    "fileio": (
        "parse_instance",
        "parse_graph",
        "parse_assignment",
        "format_instance",
        "format_graph",
        "format_assignment",
    ),
    "cli": ("main",),
}

# These get one span name per arithmetic mode: <name>.float or <name>.exact.
SPLIT_BY_MODE = {"contamination_objective", "pa_to_mkp", "mkp_to_pa", "verify_measure_equality"}

COUNTED = {
    "objective": ("pairwise_interference",),
    "system_model": ("uplink_rate",),
}

# Every per-layer metric of the traced run, with its unit. Times and
# counts are means per completed instance of the traced phase.
PER_LAYER = (
    ("solvers.brute_force_exact.busy_s", "s"),
    ("solvers.brute_force_exact.surjections", "count"),
    ("solvers.brute_force_exact.labelings", "count"),
    ("solvers.brute_force_exact.useful_ratio", "ratio"),
    ("solvers.brute_force_exact.surjections_per_s", "1/s"),
    ("solvers.local_search_move.busy_s", "s"),
    ("solvers.local_search_move.moves", "count"),
    ("solvers.local_search_move.gap_mean", "ratio"),
    ("solvers.greedy_worst_user.busy_s", "s"),
    ("solvers.greedy_worst_user.rounds", "count"),
    ("solvers.random_feasible.busy_s", "s"),
    ("solvers.self_s", "s"),
    ("reductions.pa_to_mkp.float.busy_s", "s"),
    ("reductions.pa_to_mkp.float.pair_weights", "count"),
    ("reductions.pa_to_mkp.exact.busy_s", "s"),
    ("reductions.mkp_to_pa.exact.busy_s", "s"),
    ("reductions.verify_measure_equality.float.busy_s", "s"),
    ("reductions.verify_measure_equality.exact.busy_s", "s"),
    ("reductions.self_s", "s"),
    ("objective.contamination_objective.float.busy_s", "s"),
    ("objective.contamination_objective.exact.busy_s", "s"),
    ("objective.pairwise_interference.calls", "count"),
    ("objective.self_s", "s"),
    ("system_model.system_throughput.busy_s", "s"),
    ("system_model.uplink_rate.calls", "count"),
    ("system_model.generate_system.busy_s", "s"),
    ("system_model.generate_system.setup_s", "s"),
    ("system_model.self_s", "s"),
    ("fileio.parse_instance.busy_s", "s"),
    ("fileio.format_graph.busy_s", "s"),
    ("fileio.parse_graph.busy_s", "s"),
    ("fileio.bytes_parsed", "count"),
    ("fileio.bytes_formatted", "count"),
    ("fileio.self_s", "s"),
    ("cli.gen.busy_s", "s"),
    ("cli.reduce.busy_s", "s"),
    ("cli.solve.busy_s", "s"),
    ("cli.verify.busy_s", "s"),
    ("cli.rejected", "count"),
    ("cli.unexpected_exit", "count"),
    ("cli.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.instance_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# Metrics derived from input sizes rather than measured.
COMPUTED = (
    "solvers.brute_force_exact.labelings",
    "solvers.brute_force_exact.useful_ratio",
    "reductions.pa_to_mkp.float.pair_weights",
    "fileio.bytes_parsed",
    "fileio.bytes_formatted",
)


def _brute_counts(args, report, counts):
    s = args["s"]
    counts["solvers.brute_force_exact.surjections"] += report.iterations
    counts["solvers.brute_force_exact.labelings"] += s.tau_pilots**s.k_users


def _pair_weight_count(args, graph, counts):
    if not args["exact"]:
        k = args["s"].k_users
        counts["reductions.pa_to_mkp.float.pair_weights"] += k * (k - 1) // 2


def _bytes_parsed(args, result, counts):
    counts["fileio.bytes_parsed"] += len(args["text"])


def _bytes_formatted(args, text, counts):
    counts["fileio.bytes_formatted"] += len(text)


def _iterations(metric):
    def hook(args, report, counts):
        counts[metric] += report.iterations

    return hook


# Counts read from a call's arguments and result as it returns.
_HOOKS = {
    "brute_force_exact": _brute_counts,
    "local_search_move": _iterations("solvers.local_search_move.moves"),
    "greedy_worst_user": _iterations("solvers.greedy_worst_user.rounds"),
    "pa_to_mkp": _pair_weight_count,
    "parse_instance": _bytes_parsed,
    "parse_graph": _bytes_parsed,
    "parse_assignment": _bytes_parsed,
    "format_instance": _bytes_formatted,
    "format_graph": _bytes_formatted,
    "format_assignment": _bytes_formatted,
}


class Tracer:
    """Spans (name, layer, start, end, parent index, instance id) and counts."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self._stack: list[int] = []
        self.instance = None

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, layer, t0):
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, layer, t0, t1, parent, self.instance)

    @contextmanager
    def instance_span(self, instance_id):
        """Root span of one benchmark instance."""
        self.instance = instance_id
        idx, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, "bench.instance", "bench", t0)

    def wrap(self, layer, fname, fn):
        sig = inspect.signature(fn)
        by_mode = fname in SPLIT_BY_MODE
        hook = _HOOKS.get(fname)
        base = f"{layer}.{fname}"

        def wrapper(*args, **kwargs):
            bound = None
            if by_mode or hook is not None or fname == "main":
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            if fname == "main":
                name = f"cli.{bound['argv'][0]}"
            elif by_mode:
                name = f"{base}.{'exact' if bound['exact'] else 'float'}"
            else:
                name = base
            idx, parent = self._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, parent, name, layer, t0)
            if hook is not None:
                hook(bound, result, self.counts)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, layer, fname, fn):
        key = f"{layer}.{fname}.calls"
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


def _replace_everywhere(modules, fn, replacement, fname, patched):
    for mod in modules:
        if mod.__dict__.get(fname) is fn:
            patched.append((mod, fname, fn))
            setattr(mod, fname, replacement)


def install(tracer, pk):
    """Wrap every spanned and counted public function; returns the undo list."""
    modules = [pk.package] + [getattr(pk, layer) for layer in LAYERS]
    patched: list = []
    for table, make in ((SPANNED, tracer.wrap), (COUNTED, tracer.counter)):
        for layer, names in table.items():
            home = getattr(pk, layer)
            for fname in names:
                fn = getattr(home, fname)
                _replace_everywhere(modules, fn, make(layer, fname, fn), fname, patched)
    return patched


def uninstall(patched):
    for mod, fname, fn in reversed(patched):
        setattr(mod, fname, fn)


@contextmanager
def timing_calls(module, fname):
    """Accumulate the seconds spent in module.fname while the block runs."""
    fn = getattr(module, fname)
    total = [0.0]

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            total[0] += time.perf_counter() - t0

    setattr(module, fname, wrapper)
    try:
        yield total
    finally:
        setattr(module, fname, fn)


def layer_metrics(tracer, n_instances, extra_counts):
    """Per-instance means of busy time, self time and counts.

    busy_s of a span name sums the full duration of its spans; self_s of a
    layer sums its spans' durations minus the parts covered by their
    direct child spans, so the self times of all layers plus bench.self_s
    add up to trace.instance_s.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, layer, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    busy: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    for idx, (name, layer, t0, t1, parent, _) in enumerate(spans):
        busy[name] += t1 - t0
        self_s[layer] += t1 - t0 - child[idx]

    counts = defaultdict(int, tracer.counts)
    for key, value in extra_counts.items():
        counts[key] += value
    n = max(n_instances, 1)
    values = {}
    for metric, _unit in PER_LAYER:
        if metric.endswith(".busy_s"):
            values[metric] = busy[metric[: -len(".busy_s")]] / n
        elif metric.endswith(".self_s"):
            values[metric] = self_s[metric[: -len(".self_s")]] / n
        else:
            values[metric] = counts[metric] / n
    surj = counts["solvers.brute_force_exact.surjections"]
    labelings = counts["solvers.brute_force_exact.labelings"]
    brute_s = busy["solvers.brute_force_exact"]
    values["solvers.brute_force_exact.useful_ratio"] = surj / labelings if labelings else 0.0
    values["solvers.brute_force_exact.surjections_per_s"] = surj / brute_s if brute_s else 0.0
    values["trace.instance_s"] = busy["bench.instance"] / n
    return values
