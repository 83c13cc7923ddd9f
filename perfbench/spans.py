"""Span tracing for the traced run, installed from outside the package.

The tracer wraps the spinflip functions and methods that the per-layer
metrics read (`TARGETS`).  Each call records a span (name, start, end,
parent) in memory; nothing is written until the run ends.  A function is patched wherever callers look
it up: on the class that defines a method, and under every name in every
loaded spinflip module that refers to a module-level function (so
`concentration.k_of_t`, imported by name, is wrapped as well as
`dynamics.k_of_t`).  A listed function that the package no longer has
is skipped: its layer then reads as zero work.

Some spans also carry counts (Poisson terms, matvec columns, replicas...),
computed after the call returns.  The time spent computing them is
recorded as a `trace.count` span under the caller, so it never lands in
any layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time

PACKAGE = "spinflip"


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------- counters
# Each takes (args, kwargs, result) of the wrapped call and returns a dict of
# counts.  They read only public attributes and degrade to zero when an
# attribute is gone.


def _width(array, axis):
    shape = getattr(array, "shape", ())
    return 1 if len(shape) < 2 else int(shape[axis])


def _poisson_terms(engine, t):
    weights = getattr(engine, "poisson_weights", None)
    return int(weights(t).size) if weights is not None else 0


def _count_evolve(axis):
    def count(args, kwargs, result):
        engine, array, t = args[0], args[1], args[2] if len(args) > 2 else kwargs["t"]
        terms = _poisson_terms(engine, t)
        return {"poisson_terms": terms, "matvec_columns": max(terms - 1, 0) * _width(array, axis)}

    return count


def _count_engine(args, kwargs, result):
    engine = args[0]
    nnz = 0
    for attr in ("p", "pt"):
        nnz += int(getattr(getattr(engine, attr, None), "nnz", 0) or 0)
    return {"engine_nnz": nnz}


def _count_dirac(args, kwargs, result):
    n_states = 1 << args[0].torus.n_sites
    return {"dirac_bytes": 8 * n_states * n_states}


def _count_replicas(args, kwargs, result):
    return {"replicas": int(getattr(result, "replicas", 0))}


def _count_path(args, kwargs, result):
    return {"path_events": int(getattr(getattr(result, "times", None), "size", 0))}


def _count_apply(args, kwargs, result):
    return {"terms": int(result.n_terms())}


def _count_sup(args, kwargs, result):
    if result is None:
        return {"sup_patterns": 0}
    poly = args[0]
    return {"sup_patterns": int(poly.n_terms()) << len(poly.support())}


def _names(module, *qualnames):
    return frozenset(f"{module}.{q}" for q in qualnames)


ENTROPY = _names(
    "entropy",
    "nogo_experiment",
    "data_processing_check",
    "relative_entropy",
    "total_variation",
    "entropy_density_profile",
    "marginal",
    "window_sites",
)

# Per-layer time metrics: (kind, span names).  "self" sums the self time of
# every listed span; "incl" sums the duration of listed spans that have no
# listed ancestor, so nested calls are not counted twice.
TIME_METRICS = {
    "lattice.observable_s": (
        "self",
        _names(
            "lattice",
            "Observable.__init__",
            "Observable.constant",
            "Observable.monomial",
            "Observable.monomial_sum",
            "Observable.from_function",
            "Observable.dense_values",
            "monomial_values_dense",
        ),
    ),
    "lattice.lipschitz_s": (
        "self",
        _names("lattice", "lipschitz_vector", "lipschitz_vector_dense")
        | _names("dynamics", "SemigroupEngine.lipschitz_of"),
    ),
    "gibbs.enumerate_s": (
        "self",
        _names(
            "gibbs",
            "gibbs_measure",
            "hamiltonian_periodic",
            "hamiltonian_fixed",
            "uniform_measure",
            "product_measure",
            "dirac_vector",
        ),
    ),
    "dynamics.rate_table_s": ("incl", _names("dynamics", "RateModel.rate_matrix")),
    "dynamics.engine_build_s": (
        "self",
        _names("dynamics", "SemigroupEngine.__init__", "generator_matrix"),
    ),
    "dynamics.evolve_measures_s": ("incl", _names("dynamics", "SemigroupEngine.evolve_measures")),
    "dynamics.evolve_functions_s": ("incl", _names("dynamics", "SemigroupEngine.evolve_functions")),
    "dynamics.gamma_s": (
        "self",
        _names("dynamics", "gamma_matrix", "k_of_t", "lipschitz_propagation", "ergodicity_constants"),
    ),
    "concentration.dirac_matrix_s": ("incl", _names("concentration", "evolve_dirac_matrix")),
    "concentration.theorem31_self_s": ("self", _names("concentration", "theorem31_check")),
    "concentration.theorem52_self_s": ("self", _names("concentration", "theorem52_check")),
    "concentration.theorem53_self_s": ("self", _names("concentration", "theorem53_check")),
    "concentration.empirical_s": (
        "incl",
        _names("concentration", "empirical_gcb_constant", "check_uvb"),
    ),
    "entropy.diagnostics_s": ("self", ENTROPY),
    "mc.ensemble_s": ("incl", _names("mc", "ensemble_expectation", "ensemble_exponential_moment")),
    "mc.path_s": ("incl", _names("mc", "sample_path")),
    "symbolic.apply_s": ("incl", _names("symbolic", "GeneratorSpec.apply")),
    "symbolic.sup_norm_s": ("incl", _names("symbolic", "SetPolynomial.exact_sup_norm")),
    "symbolic.series_s": ("incl", _names("symbolic", "truncated_series")),
}

# Per-layer count metrics: metric name -> count key summed over all spans.
COUNT_METRICS = {
    "dynamics.engine_nnz": "engine_nnz",
    "dynamics.poisson_terms": "poisson_terms",
    "dynamics.matvec_columns": "matvec_columns",
    "concentration.dirac_bytes": "dirac_bytes",
    "symbolic.terms": "terms",
    "symbolic.sup_patterns": "sup_patterns",
}

# Rates: metric name -> (count metric or raw count key, time metric).
RATE_METRICS = {
    "dynamics.columns_per_s": (
        "dynamics.matvec_columns",
        ("dynamics.evolve_measures_s", "dynamics.evolve_functions_s"),
    ),
    "mc.replicas_per_s": ("replicas", ("mc.ensemble_s",)),
    "mc.path_events_per_s": ("path_events", ("mc.path_s",)),
}

# Counts computed after a call returns, by span name.
COUNTERS = {
    "dynamics.SemigroupEngine.__init__": _count_engine,
    "dynamics.SemigroupEngine.evolve_functions": _count_evolve(axis=1),
    "dynamics.SemigroupEngine.evolve_measures": _count_evolve(axis=0),
    "concentration.evolve_dirac_matrix": _count_dirac,
    "mc.ensemble_expectation": _count_replicas,
    "mc.ensemble_exponential_moment": _count_replicas,
    "mc.sample_path": _count_path,
    "symbolic.GeneratorSpec.apply": _count_apply,
    "symbolic.SetPolynomial.exact_sup_norm": _count_sup,
}

# Every wrapped callable, as "module.qualname": exactly those a time metric
# reads (the counted ones among them).
TARGETS = tuple(sorted(frozenset().union(*(names for _, names in TIME_METRICS.values()))))

UNITS = {name: "s" for name in TIME_METRICS}
UNITS.update({name: "count" for name in COUNT_METRICS})
UNITS.update({name: "1/s" for name in RATE_METRICS})
UNITS["concentration.dirac_bytes"] = "B"
UNITS["trace.overhead"] = "ratio"


class Tracer:
    """Keeps spans in memory and patches the package's callables."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    # -------------------------------------------------------------- spans
    def _open(self, name):
        span = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name):
        """A root span: one set-up or one pass."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                count_span = tracer._open("trace.count")
                try:
                    span.counts = counter(args, kwargs, result)
                finally:
                    tracer._close(count_span)
            return result

        return traced

    # ------------------------------------------------------------ patching
    def install(self, targets=TARGETS):
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name in targets:
            module_name, _, qualname = name.partition(".")
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            if module is None:
                continue
            owner_name, _, attr = qualname.rpartition(".")
            counter = COUNTERS.get(name)
            if owner_name:
                self._patch_method(module, owner_name, attr, name, counter)
            else:
                self._patch_function(modules, module, attr, name, counter)

    def _patch_method(self, module, owner_name, attr, name, counter):
        owner = getattr(module, owner_name, None)
        if not isinstance(owner, type):
            return
        for klass in owner.__mro__:
            if attr in klass.__dict__:
                break
        else:
            return
        raw = klass.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self.wrap(name, raw.__func__, counter))
        elif callable(raw):
            new = self.wrap(name, raw, counter)
        else:
            return
        setattr(klass, attr, new)
        self._patches.append((klass, attr, raw))

    def _patch_function(self, modules, module, attr, name, counter):
        original = getattr(module, attr, None)
        if not callable(original):
            return
        wrapped = self.wrap(name, original, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._patches.append((mod, key, original))

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------ reduce
    def phase_values(self):
        """Per root span (one set-up or one pass): its name and the time and
        count metrics of the spans below it."""
        children = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append(span)
        out = []
        for root in self.spans:
            if root.parent is None:
                values = {name: 0.0 for name in TIME_METRICS}
                _accumulate(root, frozenset(), children, values)
                out.append((root.name, values))
        return out

    def layer_metrics(self, overhead):
        """Median over set-up phases plus median over pass phases."""
        per_phase = self.phase_values()
        metrics = {}
        keys = set(TIME_METRICS) | {k for _, v in per_phase for k in v}
        for key in keys:
            total = 0.0
            for phase in ("setup", "pass"):
                vals = [v.get(key, 0) for name, v in per_phase if name == phase]
                if vals:
                    total += statistics.median(vals)
            metrics[key] = total
        out = {}
        for name in TIME_METRICS:
            out[name] = metrics[name]
        for name, key in COUNT_METRICS.items():
            out[name] = metrics.get(key, 0)
        for name, (count, times) in RATE_METRICS.items():
            numerator = out.get(count, metrics.get(count, 0))
            denominator = sum(out[t] for t in times)
            out[name] = numerator / denominator if denominator > 0 else 0.0
        out["trace.overhead"] = overhead
        return {name: {"value": value, "unit": UNITS[name]} for name, value in sorted(out.items())}

    def dump(self, path):
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            {
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": index.get(id(span.parent)),
                **({"counts": span.counts} if span.counts else {}),
            }
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(rows, fh)


def _accumulate(span, ancestors, children, values):
    """Add the metrics of every span below `span`; `ancestors` holds the
    names of the spans between it and the root."""
    for child in children.get(id(span), ()):
        self_time = child.duration - sum(k.duration for k in children.get(id(child), ()))
        for metric, (kind, names) in TIME_METRICS.items():
            if child.name not in names:
                continue
            if kind == "self":
                values[metric] += self_time
            elif not ancestors & names:
                values[metric] += child.duration
        for key, value in (child.counts or {}).items():
            values[key] = values.get(key, 0) + value
        _accumulate(child, ancestors | {child.name}, children, values)

