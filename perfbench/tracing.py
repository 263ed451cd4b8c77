"""Spans and counters recorded around the public functions of each tauvi layer.

Nothing inside ``src/`` knows about this recorder: ``Recorder.install`` swaps
each public function named in ``TARGETS`` for a timing wrapper, in every
``tauvi`` module that holds it, and ``Recorder.uninstall`` puts the originals
back.  Two kinds of wrapper exist:

* span targets record a span (name, start, end, parent) per call;
* kernel targets (the hot inner calls: ``MultiPoly.__mul__``,
  ``MultiPoly.divexact``, ``RatFunc.__init__``, ``elementary_schur`` and the
  Euler-top right-hand side) only add to their time and counters, because
  they run hundreds of thousands of times per round.

A time metric is inclusive and counts only the outermost active call of its
target, so recursion is never counted twice.  Spans are kept in memory and
written out by the caller when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from typing import Callable, Dict, List, Tuple

SPAN = "span"
KERNEL = "kernel"


def _terms(p) -> int:
    return len(getattr(p, "terms", ())) or 1


def _gcd_counts(args, out):
    return {"exactalg.gcd_operand_terms": len(args[0].terms) + len(args[1].terms)}


def _mul_counts(args, out):
    a, b = args[0], args[1]
    return {"exactalg.mul_term_pairs": _terms(a) * _terms(b)}


def _det_counts(args, out):
    return {"exactalg.det_dim_sum": len(args[0])}


def _solve_counts(args, out):
    return {
        "painleve.branches_verified": len(out.branches),
        "painleve.branches_degenerate": len(out.degenerate),
        "painleve.y_terms": sum(
            len(d.y.num.terms) + len(d.y.den.terms) for d in out.branches
        ),
    }


def _integrate_counts(args, out):
    return {"eulertop.steps": out.n_steps, "eulertop.rejected": out.n_rejected}


# (module, attribute, kind, time metric, calls metric, extra counters)
TARGETS: Tuple[tuple, ...] = (
    ("tauvi.exactalg", "poly_gcd", SPAN, "exactalg.gcd_s", "exactalg.gcd_calls", _gcd_counts),
    ("tauvi.exactalg", "RatFunc.__init__", KERNEL, "exactalg.ratfunc_s", "exactalg.ratfunc_calls", None),
    ("tauvi.exactalg", "MultiPoly.__mul__", KERNEL, "exactalg.mul_s", "exactalg.mul_calls", _mul_counts),
    ("tauvi.exactalg", "MultiPoly.divexact", KERNEL, "exactalg.divexact_s", None, None),
    ("tauvi.exactalg", "fraction_free_det", SPAN, "exactalg.det_s", "exactalg.det_calls", _det_counts),
    ("tauvi.schur", "elementary_schur", KERNEL, "schur.schur_s", "schur.elementary_schur_calls", None),
    ("tauvi.taudet", "TauFamily.det_T", SPAN, "taudet.det_T_s", None, None),
    ("tauvi.taudet", "rotation_beta", SPAN, "taudet.rotation_s", None, None),
    ("tauvi.taudet", "tau_from_E", SPAN, "taudet.route_E_s", None, None),
    ("tauvi.taudet", "tau_from_A", SPAN, "taudet.route_A_s", None, None),
    ("tauvi.fockoracle", "tau_oracle", SPAN, "fockoracle.tau_oracle_s", "fockoracle.tau_oracle_calls", None),
    ("tauvi.painleve", "solve_family", SPAN, "painleve.solve_family_s", None, _solve_counts),
    ("tauvi.painleve", "f_from_tau0", SPAN, "painleve.f_from_tau0_s", None, None),
    ("tauvi.painleve", "okamoto_y", SPAN, "painleve.okamoto_y_s", None, None),
    ("tauvi.painleve", "pvi_residual", SPAN, "painleve.pvi_residual_s", None, None),
    ("tauvi.painleve", "sigma_form_residual", SPAN, "painleve.sigma_residual_s", None, None),
    ("tauvi.eulertop", "init_from_tau", SPAN, "eulertop.init_s", None, None),
    ("tauvi.eulertop", "integrate", SPAN, "eulertop.integrate_s", None, _integrate_counts),
    ("tauvi.eulertop", "rhs", KERNEL, None, "eulertop.rhs_calls", None),
    ("tauvi.eulertop", "monitor", SPAN, "eulertop.monitor_s", None, None),
    ("tauvi.cli", "main", SPAN, "cli.main_s", None, None),
)

MODULES = (
    "tauvi.exactalg",
    "tauvi.schur",
    "tauvi.taudet",
    "tauvi.fockoracle",
    "tauvi.painleve",
    "tauvi.eulertop",
    "tauvi.cli",
)

# Every per-layer metric the traced run reports, in BENCHMARK.json order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("exactalg.gcd_calls", "count"),
    ("exactalg.gcd_s", "s"),
    ("exactalg.gcd_operand_terms", "count"),
    ("exactalg.ratfunc_calls", "count"),
    ("exactalg.ratfunc_s", "s"),
    ("exactalg.mul_calls", "count"),
    ("exactalg.mul_term_pairs", "count"),
    ("exactalg.mul_s", "s"),
    ("exactalg.divexact_s", "s"),
    ("exactalg.det_calls", "count"),
    ("exactalg.det_dim_sum", "count"),
    ("exactalg.det_s", "s"),
    ("schur.elementary_schur_calls", "count"),
    ("schur.schur_s", "s"),
    ("taudet.det_T_s", "s"),
    ("taudet.rotation_s", "s"),
    ("taudet.route_E_s", "s"),
    ("taudet.route_A_s", "s"),
    ("fockoracle.tau_oracle_calls", "count"),
    ("fockoracle.tau_oracle_s", "s"),
    ("painleve.solve_family_s", "s"),
    ("painleve.okamoto_y_s", "s"),
    ("painleve.pvi_residual_s", "s"),
    ("painleve.sigma_residual_s", "s"),
    ("painleve.f_from_tau0_s", "s"),
    ("painleve.branches_verified", "count"),
    ("painleve.branches_degenerate", "count"),
    ("painleve.y_terms", "count"),
    ("eulertop.init_s", "s"),
    ("eulertop.integrate_s", "s"),
    ("eulertop.steps", "count"),
    ("eulertop.rejected", "count"),
    ("eulertop.rhs_calls", "count"),
    ("eulertop.monitor_s", "s"),
    ("cli.main_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)

# Counts that do not depend on the host: two traced runs with one seed must
# report them identically.
EXACT_COUNTS = (
    "exactalg.mul_term_pairs",
    "exactalg.gcd_calls",
    "exactalg.det_dim_sum",
    "eulertop.steps",
    "eulertop.rhs_calls",
)


class Recorder:
    """In-memory spans plus per-metric totals for one traced run."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index]
        self.totals: Dict[str, float] = {}
        self._stack: List[int] = []
        self._depth: Dict[str, int] = {}
        self._saved: List[tuple] = []
        self.t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def add(self, metric: str, value) -> None:
        self.totals[metric] = self.totals.get(metric, 0) + value

    def _wrap(self, name: str, fn: Callable, kind, time_metric, calls_metric, counts):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = rec._depth.get(name, 0) == 0
            rec._depth[name] = rec._depth.get(name, 0) + 1
            index = rec._open(name) if kind == SPAN else None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec._depth[name] -= 1
                if index is not None:
                    rec._close(index, start)
            if outer and time_metric:
                rec.add(time_metric, end - start)
            if calls_metric:
                rec.add(calls_metric, 1)
            if counts is not None and out is not NotImplemented:
                for metric, value in counts(args, out).items():
                    rec.add(metric, value)
            return out

        return wrapper

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float) -> None:
        self._stack.pop()
        self.spans[index][1] = start - self.t0
        self.spans[index][2] = time.perf_counter() - self.t0

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one operation."""
        start = time.perf_counter()
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index, start)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for modname, attr, kind, time_metric, calls_metric, counts in TARGETS:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                wrapper = self._wrap(
                    f"{modname}.{attr}", original, kind, time_metric, calls_metric, counts
                )
                # ``__rmul__ = __mul__`` and similar aliases share the wrapper.
                for name, value in list(cls.__dict__.items()):
                    if value is original:
                        self._saved.append((cls, name, value))
                        setattr(cls, name, wrapper)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(
                f"{modname}.{attr}", original, kind, time_metric, calls_metric, counts
            )
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, name, value))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> Tuple[Dict[str, float], int]:
        return dict(self.totals), len(self.spans)

    def since(self, snap: Tuple[Dict[str, float], int]) -> Dict[str, float]:
        """Per-layer metrics accumulated after ``snap`` was taken."""
        before, first_span = snap
        out = {name: 0 for name, _ in LAYER_METRICS}
        for metric, value in self.totals.items():
            if metric in out:
                out[metric] = value - before.get(metric, 0)
        out["cli.self_s"] = self._cli_self(first_span)
        return out

    def _cli_self(self, first_span: int) -> float:
        """Time in ``cli.main`` not covered by its direct child spans."""
        spans = self.spans
        child = {}
        for i in range(first_span, len(spans)):
            parent = spans[i][3]
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + spans[i][2] - spans[i][1]
        return sum(
            spans[i][2] - spans[i][1] - child.get(i, 0.0)
            for i in range(first_span, len(spans))
            if spans[i][0] == "tauvi.cli.main"
        )
