"""In-memory span tracer that wraps rkstieltjes from outside the library.

Each wrapped name is patched where its caller looks it up (a module global
or a class attribute), so the library itself is never edited.  A span is
(name, start, end, parent index, request id); a span's self time is its
duration minus the durations of its direct children.  Names that a later
refactor removes are skipped and listed in ``absent``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

# (module, owner attribute or None, attribute, layer).  The owner is a class
# inside the module when the caller reaches the name through an instance.
WRAPPED = (
    ("operators", "DenseOperator", "shifted_solve", "operators.shifted_solve"),
    ("operators", "DiagonalOperator", "shifted_solve", "operators.shifted_solve"),
    ("operators", "TridiagonalOperator", "shifted_solve", "operators.shifted_solve"),
    ("operators", "DenseOperator", "matvec", "operators.matvec"),
    ("operators", "DiagonalOperator", "matvec", "operators.matvec"),
    ("operators", "TridiagonalOperator", "matvec", "operators.matvec"),
    ("operators", None, "load_matrix", "operators.setup"),
    ("operators", None, "spectral_interval", "operators.setup"),
    ("rk", "RKDecomposition", "extend", "rk.extend"),
    ("rk", None, "rk_funv", "rk.extract"),
    ("rk", None, "funv_driver", "rk.driver"),
    ("rk", None, "zolotarev_poles", "poles.fixed"),
    ("rk", None, "cauchy_poles", "poles.fixed"),
    ("rk", None, "strategy_bound", "bounds"),
    ("poles", None, "zolotarev_poles", "poles.fixed"),
    ("poles", None, "laplace_kron_poles", "poles.fixed"),
    ("poles", None, "cauchy_kron_poles", "poles.fixed"),
    ("poles", None, "eds_next", "poles.eds"),
    ("experiments", None, "eds_next", "poles.eds"),
    ("experiments", None, "_kron_pole_pair", "poles.eds"),
    ("functions", "StieltjesFunction", "__call__", "functions.eval"),
    ("kronfun", None, "kron_fun", "kronfun.kron_fun"),
    ("kronfun", None, "funm_diag", "kronfun.funm_diag"),
    ("kronfun", None, "sylvester_residual", "kronfun.residual"),
    ("kronfun", None, "residual_bound", "bounds"),
)

# Layers of the request path; "operators.setup" spans only occur in set-up.
LAYERS = (
    "rk.extend", "rk.extract", "rk.driver", "operators.shifted_solve",
    "operators.matvec", "poles.eds", "poles.fixed", "kronfun.kron_fun",
    "kronfun.funm_diag", "kronfun.residual", "bounds", "functions.eval",
)
HARNESS = ("harness.input", "harness.oracle", "harness.check")
ERROR_GROUPS = ("operators", "rk", "poles", "bounds", "functions", "kronfun")


class Tracer:
    """Collects spans and the counters that need the wrapped call's
    arguments or result (distinct shifts, basis width, pole yield)."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.request = None
        self.recording = True
        self.absent: list[str] = []
        self.shift_keys: set = set()
        self.basis_cols_max = 0
        self.poles_consumed = 0
        self.poles_returned = 0
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        if not self.recording:
            yield
            return
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        frame = [idx, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            self.errors[name.split(".")[0]] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            self.spans[idx] = (name, start, end, parent, self.request)
            self.self_s[name] += dur - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += dur

    @contextmanager
    def paused(self):
        """Harness work that calls the library: time it as one span and keep
        the library calls inside it out of the layer totals."""
        was = self.recording
        self.recording = False
        try:
            yield
        finally:
            self.recording = was

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for mod_name, owner_name, attr, layer in WRAPPED:
            module = getattr(self.package, mod_name, None)
            owner = module if owner_name is None else getattr(module, owner_name, None)
            label = ".".join(x for x in (mod_name, owner_name, attr) if x)
            if owner is None or attr not in vars(owner):
                if label not in self.absent:
                    self.absent.append(label)
                continue
            orig = vars(owner)[attr]
            setattr(owner, attr, self._wrap(orig, layer, attr))
            self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _wrap(self, orig, layer: str, attr: str):
        after = {
            "shifted_solve": self._after_solve,
            "extend": self._after_extend,
            "funv_driver": self._after_driver,
            "kron_fun": self._after_kron,
        }.get(attr)
        before = self._before_extend if attr == "extend" else None

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not self.recording:
                return orig(*args, **kwargs)
            mark = before(args) if before else None
            with self.span(layer):
                out = orig(*args, **kwargs)
            if after:
                after(args, out, mark)
            return out

        return traced

    def _after_solve(self, args, out, mark) -> None:
        sigma = complex(args[1])
        self.shift_keys.add((id(args[0]), sigma.real, sigma.imag))

    @staticmethod
    def _before_extend(args) -> int:
        return len(args[0].poles_used)

    def _after_extend(self, args, out, mark) -> None:
        dec = args[0]
        self.poles_consumed += len(dec.poles_used) - mark
        self.basis_cols_max = max(self.basis_cols_max, dec.dim)

    def _after_driver(self, args, out, mark) -> None:
        self.poles_returned += len(out.poles_used)

    def _after_kron(self, args, out, mark) -> None:
        self.poles_returned += len(out.poles_left) + len(out.poles_right)

    # -- output -----------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer numbers; ``wall_s`` is the traced wall time they
        are shares of."""
        m: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = (self.calls[layer], "count")
            m[f"{layer}.self_s"] = (self.self_s[layer], "s")
        m["rk.basis_cols.max"] = (self.basis_cols_max, "count")
        m["rk.pole_yield"] = (
            self.poles_returned / self.poles_consumed if self.poles_consumed else 1.0,
            "ratio")
        solves = self.calls["operators.shifted_solve"]
        m["operators.shifted_solve.distinct_shift_ratio"] = (
            len(self.shift_keys) / solves if solves else 0.0, "ratio")
        for name in HARNESS:
            m[f"{name}_s"] = (self.self_s[name], "s")
        for group in ERROR_GROUPS:
            m[f"{group}.errors"] = (self.errors[group], "count")
        covered = sum(self.self_s[k] for k in LAYERS + HARNESS)
        m["trace.coverage_frac"] = (covered / wall_s if wall_s > 0 else 0.0, "ratio")
        return m

    def shares(self, wall_s: float) -> list[tuple[str, float]]:
        out = [(k, self.self_s[k] / wall_s) for k in LAYERS + HARNESS
               if self.self_s[k] > 0]
        return sorted(out, key=lambda kv: -kv[1])

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent",
                                            "request"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class Untraced:
    """Stand-in for ``Tracer`` in untraced runs: no spans, no patches."""

    request = None

    def span(self, name: str):
        return nullcontext()

    def paused(self):
        return nullcontext()
