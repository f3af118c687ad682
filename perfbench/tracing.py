"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps each layer's public functions at every name
under which a jacksonq module (or the package namespace) holds them, and
the class attributes for methods and constructors. Nothing under ``src/``
changes: a wrapped name is the same function behind a timing shim, and
``uninstall()`` puts the originals back.

Each wrapper records calls, for evaluators the number of points they are
given, and self time: its inclusive time minus the inclusive time of
the wrapped calls made inside it. Recording happens only between
``begin()`` and ``end()``, i.e. inside a timed operation, so the
benchmark's own checks never count.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (module, attribute path, metric stem, count the points passed after self)
LAYERS = (
    ("polyroots", "roots_with_multiplicity", "polyroots.roots_with_multiplicity", False),
    ("qode", "RationalFunction.__init__", "qode.RationalFunction", False),
    ("qode", "dq_rational", "qode.dq_rational", False),
    ("nevanlinna", "counting_N", "nevanlinna.counting_N", False),
    ("nevanlinna", "jackson_truncated_counting", "nevanlinna.jackson_truncated_counting", False),
    ("nevanlinna", "MeroModel.log_abs", "nevanlinna.MeroModel.log_abs", True),
    ("qspecial", "BigEProduct.log_eval", "qspecial.BigEProduct.log_eval", False),
    ("qspecial", "EtildeProduct.log_eval", "qspecial.EtildeProduct.log_eval", False),
    ("nevanlinna", "winding_number", "nevanlinna.winding_number", False),
    ("nevanlinna", "series_zero_moduli", "nevanlinna.series_zero_moduli", False),
    ("qcore", "TruncatedSeries.eval", "qcore.TruncatedSeries.eval", True),
    ("qcore", "TruncatedSeries.__init__", "qcore.TruncatedSeries", False),
    ("qcore", "q_bracket", "qcore.q_bracket", False),
    ("qode", "solve_series", "qode.solve_series", False),
    ("qode", "solve_shifted_series", "qode.solve_shifted_series", False),
    ("qode", "residual", "qode.residual", False),
    ("qspecial", "exp_q", "qspecial.exp_q", False),
    ("qspecial", "etilde_q", "qspecial.etilde_q", False),
    ("qspecial", "big_e_q", "qspecial.big_e_q", False),
    ("qspecial", "phi_rs", "qspecial.phi_rs", False),
    ("qoperator", "dqk_closed_form", "qoperator.dqk_closed_form", False),
    ("qoperator", "dq_series", "qoperator.dq_series", False),
    ("qoperator", "jackson_integral", "qoperator.jackson_integral", False),
    ("cli", "main", "cli.main", False),
)

# The verify suites are reached through checks.SUITES, keyed by suite id.
SUITE_IDS = ("identities", "rules", "operator", "casorati", "jensen", "sft",
             "logderiv", "wiman", "orders", "defects", "solver", "quintic")


def metric_names() -> list:
    """Every per-layer metric, in a fixed order."""
    out = []
    for _, _, stem, points in LAYERS:
        out.append(stem + ".calls")
        if points:
            out.append(stem + ".points")
        out.append(stem + ".self_ms")
    for suite in SUITE_IDS:
        out.append(f"checks.{suite}.calls")
        out.append(f"checks.{suite}.self_ms")
    return out


class _Stat:
    __slots__ = ("calls", "points", "self_s")

    def __init__(self):
        self.calls = 0
        self.points = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.op_stats = {}
        self.active = False
        self._child = [0.0]  # inclusive time of wrapped children, per frame
        self._undo = []

    # -- recording -----------------------------------------------------------

    def begin(self) -> None:
        self.op_stats = {}
        self.active = True

    def end(self, scale: float) -> None:
        """Stop recording one operation; its self times are multiplied by
        the operation's host-normalisation factor before they add up."""
        self.active = False
        for stem, st in self.op_stats.items():
            tot = self.stats.setdefault(stem, _Stat())
            tot.calls += st.calls
            tot.points += st.points
            tot.self_s += st.self_s * scale

    def _wrap(self, fn, stem: str, points: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._child
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                incl = time.perf_counter() - t0
                children = stack.pop()
                stack[-1] += incl
                st = tracer.op_stats.get(stem)
                if st is None:
                    st = tracer.op_stats[stem] = _Stat()
                st.calls += 1
                st.self_s += incl - children
                if points:
                    # methods: args[0] is self, the points come next
                    st.points += int(np.size(args[1]))

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import jacksonq.checks as checks

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "jacksonq"
                                         or name.startswith("jacksonq."))]
        for modname, path, stem, points in LAYERS:
            owner = sys.modules["jacksonq." + modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                self._replace(cls, attr, self._wrap(orig, stem, points))
                continue
            orig = getattr(owner, path)
            wrapped = self._wrap(orig, stem, points)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, name, wrapped)
        for suite in SUITE_IDS:
            orig = checks.SUITES[suite]
            checks.SUITES[suite] = self._wrap(orig, f"checks.{suite}", False)
            self._undo.append((checks.SUITES.__setitem__, suite, orig))

    def _replace(self, owner, name, wrapped) -> None:
        orig = getattr(owner, name) if not isinstance(owner, type) \
            else owner.__dict__[name]
        setattr(owner, name, wrapped)
        self._undo.append((functools.partial(setattr, owner), name, orig))

    def uninstall(self) -> None:
        for restore, name, orig in reversed(self._undo):
            restore(name, orig)
        self._undo.clear()

    # -- report --------------------------------------------------------------

    def per_op(self, ops: int) -> dict:
        """Every metric of metric_names(), averaged over ``ops`` operations."""
        out = {}
        for _, _, stem, points in LAYERS:
            self._emit(out, stem, points, ops)
        for suite in SUITE_IDS:
            self._emit(out, f"checks.{suite}", False, ops)
        return out

    def _emit(self, out, stem, points, ops) -> None:
        st = self.stats.get(stem, _Stat())
        out[stem + ".calls"] = st.calls / ops
        if points:
            out[stem + ".points"] = st.points / ops
        out[stem + ".self_ms"] = 1e3 * st.self_s / ops
