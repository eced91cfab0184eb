"""Per-layer timing for the traced run, installed from outside the library.

Each traced function is replaced by a wrapper on every binding the program
calls through: the module attribute where it is defined, every other padicu
module that imported it by name, or the class that owns it.  A wrapper
counts calls, adds the inclusive time of the outermost active call to
``ms`` and the time not covered by wrapped children to ``self_ms``.
``scalars.unram_rmul`` is counted but not timed: it runs millions of times,
and its time stays in its caller's self time.
"""

from __future__ import annotations

import sys
import time

# name -> (module, owner, attribute); owner None means a module-level function
TRACED = (
    ("matrices.residue_matrix_order", "matrices", None, "residue_matrix_order"),
    ("arith.factorize", "arith", None, "factorize"),
    ("matrices.matrix_power", "matrices", "PadicMatrix", "matrix_power"),
    ("unitary.classify", "unitary", None, "classify"),
    ("unitary.jordan_decompose", "unitary", None, "jordan_decompose"),
    ("matrices.matmul", "matrices", "PadicMatrix", "__matmul__"),
    ("matrices.char_poly", "matrices", "PadicMatrix", "char_poly_raw"),
    ("matrices.inverse", "matrices", "PadicMatrix", "inverse"),
    ("gm.orthogonality_test", "gm", None, "orthogonality_test"),
    ("gm.bezout_idempotents", "gm", None, "bezout_idempotents"),
    ("gm.bezout_verify", "gm", "BezoutIdempotents", "verify"),
    ("unitary.spectral_verify", "unitary", "SpectralDatum", "verify"),
    ("fppoly.factor", "fppoly", None, "factor"),
    ("gm.teich_factor", "gm", None, "teich_factor"),
    ("matrices.smith_form", "matrices", "PadicMatrix", "smith_form"),
    ("unitary.spectrum_table", "unitary", None, "spectrum_table"),
    ("unitary.projection_functors", "unitary", None, "projection_functors"),
    ("gm.evaluate_matrix", "gm", "LaurentPoly", "evaluate_matrix"),
    ("unitary.teichmuller_spectral", "unitary", None, "teichmuller_spectral"),
    ("unitary.power_zp", "unitary", None, "power_zp"),
    ("moduli.canonical_modulus", "moduli", None, "canonical_modulus"),
)
COUNTED = (("scalars.unram_rmul", "scalars", "UnramRing", "rmul"),)
CHILD_MARKER = "perfbench-trace "  # prefix of the stats line a traced CLI child writes to stderr
CLI_GROUPS = ("cli.import_ms", "cli.command_ms", "serialize.decode_ms", "serialize.encode_ms")


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name, *_ in TRACED:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.ms", "ms", "lower"),
                (f"{name}.self_ms", "ms", "lower")]
    out += [(f"{name}.calls", "count", "lower") for name, *_ in COUNTED]
    out += [(name, "ms", "lower") for name in CLI_GROUPS]
    out += [("trace.ops_per_s", "1/s", "higher"), ("trace.overhead_pct", "%", "lower")]
    return out


class Recorder:
    """Call counts and nanosecond totals per traced name."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self._depth: dict[str, int] = {}
        self._children: list[int] = []  # covered time of each open wrapped call

    def timed(self, name: str, fn):
        calls, total, own, depth, children = (
            self.calls, self.total_ns, self.self_ns, self._depth, self._children)
        for table in (calls, total, own, depth):
            table.setdefault(name, 0)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            children.append(0)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[name] -= 1
                covered = children.pop()
                calls[name] += 1
                own[name] += elapsed - covered
                if not depth[name]:
                    total[name] += elapsed
                if children:
                    children[-1] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def grouped(self, name: str, fns: dict):
        """One timed name over several functions; nested members count once."""
        self.calls.setdefault(name, 0)
        return {attr: self.timed(name, fn) for attr, fn in fns.items()}

    def as_totals(self) -> dict[str, float]:
        """Metric name -> total over the recorded calls (counts, or milliseconds)."""
        out: dict[str, float] = {}
        for name, calls in self.calls.items():
            if name in CLI_GROUPS:
                out[name] = self.total_ns[name] / 1e6
                continue
            out[f"{name}.calls"] = calls
            if name in self.total_ns:
                out[f"{name}.ms"] = self.total_ns[name] / 1e6
                out[f"{name}.self_ms"] = self.self_ns[name] / 1e6
        return out


def _rebind(original, replacement) -> list[str]:
    """Point every padicu module attribute that is `original` at `replacement`."""
    rebound = []
    for modname, module in list(sys.modules.items()):
        if modname == "padicu" or modname.startswith("padicu."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    rebound.append(modname)
    return rebound


def install(recorder: Recorder) -> dict[str, list[str]]:
    """Wrap every traced function of the imported padicu package, and time the
    serialize decoders and encoders as one group each.

    Returns, per traced name, the modules (or the class) whose binding now
    points at the wrapper.
    """
    import importlib

    bindings = {}
    for name, modname, owner, attr in TRACED + COUNTED:
        module = importlib.import_module(f"padicu.{modname}")
        make = recorder.counted if (name, modname, owner, attr) in COUNTED else recorder.timed
        if owner is None:
            original = getattr(module, attr)
            bindings[name] = _rebind(original, make(name, original))
        else:
            cls = getattr(module, owner)
            setattr(cls, attr, make(name, vars(cls)[attr]))
            bindings[name] = [f"{module.__name__}.{owner}"]
    from padicu import serialize

    groups = (("serialize.decode_ms", "_from_doc", "ring_from_header"),
              ("serialize.encode_ms", "_to_doc", "ring_header"))
    for group, suffix, header in groups:
        members = {a: f for a, f in vars(serialize).items()
                   if callable(f) and getattr(f, "__module__", None) == serialize.__name__
                   and (a.endswith(suffix) or a == header)}
        for attr, wrapped in recorder.grouped(group, members).items():
            _rebind(members[attr], wrapped)
    return bindings
