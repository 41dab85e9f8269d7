"""Span tracer that times calls into monocat's layers from outside.

``Tracer.install()`` wraps the program's public functions and methods.
A module-level function is replaced in *every* ``monocat.*`` namespace
that binds it: ``watts`` does ``from .linalg import compose``, so
patching ``linalg.compose`` alone would miss each call made from
``watts``.  Methods are replaced on the class that defines them.

Each wrapped call records a span (name, start, end, parent) in flat
arrays kept in memory; ``write()`` stores them when the run ends.  A
span's self time is its duration minus the time its child spans cover.
The extra work some wrappers do to count (operand nonzeros, hash keys)
runs after the span closes and is charged to no layer: a span covers its
parent until ``covers``, after that work.  Times are computed when the
run ends, on a clock that ``metrics()`` takes, so they can be given in
reference seconds (``speed.py``).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# metric label -> (module, qualified name) of every function it covers
LAYERS = {
    "linalg.compose": [("linalg", "compose")],
    "linalg.tensor": [("linalg", "tensor")],
    "linalg.apply": [("linalg", "LinearMap.__call__")],
    "linalg.rref": [("linalg", "_rref")],
    "linalg.solve_iso": [("linalg", "solve_iso")],
    "algmod.balanced_tensor": [("algmod", "balanced_tensor")],
    "algmod.descend": [("algmod", "descend")],
    "algmod.bimodule_tensor": [("algmod", "bimodule_tensor")],
    "algmod.hom_basis": [("algmod", "hom_basis")],
    "algmod.check": [("algmod", "Module.check"), ("algmod", "Bimodule.check")],
    "watts.product": [("watts", "CustomTensor.product")],
    "watts.mor": [("watts", "CustomTensor.mor")],
    "watts.dcell": [("watts", "WattsContext.dcell")],
    "watts.c_iso": [("watts", "WattsContext.c_iso")],
    "watts.alpha_prime": [("watts", "WattsContext.alpha_prime")],
    "watts.xi": [("watts", "OmegaFunctor.xi")],
    "watts.stage.axioms": [("watts", "check_monoidal_axioms")],
    "watts.stage.transport": [("watts", "WattsContext.__init__"),
                              ("watts", "check_T_coherence")],
    "watts.stage.functor": [("watts", "verify_monoidal_functor")],
    "watts.stage.embedding": [("watts", "verify_embedding")],
    "watts.stage.rigidity": [("watts", "check_rigidity")],
    "fixtures.load": [("fixtures", "load_fixture_file")],
    "cli.emit": [("cli", "_emit")],
    "fusion": [("fusion", "FusionData.validate")],  # + module functions
}

# classes whose __hash__ is counted (no span: millions of calls)
HASHED = [("algmod", "Module"), ("algmod", "Bimodule")]


def _monocat_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "monocat" or name.startswith("monocat."))
            and m is not None]


def _resolve(modname: str, qualname: str):
    module = sys.modules[f"monocat.{modname}"]
    owner, _, attr = qualname.rpartition(".")
    holder = getattr(module, owner) if owner else module
    return holder, attr


def _matrix_nnz(m) -> int:
    return sum(1 for row in m.matrix for a in row if a.value)


def _structure_key(mod) -> tuple:
    """Equality key of a Module/Bimodule that calls no ``__hash__``."""
    mats = (mod.action if hasattr(mod, "action") else mod.left + mod.right)
    return (type(mod).__name__, mod.name, mod.algebra.name,
            getattr(mod, "side", ""), mod.space.labels,
            tuple(tuple(tuple(a.value for a in row) for row in m.matrix)
                  for m in mats))


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.labels = []            # name id -> label
        self.starts = array("q")    # perf_counter_ns
        self.ends = array("q")
        self.covers = array("q")    # end of the span's counting work
        self.parents = array("q")   # span index, -1 at the top
        self.names = array("i")     # index into labels
        self.counters = {"linalg.compose.madds": 0,
                         "linalg.compose.operand_entries": 0,
                         "linalg.compose.operand_nnz": 0,
                         "linalg.tensor.out_entries": 0,
                         "linalg.max_matrix_entries": 0,
                         "algmod.check.repeats": 0,
                         "algmod.hash.calls": 0,
                         "watts.product.hits": 0}
        self._stack = []            # indices of the open spans
        self._checked = set()
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def _label_id(self, label: str) -> int:
        if label not in self.labels:
            self.labels.append(label)
        return self.labels.index(label)

    def _wrap(self, label: str, fn, after=None, before=None):
        nid = self._label_id(label)
        stack = self._stack
        starts, ends, covers = self.starts, self.ends, self.covers
        parents, names = self.parents, self.names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(nid)
            ends.append(0)
            covers.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = covers[idx] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, result, state)
                covers[idx] = perf_counter_ns()
            return result

        return traced

    # -- per-call counting hooks ---------------------------------------------

    def _after_compose(self, args, result, _):
        f, g = args
        m, n, k = f.target.dim, f.source.dim, g.source.dim
        c = self.counters
        c["linalg.compose.madds"] += m * n * k
        c["linalg.compose.operand_entries"] += m * n + n * k
        c["linalg.compose.operand_nnz"] += _matrix_nnz(f) + _matrix_nnz(g)
        c["linalg.max_matrix_entries"] = max(
            c["linalg.max_matrix_entries"], m * n, n * k, m * k)

    def _after_tensor(self, args, result, _):
        entries = result.target.dim * result.source.dim
        c = self.counters
        c["linalg.tensor.out_entries"] += entries
        c["linalg.max_matrix_entries"] = max(
            c["linalg.max_matrix_entries"], entries)

    def _after_check(self, args, result, _):
        key = _structure_key(args[0])
        if key in self._checked:
            self.counters["algmod.check.repeats"] += 1
        self._checked.add(key)

    @staticmethod
    def _before_product(args):
        return len(args[0]._products)

    def _after_product(self, args, result, size_before):
        if len(args[0]._products) == size_before:
            self.counters["watts.product.hits"] += 1

    # -- installing ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Rebind ``original`` to ``replacement`` in every monocat module."""
        found = 0
        for module in _monocat_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)
                    found += 1
        return found

    def install(self) -> "Tracer":
        import monocat.cli  # noqa: F401  (loads every layer module)
        hooks = {
            "linalg.compose": {"after": self._after_compose},
            "linalg.tensor": {"after": self._after_tensor},
            "algmod.check": {"after": self._after_check},
            "watts.product": {"before": self._before_product,
                              "after": self._after_product},
        }
        targets = [(label, mod, qual) for label, items in LAYERS.items()
                   for mod, qual in items]
        fusion = sys.modules["monocat.fusion"]
        targets += [("fusion", "fusion", name)
                    for name, fn in sorted(vars(fusion).items())
                    if inspect.isfunction(fn) and not name.startswith("_")
                    and fn.__module__ == fusion.__name__]
        for label, mod, qual in targets:
            holder, attr = _resolve(mod, qual)
            original = vars(holder)[attr]
            wrapped = self._wrap(label, original, **hooks.get(label, {}))
            if inspect.isclass(holder):
                self._restore.append((holder, attr, original))
                setattr(holder, attr, wrapped)
            elif self._replace_everywhere(original, wrapped) == 0:
                raise RuntimeError(f"{mod}.{qual} is bound nowhere")
        for mod, cls_name in HASHED:
            cls = getattr(sys.modules[f"monocat.{mod}"], cls_name)
            self._restore.append((cls, "__hash__", cls.__dict__["__hash__"]))
            cls.__hash__ = self._counting_hash(cls.__dict__["__hash__"])
        return self

    def _counting_hash(self, original):
        counters = self.counters

        def counted(obj):
            counters["algmod.hash.calls"] += 1
            return original(obj)
        return counted

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    # -- results -------------------------------------------------------------

    def ancestors(self, idx: int):
        """Labels of the spans enclosing span ``idx``, innermost first."""
        out = []
        p = self.parents[idx]
        while p >= 0:
            out.append(self.labels[self.names[p]])
            p = self.parents[p]
        return out

    def metrics(self, clock=None) -> dict:
        """Per-layer metrics by name: counts exact, times in the units of
        ``clock`` (a function of ``time.perf_counter()`` values; plain
        seconds by default)."""
        clock = clock or (lambda t: t)
        at = [clock(t / 1e9) for t in self.starts]
        self_t = [0.0] * len(self.labels)
        outermost = [0.0] * len(self.labels)
        stages = {i for i, label in enumerate(self.labels)
                  if label.startswith("watts.stage.")}
        for i, (name, parent) in enumerate(zip(self.names, self.parents)):
            span = clock(self.ends[i] / 1e9) - at[i]
            self_t[name] += span
            if parent >= 0:
                self_t[self.names[parent]] -= \
                    clock(self.covers[i] / 1e9) - at[i]
            if name in stages and self.labels[name] not in self.ancestors(i):
                outermost[name] += span
        counts = Counter(self.names)

        def calls(label):
            return (counts[self.labels.index(label)]
                    if label in self.labels else 0)

        def self_s(label):
            return (self_t[self.labels.index(label)]
                    if label in self.labels else 0.0)

        def span_s(label):
            """Time of the spans of ``label`` not inside another."""
            return (outermost[self.labels.index(label)]
                    if label in self.labels else 0.0)

        def share(num, den):
            return num / den if den else 0.0

        c = self.counters
        out = {}
        for label in ("linalg.compose", "linalg.tensor", "linalg.apply",
                      "linalg.rref", "algmod.balanced_tensor",
                      "algmod.descend", "algmod.bimodule_tensor",
                      "algmod.hom_basis", "algmod.check", "watts.mor",
                      "watts.dcell", "watts.c_iso", "watts.alpha_prime",
                      "watts.xi", "fusion"):
            out[f"{label}.calls"] = calls(label)
            out[f"{label}.self_s"] = self_s(label)
        out["linalg.compose.madds"] = c["linalg.compose.madds"]
        out["linalg.compose.nnz_share"] = share(
            c["linalg.compose.operand_nnz"],
            c["linalg.compose.operand_entries"])
        out["linalg.tensor.out_entries"] = c["linalg.tensor.out_entries"]
        out["linalg.max_matrix_entries"] = c["linalg.max_matrix_entries"]
        out["linalg.solve_iso.calls"] = calls("linalg.solve_iso")
        out["algmod.check.repeat_share"] = share(
            c["algmod.check.repeats"], calls("algmod.check"))
        out["algmod.hash.calls"] = c["algmod.hash.calls"]
        out["watts.product.calls"] = calls("watts.product")
        out["watts.product.hit_share"] = share(
            c["watts.product.hits"], calls("watts.product"))
        for stage in ("axioms", "transport", "functor", "embedding",
                      "rigidity"):
            out[f"watts.stage.{stage}_s"] = span_s(f"watts.stage.{stage}")
        out["fixtures.load.self_s"] = self_s("fixtures.load")
        out["cli.emit.self_s"] = self_s("cli.emit")
        return out

    def write(self, path) -> None:
        """Spans as a JSON header line followed by the raw arrays."""
        header = {"labels": self.labels, "spans": len(self.names),
                  "arrays": ["starts:int64", "ends:int64", "covers:int64",
                             "parents:int64", "names:int32"],
                  "clock": "perf_counter_ns"}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.starts, self.ends, self.covers, self.parents,
                        self.names):
                arr.tofile(fh)
