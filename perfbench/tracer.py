"""Per-layer trace of purecoalg, recorded from outside the package.

The tracer rebinds each listed public function in every ``purecoalg``
module namespace that holds it, and each listed method on its class, so
calls made inside the package are seen as well as calls from the
benchmark.  Every call becomes a span with its parent span and a
``verify`` or ``compute`` tag; spans stay in memory as flat arrays and are
written out once, after the run.  Nothing in the package is edited:
``uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from fractions import Fraction
from time import perf_counter

# Layer (module) -> functions and methods to wrap.  "Filtration" wraps the
# constructor, which is where a filtration is validated.
LAYERS = {
    "matrix": ["hnf", "hnf_basis", "left_kernel_rows", "snf", "elementary_divisors", "charpoly",
               "Matrix.rank", "Matrix.inverse", "Matrix.__mul__", "Matrix.kron"],
    "lattice": ["Lattice.from_rows", "Lattice.solve", "Lattice.is_pure", "Lattice.saturate",
                "Lattice.intersect", "Lattice.kron", "Lattice.complement_projection",
                "kernel_lattice", "solve_in_rows"],
    "polyroots": ["integer_roots", "prime_field_roots"],
    "grouplike": ["group_likes", "is_pointed"],
    "coalgebra": ["validate_coalgebra", "validate_map", "is_subcoalgebra", "tensor", "conjugate",
                  "dual_algebra"],
    "structure": ["wedge", "Filtration", "coradical_filtration", "components", "components_by_wedge",
                  "split_coradical", "check_splitting_naturality", "tensor_filtration",
                  "push_filtration"],
    "binomial": ["binomial_check"],
    "simplicial": ["chains_functor", "homology", "is_weak_equivalence", "is_cofibration",
                   "validate_sset"],
    "serialize": ["load_json", "coalgebra_from_obj", "canonical_dumps", "save_text"],
    "cli": ["run_command"],
}

SPAN_NAMES = [f"{module}.{name}" for module, names in LAYERS.items() for name in names]

VERIFY_SPANS = frozenset({
    "coalgebra.validate_coalgebra", "coalgebra.validate_map", "simplicial.validate_sset",
    "coalgebra.is_subcoalgebra", "lattice.Lattice.is_pure", "structure.Filtration",
})
ELIMINATION_SPANS = frozenset({
    "matrix.hnf", "matrix.hnf_basis", "matrix.left_kernel_rows", "matrix.snf",
    "matrix.elementary_divisors",
})
GROUPLIKE_SPANS = frozenset({"grouplike.group_likes", "grouplike.is_pointed"})


def entry_bits(value) -> int:
    """Largest bit length of any exact entry inside ``value``.

    A Fraction counts the larger of its numerator and denominator.
    Matrices, lists and tuples are searched; anything else counts zero.
    """
    if isinstance(value, bool):
        return 0
    if isinstance(value, int):
        return abs(value).bit_length()
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    rows = getattr(value, "rows", None)
    if isinstance(rows, list):
        value = rows
    if isinstance(value, (list, tuple)):
        best = 0
        for item in value:
            bits = entry_bits(item)
            if bits > best:
                best = bits
        return best
    return 0


class Tracer:
    """Spans and exact counters for one traced run."""

    def __init__(self):
        self.index = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.elim_cells = 0
        self.elim_max_bits = 0
        self.grouplike_coalgebras = set()
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # open spans as [span id, child time]
        self._restore = []
        self._origin = perf_counter()

    # --- installation ------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "purecoalg" or n.startswith("purecoalg."))]
        for module_name, names in LAYERS.items():
            module = sys.modules[f"purecoalg.{module_name}"]
            for name in names:
                span = self.index[f"{module_name}.{name}"]
                owner_name, _, method = name.rpartition(".")
                if name == "Filtration":
                    owner_name, method = "Filtration", "__init__"
                if owner_name:
                    self._wrap_method(getattr(module, owner_name), method, span)
                else:
                    self._wrap_function(modules, getattr(module, name), span)
        self._origin = perf_counter()

    def uninstall(self):
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def _wrap_function(self, modules, original, span):
        wrapper = self._make_wrapper(original, span)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _wrap_method(self, cls, method, span):
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            replacement = classmethod(self._make_wrapper(raw.__func__, span))
        else:
            replacement = self._make_wrapper(raw, span)
        self._restore.append((cls, method, raw))
        setattr(cls, method, replacement)

    def _make_wrapper(self, fn, span):
        name = SPAN_NAMES[span]
        if name in ELIMINATION_SPANS:
            def observe(args, result):
                mat = args[0]
                self.elim_cells += mat.nrows * mat.ncols
                bits = max(entry_bits(mat), entry_bits(result))
                if bits > self.elim_max_bits:
                    self.elim_max_bits = bits
        elif name in GROUPLIKE_SPANS:
            def observe(args, result):
                self.grouplike_coalgebras.add(args[0])
        else:
            observe = None

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            sid = len(self.span_name)
            self.span_name.append(span)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [sid, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = perf_counter()
                self._stack.pop()
                self.span_start[sid] = start - self._origin
                self.span_end[sid] = end - self._origin
                self.calls[span] += 1
                self.self_s[span] += (end - start) - frame[1]
                if done and observe is not None:
                    observe(args, result)
                if self._stack:
                    # the parent's self time excludes this whole call, bookkeeping included
                    self._stack[-1][1] += perf_counter() - entered
            return result

        return functools.update_wrapper(wrapper, fn)

    # --- results -----------------------------------------------------------

    def counters(self) -> dict:
        """The exact counts: identical across traced runs of one seed."""
        out = {f"{name}.calls": self.calls[i] for i, name in enumerate(SPAN_NAMES)}
        out["matrix.elim.cells"] = self.elim_cells
        out["matrix.elim.max_bits"] = self.elim_max_bits
        grouplike_calls = sum(self.calls[self.index[n]] for n in GROUPLIKE_SPANS)
        distinct = len(self.grouplike_coalgebras)
        out["grouplike.calls_per_coalgebra"] = grouplike_calls / distinct if distinct else 0.0
        return out

    def self_times(self) -> dict:
        return {f"{name}.self_s": self.self_s[i] for i, name in enumerate(SPAN_NAMES)}

    def verify_self_s(self) -> float:
        return sum(self.self_s[self.index[n]] for n in VERIFY_SPANS)

    def write_spans(self, path):
        """Write every span, with its parent and tag, as gzipped JSON columns."""
        payload = {
            "names": SPAN_NAMES,
            "tags": ["verify" if n in VERIFY_SPANS else "compute" for n in SPAN_NAMES],
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_s": self.span_start.tolist(),
            "end_s": self.span_end.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)
