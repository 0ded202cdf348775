"""Call tracing of recplane's layers, installed from outside the program.

`Tracer.install()` replaces each public function named in `TIMED` by a
wrapper that records a span (name, start, end, parent span, item id), in the
defining module and in every recplane namespace that imported the same
object, because `from .modules import module_groebner` binds a second name.
Field and polynomial operations in `COUNTED` are counted, not timed: at that
grain a timer would mostly measure itself.

Spans stay in memory, column by column, until `write()`; `layer_metrics()`
turns them into the per-layer metrics, self time included.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array

# (module, public function) pairs that get a span per call.
TIMED = {
    "cli": ("main", "load_arrangement"),
    "oracle": (
        "verify_theorem1", "verify_theorem2", "verify_minimal",
        "verify_lemma7", "verify_groebner_lemma", "verify_charts",
        "count_points", "hilbert", "kernel_I", "kernel_K_degree",
        "chart_kernel", "eval_h", "eval_psi", "eval_chart",
    ),
    "modules": (
        "module_buchberger", "module_normal_form", "module_preimage",
        "module_groebner", "reduce_module_basis",
    ),
    "groebner": ("buchberger", "normal_form", "eliminate", "ideal_equal"),
    "relations": (
        "super_generators", "commutative_generators", "chart_ring", "p_of_LS",
    ),
    "arrangement": ("circuits", "flats", "distinct_relations"),
    "superalg": ("ext_mul",),
    "linalg": ("rank", "matrix_rank_f2_bitmask", "solve_combination"),
    "corpus": ("enumerate_arrangements", "random_rational_arrangements"),
}

# counter name -> (module, class, methods) whose calls are counted.
COUNTED = {
    "fields.prime_ops": ("fields", "PrimeField",
                         ("add", "sub", "mul", "div", "inv")),
    "fields.rational_ops": ("fields", "RationalField",
                            ("add", "sub", "mul", "div", "inv")),
    "polynomials.mul.calls": ("polynomials", "Polynomial",
                              ("__mul__", "mul_term")),
}


def _basis_len(args):
    return len(args[1])


def _rank_cells(args):
    rows = args[1]
    return len(rows) * (len(rows[0]) if rows else 0)


def _is_zero(result):
    if isinstance(result, tuple):  # module_normal_form(..., track=True)
        result = result[0]
    return result.is_zero()


# name -> function of the call's positional arguments, kept with the span
SPAN_VALUE = {
    "modules.module_normal_form": _basis_len,
    "linalg.rank": _rank_cells,
}
# names whose spans also keep whether the result was zero
SPAN_ZERO = {"modules.module_normal_form", "groebner.normal_form"}


class Tracer:
    """Span store plus the wrappers that feed it; one per traced process."""

    def __init__(self):
        self.names: list = []
        self.name_col = array("l")
        self.parent = array("l")
        self.item = array("l")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.zero = array("b")
        self.stack: list = []
        self.current_item = -1
        self.counters: dict = {name: [0] for name in COUNTED}

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap everything in TIMED and COUNTED; the recplane modules must
        be imported already."""
        mods = {name: sys.modules[f"recplane.{name}"] for name in TIMED}
        namespaces = [
            mod for key, mod in list(sys.modules.items())
            if key == "recplane" or key.startswith("recplane.")
        ]
        for modname, funcs in TIMED.items():
            for fname in funcs:
                original = getattr(mods[modname], fname)
                wrapped = self._wrap(f"{modname}.{fname}", original)
                for ns in namespaces:
                    for attr, obj in list(vars(ns).items()):
                        if obj is original:
                            setattr(ns, attr, wrapped)
        for counter, (modname, clsname, methods) in COUNTED.items():
            cls = getattr(sys.modules[f"recplane.{modname}"], clsname)
            cell = self.counters[counter]
            for meth in methods:
                setattr(cls, meth, _counting(getattr(cls, meth), cell))

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        value_of = SPAN_VALUE.get(name)
        keep_zero = name in SPAN_ZERO
        stack = self.stack
        name_col, parent, item = self.name_col, self.parent, self.item
        start, end, value, zero = (self.start, self.end, self.value,
                                   self.zero)
        clock = time.perf_counter
        # A generator function's work happens while it is iterated; it is
        # drained inside the span so that the span covers that work.
        eager = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_col)
            name_col.append(nid)
            parent.append(stack[-1] if stack else -1)
            item.append(self.current_item)
            value.append(0.0)
            zero.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = iter(list(result))
            finally:
                end[idx] = clock()
                stack.pop()
            if value_of is not None:
                value[idx] = value_of(args)
            if keep_zero and _is_zero(result):
                zero[idx] = 1
            return result

        return traced

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-name calls, inclusive seconds and self seconds, each layer's
        self seconds, the derived S-pair, basis-length and cell metrics and
        the counters."""
        n = len(self.name_col)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0.0}
                 for name in self.names}
        nid = {name: k for k, name in enumerate(self.names)}
        buch = {nid["modules.module_buchberger"]: "modules",
                nid["groebner.buchberger"]: "groebner"}
        nf = {nid["modules.module_normal_form"]: "modules",
              nid["groebner.normal_form"]: "groebner"}
        spairs = {"modules": [0, 0], "groebner": [0, 0]}
        for i in range(n):
            st = stats[self.names[self.name_col[i]]]
            dur = self.end[i] - self.start[i]
            st["calls"] += 1
            st["s"] += dur
            st["self_s"] += dur - child[i]
            st["value"] += self.value[i]
            layer = nf.get(self.name_col[i])
            p = self.parent[i]
            if layer and p >= 0 and buch.get(self.name_col[p]) == layer:
                spairs[layer][0] += 1
                spairs[layer][1] += self.zero[i]
        out = {f"{layer}.self_s": 0.0 for layer in TIMED}
        for name, st in stats.items():
            out[f"{name}.calls"] = st["calls"]
            out[f"{name}.s"] = st["s"]
            out[f"{name}.self_s"] = st["self_s"]
            out[f"{name.split('.')[0]}.self_s"] += st["self_s"]
        mnf = stats["modules.module_normal_form"]
        out["modules.module_normal_form.basis_len_mean"] = (
            mnf["value"] / mnf["calls"] if mnf["calls"] else 0.0)
        out["linalg.rank.cells"] = int(stats["linalg.rank"]["value"])
        for layer, (total, zeros) in spairs.items():
            out[f"{layer}.spairs"] = total
            out[f"{layer}.spairs_zero"] = zeros
            out[f"{layer}.spair_useful_ratio"] = (
                (total - zeros) / total if total else 0.0)
        for counter, cell in self.counters.items():
            out[counter] = cell[0]
        return out

    def write(self, path: str, item_names) -> None:
        """All spans, column by column, as gzip-compressed JSON."""
        data = {
            "names": self.names,
            "items": list(item_names),
            "columns": ["name", "parent", "item", "start", "end"],
            "name": self.name_col.tolist(),
            "parent": self.parent.tolist(),
            "item": self.item.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(data, fh, separators=(",", ":"))


def _counting(fn, cell):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    return counted
