"""Layer spans recorded from outside the homnambu package.

:class:`Tracer` replaces the public functions listed in ``TARGETS`` by
wrappers that record one span per call: name, start, end, parent span,
job id and a few counters.  A function is replaced wherever its name is
looked up: in the module that defines it and in every ``homnambu``
module that imported it by name (``fundamental_of`` lives in
``fundamental`` but is also looked up in ``scalar_cohomology``,
``adjoint_cohomology`` and ``bridge``).  :meth:`Tracer.uninstall` puts
the originals back.  Nothing under ``src/`` is edited.

Spans stay in memory; the worker writes them out when its run ends and
:func:`layer_metrics` turns one pass worth of spans into self times and
counts.  A span's self time is its duration minus the durations of its
direct children; calls are never concurrent, so children never overlap.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter

# Counters computed after a call has returned.  The time they take is
# recorded as a ``trace.hook`` span so that it is not billed to a layer.


def _operator_attrs(args, result):
    return {"nnz": len(result.entries), "cells": result.rows * result.cols}


def _to_dense_attrs(args, result):
    return {"cells": args[0].rows * args[0].cols}


def _echelon_attrs(args, result):
    rows, cols = args[1], args[2]
    bits = max((abs(v).bit_length() for row in result[0] for v in row), default=0)
    return {"cells": rows * cols, "max_rank": min(rows, cols), "rank": result[2], "bits": bits}


# (span name, module under homnambu, attribute, counter hook).  The span
# name's first component is the layer.
TARGETS = [
    ("cli.main", "cli", "main", None),
    ("formats.load", "formats", "load_algebra", None),
    ("formats.load", "formats", "load_cochains", None),
    ("formats.save", "formats", "save_algebra", None),
    ("formats.save", "formats", "save_cochains", None),
    ("algebra.validate", "algebra", "check_skew_symmetry", None),
    ("algebra.validate", "algebra", "check_hom_nambu_identity", None),
    ("algebra.validate", "algebra", "check_multiplicativity", None),
    ("fundamental.fundamental_of", "fundamental", "fundamental_of", None),
    ("fundamental.build", "fundamental", "build_fundamental", None),
    ("cochains.space", "cochains", "CochainSpace.__init__", None),
    ("cochains.functional", "cochains", "CochainSpace.functional", None),
    ("cochains.convert", "cochains", "Cochain.from_flat", None),
    ("cochains.convert", "cochains", "Cochain.to_flat", None),
    ("scalar_cohomology.cohomology", "scalar_cohomology", "cohomology", None),
    ("scalar_cohomology.assemble", "scalar_cohomology", "coboundary_matrix", _operator_attrs),
    ("scalar_cohomology.assemble", "scalar_cohomology", "zero_coboundary_matrix", _operator_attrs),
    ("adjoint_cohomology.cohomology", "adjoint_cohomology", "cohomology", None),
    ("adjoint_cohomology.assemble", "adjoint_cohomology", "coboundary_matrix", _operator_attrs),
    ("adjoint_cohomology.assemble", "adjoint_cohomology", "zero_coboundary_matrix", _operator_attrs),
    ("adjoint_cohomology.equivariance", "adjoint_cohomology", "equivariance_matrix", None),
    ("adjoint_cohomology.equivariance", "adjoint_cohomology", "equivariant_basis", None),
    ("adjoint_cohomology.equivariance", "adjoint_cohomology", "equivariant_matrix_space", None),
    ("adjoint_cohomology.equivariance", "adjoint_cohomology", "equivariance_violations", None),
    ("adjoint_cohomology.residuals", "adjoint_cohomology", "deformation_residuals", None),
    ("adjoint_cohomology.deform_check", "adjoint_cohomology", "check_infinitesimal_deformation", None),
    ("adjoint_cohomology.random_cochain", "adjoint_cohomology", "random_equivariant_cochain", None),
    ("linalg.rref", "linalg", "rref", None),
    ("linalg.rref", "linalg", "rank", None),
    ("linalg.basis", "linalg", "kernel_basis", None),
    ("linalg.basis", "linalg", "image_basis", None),
    ("linalg.quotient", "linalg", "quotient_dim", None),
    ("linalg.to_dense", "linalg", "SparseMatrix.to_dense", _to_dense_attrs),
    ("linalg.sparse_matmul", "linalg", "sparse_matmul", None),
    ("linalg.sparse_mat_vec", "linalg", "sparse_mat_vec", None),
    ("linalg.matmul", "linalg", "matmul", None),
    ("backends.echelon", "backends", "echelon_int", _echelon_attrs),
    ("backends.matmul", "backends", "matmul_int", None),
    ("bridge.tensor_fundamental", "bridge", "tensor_fundamental_of", None),
    ("bridge.tensor_fundamental", "bridge", "build_tensor_fundamental", None),
    ("bridge.leibniz_coboundary", "bridge", "leibniz_coboundary", None),
    ("bridge.bridge_coboundary", "bridge", "bridge_coboundary", None),
    ("bridge.delta_lift", "bridge", "delta_lift", None),
    ("bridge.delta_lift", "bridge", "delta_lift_ternary", None),
    ("bridge.pullback", "bridge", "pullback_wedge_cochain", None),
    ("bridge.pullback", "bridge", "wedge_projection", None),
    ("bridge.commuting_square", "bridge", "check_commuting_square", None),
]

LAYERS = (
    "formats",
    "algebra",
    "fundamental",
    "cochains",
    "scalar_cohomology",
    "adjoint_cohomology",
    "linalg",
    "backends",
    "bridge",
    "cli",
)

HOOK = "trace.hook"


class Tracer:
    """Span recorder for one process; install around traced passes only."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job, attrs]
        self.job = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, self.job, None]
            spans.append(record)
            stack.append(idx)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if hook is not None:
                record[5] = hook(args, result)
                spans.append([HOOK, record[2], perf_counter(), parent, self.job, None])
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "homnambu" or n.startswith("homnambu."))
        ]
        for name, modname, attr, hook in TARGETS:
            owner = sys.modules["homnambu." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, hook))
                else:
                    new = self._wrap(name, raw, hook)
                self._saved.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, fn, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._saved.append((module, key, fn))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            obj, key, original = self._saved.pop()
            setattr(obj, key, original)

    def take(self) -> list:
        """Hand over the spans recorded so far and start a new list."""
        if self._stack:
            raise RuntimeError("spans are still open")
        taken = [tuple(s) for s in self.spans]
        self.spans.clear()
        return taken


def self_times(spans) -> list:
    """Self seconds of each span: duration minus its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _job, _attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, *_rest) in enumerate(spans)]


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer self times and counters of one traced pass."""
    own = self_times(spans)
    by_name = {}
    attrs = {}
    for (name, *_rest, a), own_s in zip(spans, own):
        total, count = by_name.get(name, (0.0, 0))
        by_name[name] = (total + own_s, count + 1)
        if a:
            acc = attrs.setdefault(name, {})
            for k, v in a.items():
                acc[k] = max(acc.get(k, 0), v) if k == "bits" else acc.get(k, 0) + v

    def s(*names):
        return sum((by_name.get(n, (0.0, 0))[0] for n in names), 0.0)

    def calls(name):
        return by_name.get(name, (0.0, 0))[1]

    def attr(name, key):
        return attrs.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    # A fundamental_of call is a memo hit when it did not build.
    builds_under_lookup = sum(
        1 for name, *_r, parent, _j, _a in spans
        if name == "fundamental.build" and parent >= 0
        and spans[parent][0] == "fundamental.fundamental_of"
    )
    lookups = calls("fundamental.fundamental_of")
    out = {
        "formats.load_s": s("formats.load"),
        "formats.save_s": s("formats.save"),
        "algebra.validate_s": s("algebra.validate"),
        "algebra.validate_calls": calls("algebra.validate"),
        "fundamental.build_s": s("fundamental.build"),
        "fundamental.cache_hit_frac": ratio(lookups - builds_under_lookup, lookups),
        "cochains.space_s": s("cochains.space"),
        "cochains.functional_s": s("cochains.functional"),
        "cochains.functional_calls": calls("cochains.functional"),
        "scalar_cohomology.assemble_s": s("scalar_cohomology.assemble"),
        "scalar_cohomology.assemble_calls": calls("scalar_cohomology.assemble"),
        "scalar_cohomology.operator_nnz": attr("scalar_cohomology.assemble", "nnz"),
        "scalar_cohomology.operator_density": ratio(
            attr("scalar_cohomology.assemble", "nnz"), attr("scalar_cohomology.assemble", "cells")
        ),
        "adjoint_cohomology.assemble_s": s("adjoint_cohomology.assemble"),
        "adjoint_cohomology.equivariance_s": s("adjoint_cohomology.equivariance"),
        "adjoint_cohomology.residuals_s": s("adjoint_cohomology.residuals"),
        "adjoint_cohomology.operator_nnz": attr("adjoint_cohomology.assemble", "nnz"),
        "adjoint_cohomology.operator_density": ratio(
            attr("adjoint_cohomology.assemble", "nnz"), attr("adjoint_cohomology.assemble", "cells")
        ),
        "linalg.to_dense_s": s("linalg.to_dense"),
        "linalg.to_dense_cells": attr("linalg.to_dense", "cells"),
        "linalg.rref_s": s("linalg.rref"),
        "linalg.quotient_s": s("linalg.quotient"),
        "linalg.sparse_matmul_s": s("linalg.sparse_matmul"),
        "linalg.sparse_mat_vec_s": s("linalg.sparse_mat_vec"),
        "backends.echelon_s": s("backends.echelon"),
        "backends.echelon_calls": calls("backends.echelon"),
        "backends.echelon_cells": attr("backends.echelon", "cells"),
        "backends.rank_frac": ratio(
            attr("backends.echelon", "rank"), attr("backends.echelon", "max_rank")
        ),
        "backends.max_bits": attr("backends.echelon", "bits"),
        "bridge.tensor_fundamental_s": s("bridge.tensor_fundamental"),
        "bridge.leibniz_coboundary_s": s("bridge.leibniz_coboundary"),
        "bridge.bridge_coboundary_s": s("bridge.bridge_coboundary"),
        "bridge.delta_lift_s": s("bridge.delta_lift"),
        "bridge.pullback_s": s("bridge.pullback"),
    }
    covered = 0.0
    for layer in LAYERS:
        total = s(*(n for n in by_name if n.split(".")[0] == layer))
        out[f"{layer}.self_s"] = total
        covered += total
    out["trace.hook_s"] = s(HOOK)
    out["trace.coverage_frac"] = ratio(covered, wall_s)
    return out


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over traced passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
