"""Spans and counters around the public functions of each superholonomy module.

A Tracer is installed for one traced pass and removed after it; nothing under
src/ changes.  A module-level function is patched in every superholonomy
module (and this benchmark's modules) that holds it by name: ``merge_sign`` is
bound in grassmann, supermatrix and phase, ``gmat_mul`` in supermatrix and
group, the algebra builders in superlie, group, cli and the package.  Methods
are patched on their class.  ``uninstall`` puts every original back and checks
that it did.

Each call of a spanned function records a span (name, start, end, parent).
A span's self time is its duration minus the part its child spans cover.
``merge_sign`` is only counted, not spanned, so its time stays inside the
product loop that called it and the overhead stays bounded.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

from superholonomy import cli, grassmann, group, phase, superlie, supermatrix
from superholonomy.grassmann import GrassmannElement
from superholonomy.phase import GradedPolynomial
from superholonomy.supermatrix import SuperMatrix


def _pairs_elements(args):
    x, y = args[0], args[1]
    if isinstance(y, GrassmannElement):
        return len(x.terms) * len(y.terms)
    return 0


def _pairs_rows(x, y):
    # sum_{i,j,k} |x_ij| |y_jk| = sum_j (sum_i |x_ij|) (sum_k |y_jk|)
    inner = len(y)
    left = [0] * inner
    for row in x:
        for j in range(inner):
            left[j] += len(row[j].terms)
    return sum(left[j] * sum(len(e.terms) for e in y[j]) for j in range(inner))


def _pairs_gmat(args):
    return _pairs_rows(args[0], args[1])


def _pairs_supermatrix(args):
    return _pairs_rows(args[0].rows, args[1].rows)


def _pairs_poly(args):
    x, y = args[0], args[1]
    if isinstance(y, GradedPolynomial):
        return len(x.terms) * len(y.terms)
    return 0


# (owner, attribute, span name, term-pair counter or None).  The four product
# loops are the ones that carry a term-pair counter.
SPANNED_METHODS = (
    (GrassmannElement, "__mul__", "grassmann.mul", _pairs_elements),
    (GrassmannElement, "inverse", "grassmann.inverse", None),
    (SuperMatrix, "__matmul__", "supermatrix.matmul", _pairs_supermatrix),
    (SuperMatrix, "inverse", "supermatrix.inverse", None),
    (SuperMatrix, "expm", "supermatrix.expm", None),
    (SuperMatrix, "supertranspose", "supermatrix.supertranspose", None),
    (superlie.SuperAlgebra, "embed", "superlie.embed", None),
    (superlie.SuperAlgebra, "check_jacobi", "superlie.check_jacobi", None),
    (group.OspGroup, "sample_member", "group.sample_member", None),
    (group.OspGroup, "membership_defect", "group.membership_defect", None),
    (GradedPolynomial, "bracket", "phase.bracket", None),
    (GradedPolynomial, "__mul__", "phase.poly_mul", _pairs_poly),
)
SPANNED_FUNCTIONS = (
    (supermatrix, "gmat_mul", "supermatrix.gmat_mul", _pairs_gmat),
    (superlie, "build_osp", "superlie.build", None),
    (superlie, "build_osp12", "superlie.build", None),
    (group, "gauge_fix_sigma", "group.gauge_fix_sigma", None),
    (group, "fermionic_moduli_count", "group.moduli", None),
    (group, "fermionic_moduli_count_bruteforce", "group.moduli", None),
    (phase, "check_closure", "phase.check_closure", None),
    (phase, "flatness_constraints", "phase.flatness_constraints", None),
    (cli, "main", "cli.main", None),
)
COUNTED_FUNCTIONS = ((grassmann, "merge_sign", "grassmann.merge_sign.calls"),)

SPAN_NAMES = tuple(dict.fromkeys(n for _, _, n, _ in SPANNED_METHODS + SPANNED_FUNCTIONS))


def _binding_modules():
    """Every loaded module that can hold a library function by name."""
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name in ("superholonomy", "workloads")
                                    or name.startswith("superholonomy."))]


class Tracer:
    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.span_name = array("h")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.counts: Counter = Counter()
        self.bindings: Counter = Counter()      # function -> bindings patched
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _spanned(self, fn, name, pairs):
        nid = self.names.index(name)
        names, starts, ends, parents = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns
        gauge = name == "group.gauge_fix_sigma"

        def wrapper(*args, **kwargs):
            if pairs is not None:
                counts["grassmann.term_pairs"] += pairs(args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if gauge:
                    counts["group.gauge_fix_sigma.failed"] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if gauge:
                counts["group.gauge_fix_sigma.degrees_solved"] += len(result.degrees_solved)
            return result

        return wrapper

    def _counted(self, fn, key):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _patch_everywhere(self, module, attr, wrapper):
        original = getattr(module, attr)
        for mod in _binding_modules():
            for key in [k for k, v in vars(mod).items() if v is original]:
                setattr(mod, key, wrapper)
                self._patches.append((mod, key, original))
                self.bindings[f"{module.__name__.rpartition('.')[2]}.{attr}"] += 1

    # ------------------------------------------------------------------
    def install(self):
        for owner, attr, name, pairs in SPANNED_METHODS:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._spanned(original, name, pairs))
            self._patches.append((owner, attr, original))
        for module, attr, name, pairs in SPANNED_FUNCTIONS:
            self._patch_everywhere(module, attr, self._spanned(getattr(module, attr), name, pairs))
        for module, attr, key in COUNTED_FUNCTIONS:
            self._patch_everywhere(module, attr, self._counted(getattr(module, attr), key))

    def uninstall(self) -> list[str]:
        """Restore every original; return the bindings that did not come back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        broken = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patches
                  if vars(o).get(a) is not orig]
        self._patches.clear()
        return broken

    # ------------------------------------------------------------------
    def summary(self) -> tuple[dict, dict]:
        """Exact counts and self time (ns) per span name."""
        n = len(self.span_name)
        child = [0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        counts = Counter(self.counts)
        self_ns: Counter = Counter()
        matmul = self.names.index("supermatrix.matmul")
        expm = self.names.index("supermatrix.expm")
        for i in range(n):
            name = self.names[self.span_name[i]]
            counts[f"{name}.calls"] += 1
            self_ns[name] += dur[i] - child[i]
            p = self.span_parent[i]
            if self.span_name[i] == matmul and p >= 0 and self.span_name[p] == expm:
                counts["supermatrix.expm.matmuls"] += 1
        counts["trace.spans"] = n
        return dict(counts), dict(self_ns)
