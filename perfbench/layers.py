"""Per-layer spans around the package's public functions.

Each layer is a module of the package.  :class:`Tracer` replaces every
listed public function with a wrapper in every module namespace that
binds it (``pairing`` or ``find_slater``, for instance, are imported by
name into several modules), so calls made inside the package are seen as
well as the benchmark's own.  A wrapper opens a span on entry and closes
it on return; a layer's self time is its spans' durations minus the time
covered by their child spans.  Counts are taken at the same boundaries.
Spans are folded into totals as they close, so memory stays flat.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

LAYERS = ("lp", "model", "slater", "preprocess", "certificates", "cones", "kkt",
          "fileio", "cli")

#: Public functions wrapped per layer (module name -> function names).
PUBLIC = {
    "lp": ("solve", "feasibility"),
    "model": ("pairing", "lp_norm", "check_feasible", "regions"),
    "slater": ("find_slater", "find_linearized_slater", "density_construction",
               "combine_slater", "interior_margin"),
    "preprocess": ("detect_implicit_equalities", "reduce_equalities",
                   "build_mfcq_system"),
    "certificates": ("build_no_slater_certificate", "build_bad_functional",
                     "refinement_study", "log_counterexample_model",
                     "constant_control_model"),
    "cones": ("tangent_K_contains", "radial_K_witness", "normal_K_contains",
              "tangent_P_contains", "decompose_into_normal_sum",
              "sum_NK_NP_contains", "closure_sequence"),
    "kkt": ("recover_multipliers_linear", "recover_multipliers_nonlinear",
            "verify_stationarity", "split_zeta", "validate_gradients"),
    "fileio": ("load_problem", "load_point", "problem_to_dict", "canonical_json"),
    "cli": ("main",),
}


class Tracer:
    """Installs span wrappers into a package and folds spans into totals."""

    def __init__(self, package: str = "slaterkit"):
        self.package = package
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        #: calls into a layer from outside it (the benchmark or another layer)
        self.entries = Counter()
        self.counts = Counter()
        self._stack = []
        self._patched = []

    def _observe(self, layer, name, args, result):
        if layer == "lp" and name == "solve":
            prog = args[0]
            self.counts["lp.pivots"] += result.iterations
            self.counts["lp.rows"] += prog.n_rows
            self.counts["lp.vars"] += prog.n_vars
            self.counts["lp.numerical_failures"] += result.status.value == "numerical_failure"
        elif layer == "model" and name == "pairing":
            self.counts["model.pairing_calls"] += 1
        elif layer == "fileio" and name == "canonical_json":
            self.counts["fileio.bytes_out"] += len(result.encode("utf-8"))

    def _wrap(self, layer, name, fn):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not stack or stack[-1][0] != layer:
                self.entries[layer] += 1
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                self.self_s[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            self._observe(layer, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == self.package or key.startswith(self.package + ".")]
        targets = {}
        for layer, names in PUBLIC.items():
            home = sys.modules[f"{self.package}.{layer}"]
            for name in names:
                fn = getattr(home, name)
                targets[id(fn)] = self._wrap(layer, name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None and callable(value):
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def per_question(self, questions: int) -> dict:
        """Per-layer metrics per question, as ``{name: (value, unit)}``."""
        q = max(questions, 1)
        out = {
            "lp.calls": (self.entries["lp"] / q, "count"),
            "lp.pivots": (self.counts["lp.pivots"] / q, "count"),
            "lp.rows": (self.counts["lp.rows"] / q, "count"),
            "lp.vars": (self.counts["lp.vars"] / q, "count"),
            "lp.numerical_failures": (self.counts["lp.numerical_failures"] / q, "count"),
            "lp.ms_per_pivot": (1e3 * self.self_s["lp"] / max(self.counts["lp.pivots"], 1), "ms"),
            "model.pairing_calls": (self.counts["model.pairing_calls"] / q, "count"),
            "preprocess.calls": (self.entries["preprocess"] / q, "count"),
            "fileio.bytes_out": (self.counts["fileio.bytes_out"] / q, "bytes"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = (1e3 * self.self_s[layer] / q, "ms")
        return out
