"""In-process tracing of ``interfere`` layers, from outside the package.

The tracer replaces the public layer functions wherever an ``interfere.*``
module binds them (so ``from .design import build_knn_neighborhoods`` in
``monotone`` is wrapped too) with wrappers that record spans: name, start,
end, parent span and call id. Spans stay in memory until :meth:`Tracer.dump`.

A layer's self time is the duration of its spans minus the part covered by
their child spans. The root span of each call is ``cli`` (``interfere.cli.main``),
so for a call the self times of all layers sum to its ``main()`` wall time.
The package runs single-threaded by default, which keeps spans nested.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import warnings

import numpy as np

# Layer -> functions, as "module:name" of the module that defines them.
LAYERS = {
    "design.knn": ("interfere.design:build_knn_neighborhoods",),
    "design.exposure": ("interfere.design:evaluate_exposure", "interfere.design:evaluate_exposure_many"),
    "exposure.exact": ("interfere.exposure:exact_profile",),
    "exposure.mc": ("interfere.exposure:monte_carlo_profile",),
    "exposure.center": ("interfere.exposure:center_excess",),
    "monotone.variance": ("interfere.monotone:conservative_variance", "interfere.monotone:variance_estimate"),
    "monotone.bound": (
        "interfere.monotone:upper_confidence_bound",
        "interfere.monotone:point_estimate",
        "interfere.monotone:validity_condition",
    ),
    "monotone.scan": ("interfere.monotone:bonferroni_scan",),
    "contrast.eigen": ("interfere.contrast:largest_centered_eigenvalue",),
    "contrast.split": (
        "interfere.contrast:attributable_contrast",
        "interfere.contrast:attributable_contrast_from_counts",
        "interfere.contrast:exposure_attributable_contrast",
    ),
    "simulate.generate": ("interfere.simulate:generate_scenario",),
    "simulate.loop": ("interfere.simulate:run_coverage_experiment",),
    "io.load": (
        "interfere.io:load_units",
        "interfere.io:load_run_config",
        "interfere.io:load_sim_config",
        "interfere.io:load_neighborhoods",
        "interfere.io:load_count_table",
    ),
    "io.dump": (
        "interfere.io:dump_json",
        "interfere.io:monotone_report_dict",
        "interfere.io:contrast_report_dict",
        "interfere.io:coverage_table_dict",
    ),
}
ROOT = "cli"
# Layers whose return value is an exposure profile over their first argument's neighborhoods.
PROFILE_LAYERS = ("exposure.exact", "exposure.mc")
MIB = float(1 << 20)


def profile_bytes(profile) -> int:
    """Bytes held by the ndarray fields of an exposure profile."""
    return sum(v.nbytes for v in vars(profile).values() if isinstance(v, np.ndarray))


def overlapping_pairs(members: np.ndarray) -> int:
    """Number of unit pairs i < j whose neighbourhoods share a member."""
    n, k = members.shape
    unit = members.ravel()
    owner = np.repeat(np.arange(n, dtype=np.int64), k)
    by_unit = np.lexsort((owner, unit))
    unit, owner = unit[by_unit], owner[by_unit]
    keys = []
    for shift in range(1, unit.size):
        same = unit[shift:] == unit[:-shift]
        if not same.any():
            break
        a, b = owner[:-shift][same], owner[shift:][same]
        keys.append(np.minimum(a, b) * n + np.maximum(a, b))
    return int(np.unique(np.concatenate(keys)).size) if keys else 0


class Tracer:
    """Records spans around the wrapped layer functions of a loaded ``interfere``."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, call id]
        self.profile_bytes = []  # per profile built: (call id, bytes)
        self.members = []        # per profile built: (call id, neighbourhood members)
        self.missing = []
        self.roots = {}          # call id -> index of its root span
        self._patched = []       # (module, attribute, original) to restore
        self._stack = []
        self._call = None

    def install(self) -> None:
        """Wrap every layer function in every loaded ``interfere`` module that binds it."""
        originals = {}
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, name = target.split(":")
                func = getattr(sys.modules.get(module_name), name, None)
                if func is None:
                    self.missing.append(target)
                    warnings.warn(f"{target} not found; its spans are absent", stacklevel=2)
                    continue
                originals[id(func)] = (func, self._wrap(layer, func))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "interfere" or module_name.startswith("interfere.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, originals[id(value)][1])

    def uninstall(self) -> None:
        """Put back every function :meth:`install` replaced."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def present_layers(self) -> list:
        missing = set(self.missing)
        return [layer for layer, targets in LAYERS.items() if not set(targets) <= missing]

    def _wrap(self, layer, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self._open(layer)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(index)
            if layer in PROFILE_LAYERS:
                nbhd = args[0] if args else kwargs["nbhd"]
                self.profile_bytes.append((self._call, profile_bytes(result)))
                self.members.append((self._call, nbhd.members))
            return result

        return wrapper

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._call])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def call(self, call_id, main, argv):
        """Run ``main(argv)`` as the root span of call ``call_id``."""
        self._call = call_id
        self.roots[call_id] = self._open(ROOT)
        try:
            return main(list(argv))
        finally:
            self._close(self.roots[call_id])
            self._call = None

    def root_wall(self, call_id) -> float:
        """Wall seconds of the call's root span, ``main()`` as traced."""
        _, start, end, _, _ = self.spans[self.roots[call_id]]
        return end - start

    def self_times(self) -> list:
        """Self seconds of every span, in span order."""
        self_s = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
        return self_s

    def layer_totals(self, call_ids) -> dict:
        """Summed self seconds and entry counts per layer over the given calls.

        A call counts once per entry into a layer from another layer, so a
        wrapped function calling another of the same layer is one call.
        """
        call_ids = set(call_ids)
        totals = {layer: [0.0, 0] for layer in [ROOT] + self.present_layers()}
        for span, self_s in zip(self.spans, self.self_times()):
            name, _, _, parent, call = span
            if call not in call_ids:
                continue
            totals[name][0] += self_s
            if parent < 0 or self.spans[parent][0] != name:
                totals[name][1] += 1
        return totals

    def dump(self, path) -> None:
        spans = [[name, round(start, 9), round(end, 9), parent, call] for name, start, end, parent, call in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "call"], "spans": spans}))


def layer_metrics(tracer: Tracer, call_ids) -> dict:
    """Per-layer metric values (without trace.overhead_s) for the given calls."""
    totals = tracer.layer_totals(call_ids)
    call_ids = set(call_ids)
    metrics = {"cli.self_s": totals[ROOT][0]}
    for layer in tracer.present_layers():
        seconds, calls = totals[layer]
        metrics[f"{layer}.self_s"] = seconds
        metrics[f"{layer}.calls"] = calls
    if set(PROFILE_LAYERS) & set(tracer.present_layers()):
        sizes = [b for call, b in tracer.profile_bytes if call in call_ids]
        metrics["exposure.profile_mb"] = max(sizes, default=0) / MIB
        metrics["exposure.pairs"] = sum(overlapping_pairs(m) for call, m in tracer.members if call in call_ids)
    return metrics
