"""In-memory span tracer installed around belab's public functions.

Each wrapped call records a span (name, layer, start, end, parent, thread).
Wrappers replace a function object wherever a belab module holds it, so the
copies that ``belab.cli`` imported by name are traced too. ``uninstall``
puts every original back, so traced and untraced iterations can alternate in
one process.
"""
from __future__ import annotations

import sys
import threading
import time
import tracemalloc

# (module, attribute) -> layer; every module holding the same function
# object by another name is patched as well
FUNCTION_LAYERS = {
    ("belab.cli", "parse_config"): "cli.parse",
    ("belab.cli", "cmd_verify"): "cli.command",
    ("belab.cli", "cmd_sweep"): "cli.command",
    ("belab.cli", "cmd_bound"): "cli.command",
    ("belab.cli", "emit_results"): "cli.emit",
    ("belab.models", "build_model"): "models.build",
    ("belab.mc_engine", "components_via_engine"): "mc_engine.components",
    ("belab.mc_engine", "collect_t_w"): "mc_engine.collect",
    ("belab.mc_engine", "empirical_ks_vs_normal"): "mc_engine.distance",
    ("belab.mc_engine", "empirical_ks_two_sample"): "mc_engine.distance",
    ("belab.mc_engine", "pointwise_diff_vs_normal"): "mc_engine.distance",
    ("belab.mc_engine", "pointwise_diff_two_sample"): "mc_engine.distance",
    ("belab.marginals", "quad_segments"): "marginals.quad",
    ("belab.bound_core", "compute_beta"): "bound_core.solver",
    ("belab.bound_core", "solve_delta_minimal"): "bound_core.solver",
    ("belab.bound_core", "delta_from_truncation"): "bound_core.solver",
    ("belab.bound_core", "delta_from_p_moment"): "bound_core.solver",
    ("belab.app_bounds", "ustat_uniform_31"): "app_bounds.assembly",
    ("belab.app_bounds", "ustat_normal_32"): "app_bounds.assembly",
    ("belab.app_bounds", "ustat_nonuniform_33"): "app_bounds.assembly",
    ("belab.app_bounds", "ustat_nonuniform_34"): "app_bounds.assembly",
    ("belab.app_bounds", "ustat_nonuniform_36"): "app_bounds.assembly",
    ("belab.app_bounds", "multisample_37"): "app_bounds.assembly",
    ("belab.app_bounds", "multisample_38"): "app_bounds.assembly",
    ("belab.app_bounds", "lstat_310"): "app_bounds.assembly",
    ("belab.app_bounds", "lstat_311"): "app_bounds.assembly",
}
SAMPLE_CHUNK_LAYER = "models.sample_chunk"
DISTANCE_LAYER = "mc_engine.distance"
MODE_LABELS = {None: "tw", "zero_out": "zero_out", "resample": "resample"}


class Tracer:
    """Records spans while installed; one instance per traced process."""

    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent, thread]
        self.sampled_rows = 0
        self.distance_keys = set()
        self.chunk_peak_bytes = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []  # (owner, attribute, original)

    # --- spans -----------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, layer, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        rec = [name, layer, time.perf_counter(), None, parent,
               threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(rec)
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            stack.pop()

    def reset(self):
        self.spans = []
        self.sampled_rows = 0
        self.distance_keys = set()
        self.chunk_peak_bytes = 0

    # --- installation --------------------------------------------------------

    def _wrap_function(self, orig, name, layer):
        tracer = self

        def traced(*args, **kwargs):
            if layer == DISTANCE_LAYER:
                tracer._note_distance(name, args, kwargs)
            return tracer.span(name, layer, orig, args, kwargs)

        traced.__wrapped__ = orig
        return traced

    def _wrap_sample_chunk(self, orig, owner_name, memory):
        tracer = self

        def sample_chunk(model, rng, count, mode=None):
            label = MODE_LABELS.get(mode, str(mode))
            tracer.sampled_rows += int(count)
            if memory:
                return tracer._chunk_with_memory(orig, model, rng, count, mode)
            return tracer.span(f"{owner_name}.sample_chunk[{label}]",
                               f"{SAMPLE_CHUNK_LAYER}.{label}", orig,
                               (model, rng, count), {"mode": mode})

        sample_chunk.__wrapped__ = orig
        return sample_chunk

    def _chunk_with_memory(self, orig, model, rng, count, mode):
        tracemalloc.start()
        try:
            out = orig(model, rng, count, mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.chunk_peak_bytes = max(self.chunk_peak_bytes, peak)
        return out

    def _note_distance(self, name, args, kwargs):
        key = [name]
        for value in list(args) + sorted(kwargs.items()):
            iface = getattr(value, "__array_interface__", None)
            key.append((iface["data"][0], iface["shape"]) if iface else value)
        self.distance_keys.add(tuple(key))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, memory_only=False):
        """Wrap every traced name; with memory_only, only sample_chunk, and
        only to measure its peak allocation."""
        import belab.models

        if not memory_only:
            modules = [m for k, m in sorted(sys.modules.items())
                       if (k == "belab" or k.startswith("belab.")) and m]
            for (mod_name, attr), layer in FUNCTION_LAYERS.items():
                orig = getattr(sys.modules[mod_name], attr)
                wrapped = self._wrap_function(orig, f"{mod_name}.{attr}", layer)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, wrapped)
        for cls in {belab.models.StatisticModel, *(
                v for v in vars(belab.models).values()
                if isinstance(v, type)
                and issubclass(v, belab.models.StatisticModel))}:
            if "sample_chunk" in cls.__dict__:
                self._patch(cls, "sample_chunk", self._wrap_sample_chunk(
                    cls.__dict__["sample_chunk"], cls.__name__, memory_only))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


def layer_table(spans):
    """{layer: [self_s, inclusive_s, calls]} from a list of spans.

    Self time is a span's duration minus its direct children's durations.
    Inclusive time counts only spans with no ancestor in the same layer, so
    nested calls within one layer are not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, layer, start, end, parent, _thread in spans:
        if parent is not None:
            child_time[parent] += end - start
    table = {}
    for i, (name, layer, start, end, parent, _thread) in enumerate(spans):
        row = table.setdefault(layer, [0.0, 0.0, 0])
        row[0] += (end - start) - child_time[i]
        row[2] += 1
        anc = parent
        while anc is not None and spans[anc][1] != layer:
            anc = spans[anc][4]
        if anc is None:
            row[1] += end - start
    return table
