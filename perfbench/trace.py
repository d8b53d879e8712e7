"""Per-layer tracing of urlab from outside the package.

The tracer replaces each public function of a layer with a timing wrapper at
every module attribute that binds it (``moment_set`` is bound in ``moments``,
``catalog`` and ``analysis``; ``from x import f`` copies the binding, so
patching the defining module alone would miss the other call sites). The
package source is never edited; ``uninstall`` puts every original back.

Spans are aggregated in memory rather than logged one by one: a scan run
enters millions of them. A layer's self time is its span's duration minus
the time its child spans cover, so the self times of all layers plus the
harness root span add up to the root's wall time. A call into a layer from
inside the same layer (``scan_report`` calling ``rand_observable``) opens no
new span; its time stays with the outer span and it is counted only in the
per-function call counts.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

ROOT_LAYER = "bench.harness"

# layer -> (module, public functions whose time belongs to that layer)
LAYER_FUNCTIONS = {
    "ensembles.generate": (
        "ensembles",
        ("scan_report", "rand_observable", "rand_pure", "rand_density", "rand_state",
         "random_instances", "coherent_pair_grid"),
    ),
    "moments.moment_set": ("moments", ("moment_set", "second_moment_matrix")),
    "moments.gram": ("moments", ("robertson_matrix", "gram_centered", "gram_raw")),
    "linalg.char_coeffs": ("linalg", ("char_coeffs",)),
    "linalg.char_gap": ("linalg", ("entangled_char_pair", "superadditive_char_pair")),
    "catalog.evaluate": (
        "catalog",
        ("evaluate_ur", "char_gap_from_states", "char_gap_check", "heisenberg", "schrodinger",
         "robertson", "characteristic", "type_2_1", "type_3_1", "coherent_fixed", "type_1_2",
         "type_2_2", "extended_schrodinger", "entangled_heisenberg", "type_2_m"),
    ),
    "model.squeezed_state": ("model", ("squeezed_state",)),
    "model.coherent_state": ("model", ("coherent_state",)),
    "model.build": (
        "model",
        ("fock_operators", "fock_state", "quad_plus", "quad_mix", "spin_operators",
         "raw_vector_state", "raw_density_state", "sample"),
    ),
    "analysis.minimize": ("analysis", ("minimize_slack",)),
    "analysis.nelder_mead": ("analysis", ("nelder_mead",)),
    "cli.main": ("cli", ("main",)),
    "cli.build": ("cli", ("build_state", "build_observable")),
}

# Validation runs in the dataclasses' __post_init__, which the generated
# __init__ looks up on the class, so patching the class attribute reaches it.
VALIDATE_LAYER = "model.validate"
VALIDATE_CLASSES = ("Observable", "PureState", "DensityMatrix")

OBJECTIVE_LAYER = "analysis.objective"

LAYERS = (ROOT_LAYER, *LAYER_FUNCTIONS, VALIDATE_LAYER, OBJECTIVE_LAYER)

def urlab_modules() -> list:
    """The urlab package and its submodules, as currently imported."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "urlab" or name.startswith("urlab."))]


class Tracer:
    """Wraps urlab's layers and accumulates self time and call counts."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.fn_calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.truncation_rejects = 0
        self.wall_s = 0.0
        self._active = True
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    # -- spans ---------------------------------------------------------------

    def _enter(self, layer: str):
        frame = [layer, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame) -> float:
        dur = time.perf_counter() - frame[1]
        self._stack.pop()
        self.self_s[frame[0]] += dur - frame[2]
        self.calls[frame[0]] += 1
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    @contextmanager
    def root(self):
        """Root span around the harness loop; its wall time is the reference
        the layer self times must add up to."""
        frame = self._enter(ROOT_LAYER)
        try:
            yield
        finally:
            self.wall_s += self._exit(frame)

    @contextmanager
    def suspended(self):
        """Run harness work (input generation, verification) that calls into
        urlab without opening spans; its time stays with the enclosing span."""
        self._active = False
        try:
            yield
        finally:
            self._active = True

    def spanned(self, layer: str, qualname: str, fn):
        """Wrap ``fn``: count the call under ``qualname`` and, unless the
        caller is already inside ``layer``, time it as a span of ``layer``."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            self.fn_calls[qualname] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = self._enter(layer)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.errors[layer, type(exc).__name__] += 1
                raise
            finally:
                self._exit(frame)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind_everywhere(self, original, replacement) -> int:
        bound = 0
        for mod in urlab_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    bound += 1
        return bound

    def install(self) -> None:
        import urlab  # noqa: F401  (loads every submodule)
        from urlab import model

        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in urlab_modules()}
        for layer, (modname, names) in LAYER_FUNCTIONS.items():
            for name in names:
                original = getattr(mods[modname], name)
                qualname = f"{modname}.{name}"
                self.originals[qualname] = original
                if name == "nelder_mead":
                    replacement = self._nelder_mead_wrapper(layer, qualname, original)
                else:
                    replacement = self.spanned(layer, qualname, original)
                if not self._rebind_everywhere(original, replacement):
                    raise RuntimeError(f"no binding of {qualname} found")
        for cls_name in VALIDATE_CLASSES:
            cls = getattr(model, cls_name)
            original = cls.__post_init__
            self.originals[f"model.{cls_name}.__post_init__"] = original
            self._patches.append((cls, "__post_init__", original))
            cls.__post_init__ = self.spanned(
                VALIDATE_LAYER, f"model.{cls_name}.__post_init__", original)

    def _nelder_mead_wrapper(self, layer: str, qualname: str, original):
        """nelder_mead receives minimize_slack's objective closure as ``f``;
        wrapping ``f`` here is the only way to see objective calls from
        outside, and a rejected state shows as a TruncationError escaping
        squeezed_state while the objective runs."""
        spanned_nm = self.spanned(layer, qualname, original)
        trunc_key = ("model.squeezed_state", "TruncationError")

        def nelder_mead(f, x0, *args, **kwargs):
            spanned_f = self.spanned(OBJECTIVE_LAYER, "analysis.objective", f)

            def objective(x):
                before = self.errors[trunc_key]
                value = spanned_f(x)
                if self.errors[trunc_key] != before:
                    self.truncation_rejects += 1
                return value

            return spanned_nm(objective, x0, *args, **kwargs)

        return nelder_mead

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer self time, span count and share of the traced wall time."""
        out = {}
        wall = self.wall_s
        for layer in LAYERS:
            self_s = self.self_s.get(layer, 0.0)
            out[f"{layer}.self_s"] = (self_s, "s")
            out[f"{layer}.calls"] = (self.calls.get(layer, 0), "count")
            out[f"{layer}.share"] = (100.0 * self_s / wall if wall > 0 else 0.0, "%")
        n_obj = self.calls.get(OBJECTIVE_LAYER, 0)
        out["analysis.truncation_reject_ratio"] = (
            self.truncation_rejects / n_obj if n_obj else 0.0, "ratio")
        return out
