"""In-process tracing of handcam's public functions, from outside the package.

`Tracer.install()` replaces each function named in `SPANNED` and `COUNTED`
at every module attribute that holds it (so `cosine_similarity` is also
wrapped where `inference` and `discovery` imported it by name). A class is
traced through its `__init__`. `uninstall()` puts the originals back.

A spanned call records a parent-linked span in memory; its self time is its
duration minus the time of the spans and counted calls inside it. A counted
call (per-call helpers such as `cosine_similarity`) only adds to a call
count and a time total, so that the many small calls do not each allocate
a span. Some calls also add computed sizes (`SIZES`).
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

SPANNED = {
    "classify": ("cross_validate", "train", "train_binary", "score_stream"),
    "inference": ("InferenceProblem", "segment_features", "decode"),
    "change": ("detect_candidates", "suppress_non_maxima", "train_change_model"),
    "features": ("read_features", "write_features", "histogram_stream"),
    "evaluation": ("build_report", "write_report"),
    "media": ("load_video_dir", "save_video_dir"),
    "alignment": ("compute_pixel_stats", "ncc_match", "align_video"),
    "discovery": (
        "active_segments", "segment_similarity_matrix", "average_linkage", "modified_purity",
    ),
    "synth": ("gen_feature_stream",),
    "cli": ("write_manifest",),
}
COUNTED = {"core": ("cosine_similarity",), "media": ("resize_to",)}
LAYERS = tuple(dict.fromkeys([*SPANNED, *COUNTED]))


def _solver_flops(n: int, model) -> int:
    """Multiply-adds of `_solve_subgradient`, counted as 2 flops each: a
    scoring product per objective evaluation (epochs + 1) and a gradient
    product per step (epochs), each n x D x K."""
    k, d = model.weights.shape
    return 2 * n * d * k * (2 * model.config.epochs + 1)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# name -> f(args, kwargs, result) -> {counter suffix: increment}
SIZES = {
    "classify.cross_validate": lambda a, k, r: {"cells": len(r.table)},
    "classify.train": lambda a, k, r: {
        "flops": _solver_flops(sum(s.n_frames for s in _arg(a, k, 0, "streams")), r)
    },
    "classify.train_binary": lambda a, k, r: {"flops": _solver_flops(len(_arg(a, k, 0, "x")), r)},
    "inference.decode": lambda a, k, r: {"segments": len(_arg(a, k, 0, "problem").candidates) + 1},
    "change.detect_candidates": lambda a, k, r: {
        "frames": _arg(a, k, 0, "stream").n_frames, "candidates": len(r)
    },
    "features.read_features": lambda a, k, r: {"bytes": Path(_arg(a, k, 0, "path")).stat().st_size},
    "features.histogram_stream": lambda a, k, r: {"frames": len(_arg(a, k, 0, "frames"))},
    "media.load_video_dir": lambda a, k, r: {"frames": len(r)},
    "alignment.compute_pixel_stats": lambda a, k, r: {
        # the float64 stack the function builds over all frames
        "bytes": 8 * sum(f.pixels.size for f in _arg(a, k, 0, "frames"))
    },
    "discovery.active_segments": lambda a, k, r: {"segments": len(r)},
    "cli.write_manifest": lambda a, k, r: {
        "bytes": (Path(_arg(a, k, 0, "out_dir")) / "manifest.json").stat().st_size
    },
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.unresolved: list[str] = []
        self._stack: list[list] = []  # [span id, start, time covered by children]
        self._patched: list[tuple[object, str, object]] = []
        self._command = -1

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, **attrs) -> list:
        frame = [len(self.spans), time.perf_counter(), 0.0]
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(
            {"id": frame[0], "parent": parent, "command": self._command, "name": name, **attrs}
        )
        self._stack.append(frame)
        return frame

    def _close(self, name: str) -> None:
        span_id, start, covered = self._stack.pop()
        end = time.perf_counter()
        self.spans[span_id].update(start=start, end=end)
        self.totals[f"{name}.s"] += (end - start) - covered
        self.totals[f"{name}.calls"] += 1
        if self._stack:
            self._stack[-1][2] += end - start

    def _spanned(self, name: str, fn):
        sizes = SIZES.get(name)

        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name)
            if sizes is not None:
                for key, value in sizes(args, kwargs, result).items():
                    self.totals[f"{name}.{key}"] += value
            return result

        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.totals[f"{name}.s"] += elapsed
                self.totals[f"{name}.calls"] += 1
                if self._stack:
                    self._stack[-1][2] += elapsed

        return wrapper

    def command(self, main, argv: list[str]) -> int:
        """Run one CLI command as a root span named `cli.main`."""
        self._command += 1
        self._open("cli.main", argv=argv[0])
        try:
            return main(argv)
        finally:
            self._close("cli.main")

    # -- patching ----------------------------------------------------------

    def _resolve(self, layer: str, attr: str):
        try:
            return getattr(importlib.import_module(f"handcam.{layer}"), attr)
        except (ImportError, AttributeError):
            pass
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name.startswith("handcam") and getattr(mod, attr, None) is not None:
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) == mod_name:
                    return obj
        return None

    def _patch_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "handcam" or mod_name.startswith("handcam.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for layer, attrs in table.items():
                for attr in attrs:
                    name = f"{layer}.{attr}"
                    original = self._resolve(layer, attr)
                    if original is None:
                        self.unresolved.append(name)
                    elif inspect.isclass(original):
                        init = original.__init__
                        self._patched.append((original, "__init__", init))
                        original.__init__ = make(name, init)
                    else:
                        self._patch_everywhere(original, make(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def layer_self_times(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for key, value in self.totals.items():
            if key.endswith(".s"):
                layer = key.split(".", 1)[0]
                if layer in out:
                    out[layer] += value
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
