"""Spans around earshot's public functions, installed from outside the package.

A span records a name, start, end, parent span and request id (the scene
round, window or chain pass it belongs to).  Spans stay in memory and are
written out once, when the run ends.  A layer's self time is its span's
duration minus the time its child spans cover.

The wrappers replace every binding a caller looks up: the defining module's
attribute, every ``from .x import f`` copy in other earshot modules and the
package namespace.  Because ``synth`` and ``beamform`` call the kernels as
``_backend.kernels.<name>`` at call time, patching the kernel module's
attributes covers them too.  ``src/earshot`` itself is never edited.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _count_render(counts, args, result):
    counts["synth.render.channel_samples"] += result.clip.samples.size


def _count_lerp_mix(counts, args, result):
    out, _sig, _delay, amp, _lead = args
    counts["kernels.lerp_mix.samples"] += out.shape[0]
    counts["kernels.lerp_mix.useful"] += int(np.count_nonzero(amp))


def _count_bytes(name, path_arg):
    def count(counts, args, result):
        counts[name] += os.path.getsize(args[path_arg])

    return count


def _count_stft(counts, args, result):
    counts["stft.stft.frames"] += result.n_frames


def _count_srp(counts, args, result):
    m = args[0].channels
    counts["beamform.srp_phat.pairs"] += m * (m - 1) // 2


def _count_steered(counts, args, result):
    g_re, _g_im, tau, _omega = args
    counts["kernels.steered_power.ops"] += g_re.shape[0] * g_re.shape[1] * tau.shape[0]


def _count_train(counts, args, result):
    counts["classifier.train.samples"] += len(args[0])


# (layer name, module, attribute, work counter).  "kernels" is whichever
# module earshot._backend selected.
LAYERS = [
    ("synth.make_benchmark", "earshot.synth", "make_benchmark", None),
    ("synth.render", "earshot.synth", "render", _count_render),
    ("kernels.lerp_mix", "kernels", "lerp_mix", _count_lerp_mix),
    ("audio.write_wav", "earshot.audio", "write_wav", _count_bytes("audio.write_wav.bytes", 1)),
    ("audio.load_wav", "earshot.audio", "load_wav", _count_bytes("audio.load_wav.bytes", 0)),
    ("stft.stft", "earshot.stft", "stft", _count_stft),
    ("stft.band_select", "earshot.stft", "band_select", None),
    ("beamform.srp_phat", "earshot.beamform", "srp_phat", _count_srp),
    ("beamform.gcc_phat_cross", "earshot.beamform", "gcc_phat_cross", None),
    ("kernels.steered_power", "kernels", "steered_power", _count_steered),
    ("features.extract_feature", "earshot.features", "extract_feature", None),
    ("features.save_features", "earshot.features", "save_features", None),
    ("features.load_features", "earshot.features", "load_features", None),
    ("dataset.load_manifest", "earshot.dataset", "load_manifest", None),
    ("dataset.extract_samples", "earshot.dataset", "extract_samples", None),
    ("dataset.stratified_folds", "earshot.dataset", "stratified_folds", None),
    ("classifier.train", "earshot.classifier", "train", _count_train),
    ("classifier.predict", "earshot.classifier", "predict", None),
    ("classifier.save_model", "earshot.classifier", "save_model", None),
    ("classifier.load_model", "earshot.classifier", "load_model", None),
    ("evaluate.cross_validate", "earshot.evaluate", "cross_validate", None),
    ("evaluate.doa_baseline_eval", "earshot.evaluate", "doa_baseline_eval", None),
    ("cli.main", "earshot.cli", "main", None),
]

COUNTS = [
    "synth.render.channel_samples",
    "kernels.lerp_mix.samples",
    "audio.write_wav.bytes",
    "audio.load_wav.bytes",
    "stft.stft.frames",
    "beamform.srp_phat.pairs",
    "kernels.steered_power.ops",
    "classifier.train.samples",
]


class Tracer:
    """Collects spans while installed; a no-op for code run outside ``request``."""

    def __init__(self):
        import earshot  # noqa: F401  (imports every earshot module)
        from earshot import _backend

        self.spans = []  # [name, start, end, parent index, request id]
        self.counts = defaultdict(int)
        self._stack = []
        self._request = None
        self._patches = []  # (module, attribute, original, wrapper)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "earshot" or n.startswith("earshot.")]
        for layer, module_name, attr, counter in LAYERS:
            home = _backend.kernels if module_name == "kernels" else sys.modules[module_name]
            original = getattr(home, attr)
            wrapper = self._wrap(layer, original, counter)
            for module in modules:
                for name, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, name, original, wrapper))

    def _wrap(self, layer, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans.append([layer, time.perf_counter(), None, stack[-1], self._request])
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[stack.pop()][2] = time.perf_counter()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def request(self, request_id):
        """Trace one operation: a root ``harness`` span with the wrappers installed."""
        for module, name, _original, wrapper in self._patches:
            setattr(module, name, wrapper)
        self._request = request_id
        self.spans.append(["harness", time.perf_counter(), None, None, request_id])
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self._stack.pop()][2] = time.perf_counter()
            self._request = None
            for module, name, original, _wrapper in self._patches:
                setattr(module, name, original)

    def self_times(self):
        """Per span name: calls, total seconds and self seconds."""
        covered = defaultdict(float)
        for _name, start, end, parent, _rid in self.spans:
            if parent is not None:
                covered[parent] += end - start
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _parent, _rid) in enumerate(self.spans):
            entry = stats[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered[i]
        return stats

    def metrics(self):
        """Per-layer metrics: calls, total_s and self_s per layer, plus work counts."""
        stats = self.self_times()
        out = {}
        for layer, *_ in LAYERS:
            calls, total, own = stats.get(layer, (0, 0.0, 0.0))
            out[f"{layer}.calls"] = (calls, "count")
            out[f"{layer}.total_s"] = (total, "s")
            out[f"{layer}.self_s"] = (own, "s")
        for name in COUNTS:
            out[name] = (self.counts[name], "B" if name.endswith(".bytes") else "count")
        mixed = self.counts["kernels.lerp_mix.samples"]
        out["kernels.lerp_mix.useful_frac"] = (
            self.counts["kernels.lerp_mix.useful"] / mixed if mixed else 0.0, "frac")
        windows = stats.get("features.extract_feature", (0,))[0]
        out["stft.frames_per_window"] = (
            self.counts["stft.stft.frames"] / windows if windows else 0.0, "count")
        harness = stats.get("harness", (0, 0.0, 0.0))
        out["harness.wall_s"] = (harness[1], "s")
        out["harness.self_s"] = (harness[2], "s")
        return out

    def write(self, path):
        """Dump every span as one JSON line, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, rid) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent,
                                     "request": rid}) + "\n")
