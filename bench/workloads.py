"""The three workloads: ``render``, ``stream`` and ``study``.

Each one sets up its inputs from the run's seed (three times, so ``setup_s``
is a median), warms up, then runs a closed loop of operations until the run's
seconds are spent, checking every operation's outputs outside the clock.
Operation times are counted in units of a reference kernel run alongside.  In a
traced run the odd-numbered operations (and the second set-up) run under the
tracer and the even ones run bare, so the tracing overhead and the byte
identity of traced and untraced artifacts come from the same process.
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import wave

import numpy as np

from earshot import audio, classifier, cli, dataset, evaluate, features

SETUP_REPS = 3
STRIDE = 0.1  # s, the sliding-window step of `earshot predict`
MIN_WINDOWS = 1000  # so that ten windows lie beyond window_ms_p99
REFERENCE_SHARE = 0.1  # reference-kernel time, as a share of op time
REFERENCE_LOCAL = 128  # reference runs whose median is an op's local unit


@dataclasses.dataclass
class Op:
    """One recorded operation.  ``info`` holds ``audio_s``, the audio seconds
    it handled, and ``busy_s`` when throughput counts only part of its time."""

    seconds: float
    traced: bool
    ref: float  # the reference kernel's time measured right after it
    info: dict


class Reference:
    """A fixed NumPy kernel timed between operations: the unit of time.

    Neighbouring load on a shared machine moves its speed by 20 % and more
    over minutes.  An operation's time divided by this kernel's time,
    measured right after it, moves much less.  The kernel mixes the
    workloads' kinds of work: real FFTs of frames, phase-only cross-spectra
    and a fractional-delay gather.  A change to earshot cannot change it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._frames = rng.standard_normal((8, 8, 2048))
        self._dist = rng.uniform(5.0, 40.0, 50_000)
        self._sig = rng.standard_normal(70_000)
        self._owed = 0.0
        self.seconds = []

    def _kernel(self):
        spec = np.fft.rfft(self._frames, axis=2)
        cross = spec[1:] * np.conj(spec[:-1])
        cross /= np.maximum(np.abs(cross), 1e-12)
        pos = np.arange(self._dist.size) + 10_000.0 - self._dist * 140.0
        lo = np.floor(pos).astype(np.int64)
        mixed = self._sig[lo] + (pos - lo) * (self._sig[lo + 1] - self._sig[lo])
        return float(cross.real.sum()) + float(mixed.sum())

    def follow(self, op_seconds) -> None:
        """Run the kernel until its total time keeps pace with REFERENCE_SHARE of op time."""
        self._owed += REFERENCE_SHARE * op_seconds
        while self._owed > 0:
            start = time.perf_counter()
            self._kernel()
            self.seconds.append(time.perf_counter() - start)
            self._owed -= self.seconds[-1]

    def local(self) -> float:
        """The unit of time at this moment: median of the latest kernel runs."""
        return statistics.median(self.seconds[-REFERENCE_LOCAL:])


@dataclasses.dataclass
class Run:
    """One workload run: seed, clock budget, scratch directory and tallies."""

    seed: int
    seconds: float
    work: str
    src: str
    tracer: object = None
    reference: Reference = dataclasses.field(default_factory=Reference)
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)

    def check(self, ok, what) -> bool:
        if not ok and what not in self.problems:
            self.problems.append(what)
        return bool(ok)

    def call(self, traced, request_id, fn, *args):
        """(fn(*args), seconds); traced calls run inside a tracer request."""
        scope = self.tracer.request(request_id) if traced else contextlib.nullcontext()
        start = time.perf_counter()
        with scope:
            result = fn(*args)
        return result, time.perf_counter() - start

    def traced(self, index) -> bool:
        return self.tracer is not None and index % 2 == 1


# ---------------------------------------------------------------------------
# shared steps


def cli_call(argv) -> int:
    """`earshot <argv>` in-process, its chatter kept off the result stream."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    if code != 0:
        sys.stderr.write(f"earshot {' '.join(argv)} -> exit {code}\n{buf.getvalue()}")
    return code


def cli_ok(argv) -> None:
    if cli_call(argv) != 0:
        raise RuntimeError(f"set-up step failed: earshot {' '.join(argv)}")


def tree_digest(path) -> str:
    """SHA-256 over every file's relative path and bytes under a directory."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def wav_seconds(path) -> float:
    with wave.open(path) as fh:
        return fh.getnframes() / fh.getframerate()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold_import(src) -> None:
    """What every `earshot` invocation pays first: a fresh interpreter importing the CLI."""
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", "import earshot.cli"], env=env, check=True)


def set_up(run: Run, prepare):
    """Cold import plus ``prepare(dest)``, SETUP_REPS times into fresh directories.

    Every repetition must leave identical bytes behind.  Returns the last
    repetition's state, the untraced durations and the traced one (or None).
    """
    untraced, traced_s, digests, state = [], None, [], None

    def once(dest):
        cold_import(run.src)
        os.makedirs(dest)
        return prepare(dest)

    for rep in range(SETUP_REPS):
        dest = os.path.join(run.work, f"setup{rep}")
        traced = run.traced(rep)
        state = None  # the previous repetition's inputs must not raise this one's peak RSS
        state, seconds = run.call(traced, f"setup-{rep}", once, dest)
        if traced:
            traced_s = seconds
        else:
            untraced.append(seconds)
        digests.append(tree_digest(dest))
        if rep < SETUP_REPS - 1:
            shutil.rmtree(dest)  # keep disk use flat; the last repetition's files are the inputs
    run.check(len(set(digests)) == 1, "set-up artifacts differ between repetitions")
    return state, untraced, traced_s


def measure(run: Run, op, after, warm: int, min_ops: int = 1, units: int = 1) -> list:
    """Closed loop: ``op(i)`` until the run's seconds of op time are spent.

    The first ``warm`` calls warm caches and are not recorded.  ``after(i,
    result)`` checks an op's outputs outside the clock and returns (units
    failed, info).  Each op stands for ``units`` attempted operations.
    """
    if run.tracer is not None:
        min_ops = max(min_ops, 2)  # at least one bare and one traced op
    records = []
    busy = 0.0
    give_up = time.perf_counter() + 4 * run.seconds + 60
    i = 0
    while i < warm or busy < run.seconds or len(records) < min_ops:
        if time.perf_counter() > give_up:
            run.check(False, "loop overran its time limit")
            break
        j = i - warm
        traced = j >= 0 and run.traced(j)
        try:
            result, seconds = run.call(traced, f"op-{j}", op, i)
            failed, info = after(i, result)
        except Exception:
            if "an operation raised" not in run.problems:
                traceback.print_exc(file=sys.stderr)  # the first one explains the rest
            run.check(False, "an operation raised")
            seconds, failed, info = None, units, {}
        if j >= 0:
            run.attempted += units
            run.failed += failed
            if seconds is not None:
                busy += seconds
                run.reference.follow(seconds)
                records.append(Op(seconds, traced, run.reference.local(), info))
        i += 1
    return records


def busy_s(record) -> float:
    return record.info.get("busy_s", record.seconds)


def audio_x(records) -> float:
    """Audio seconds handled per wall second."""
    return sum(r.info["audio_s"] for r in records) / sum(busy_s(r) for r in records)


def op_stats(records):
    """audio_per_kref, op_p50_ref and op_p90_ref, each op timed in its local reference unit."""
    in_units = [r.seconds / r.ref for r in records]
    return {
        "audio_per_kref": 1000.0 * sum(r.info["audio_s"] for r in records)
        / sum(busy_s(r) / r.ref for r in records),
        "op_p50_ref": float(np.percentile(in_units, 50)),
        "op_p90_ref": float(np.percentile(in_units, 90)),
    }


def summarize(run: Run, records, setup_untraced, setup_traced, detail):
    """End-to-end metrics from untraced ops; traced-minus-untraced overhead.

    ``detail`` holds the workload's own metrics in wall-clock units; the
    end-to-end metrics count time in reference units (see Reference).
    """
    bare = [r for r in records if not r.traced]
    stats = op_stats(bare)
    metrics = {
        "setup_s": (statistics.median(setup_untraced), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "ok_frac": (1.0 - run.failed / run.attempted, "frac"),
        "audio_per_kref": (stats["audio_per_kref"], "s/kref"),
        "op_p50_ref": (stats["op_p50_ref"], "ref"),
        "op_p90_ref": (stats["op_p90_ref"], "ref"),
    }
    overhead = {}
    if run.tracer is not None:
        with_trace = op_stats([r for r in records if r.traced])
        overhead = {
            "trace.overhead.setup_s": (setup_traced - statistics.median(setup_untraced), "s"),
            "trace.overhead.audio_per_kref": (
                with_trace["audio_per_kref"] - stats["audio_per_kref"], "s/kref"),
            "trace.overhead.op_p50_ref": (with_trace["op_p50_ref"] - stats["op_p50_ref"], "ref"),
        }
    detail.update(setup_s=metrics["setup_s"], peak_rss_mb=metrics["peak_rss_mb"],
                  failed_frac=(run.failed / run.attempted, "frac"),
                  ref_ms=(statistics.median(run.reference.seconds) * 1000.0, "ms"))
    counts = {"ops": len(bare), "traced_ops": len(records) - len(bare),
              "setup_reps": len(setup_untraced), "reference_runs": len(run.reference.seconds)}
    return metrics, overhead, detail, counts


# ---------------------------------------------------------------------------
# render: `earshot simulate` in a closed loop


def render(run: Run):
    """One op is a round: `simulate --per-class 1` for env A, then env B.

    Each call renders a left, a right and a noise-only scene, so a third of
    the scenes have no source paths at all.
    """
    def round_seed(i):
        return int(np.random.default_rng([run.seed, i]).integers(2**31 - 1))

    out = {env: os.path.join(run.work, f"round-{env}") for env in ("A", "B")}

    def simulate(env, seed, dest):
        return cli_call(["simulate", "--out", dest, "--per-class", "1", "--env", env,
                         "--seed", str(seed)])

    def op(i):
        return {env: simulate(env, round_seed(i), out[env]) for env in ("A", "B")}

    first = {}

    def after(i, codes):
        failed, audio_s = 0, 0.0
        for env, code in codes.items():
            ok = run.check(code == 0, "simulate exited non-zero")
            manifest = dataset.load_manifest(os.path.join(out[env], "manifest.csv"))
            ok &= run.check(len(manifest) == 3, "manifest does not hold 3 x per-class rows")
            for entry in manifest:
                clip = audio.load_wav(entry.wav)
                good = run.check(clip.channels == 8 and clip.sample_rate == 48000,
                                 "WAV is not 8 x 48 kHz")
                good &= run.check(float(np.max(np.abs(clip.samples))) <= 1.0, "WAV peak above 1")
                if entry.situation != "none":
                    good &= run.check(entry.t0 is not None and 0.0 <= entry.t0 <= clip.duration,
                                      "side scene t0 outside its recording")
                failed += not (ok and good)
                audio_s += clip.duration
            if i == 0 and env == "A":
                first["digest"] = tree_digest(out["A"])
        return failed, {"audio_s": audio_s}

    # Set-up is a fresh process's first batch: its import and a cold render.
    _, setup_untraced, setup_traced = set_up(
        run, lambda dest: cli_ok(["simulate", "--out", dest, "--per-class", "1", "--env", "B",
                                  "--seed", str(run.seed)]))
    records = measure(run, op, after, warm=0, units=6)

    # Re-render the run's first batch (traced in a traced run, where the
    # original was rendered bare) and compare every byte.
    again = os.path.join(run.work, "rerender")
    code, _ = run.call(run.tracer is not None, "rerender", simulate, "A", round_seed(0), again)
    run.check(code == 0 and tree_digest(again) == first.get("digest"),
              "re-rendering the first scenes changed their bytes")

    bare = [r for r in records if not r.traced]
    detail = {"render_x": (audio_x(bare), "x"), "scenes": (6 * len(bare), "count")}
    return summarize(run, records, setup_untraced, setup_traced, detail)


# ---------------------------------------------------------------------------
# stream: the on-vehicle path, one window at a time


def stream(run: Run):
    """One op is one window: extract_feature + predict, as `earshot predict` does."""
    cfg = features.PipelineConfig()

    def prepare(dest):
        cli_ok(["simulate", "--out", dest, "--per-class", "1", "--env", "A",
                "--seed", str(run.seed)])
        manifest = os.path.join(dest, "manifest.csv")
        cli_ok(["extract", manifest, "--out", os.path.join(dest, "features.csv")])
        cli_ok(["train", os.path.join(dest, "features.csv"), "--out",
                os.path.join(dest, "model.json")])
        model = classifier.load_model(os.path.join(dest, "model.json"))
        recordings = [(e, audio.load_wav(e.wav), audio.load_geometry(e.geometry))
                      for e in dataset.load_manifest(manifest)]
        return model, recordings

    (model, recordings), setup_untraced, setup_traced = set_up(run, prepare)
    schedule = [(k, n, t_e) for k, (_, clip, _) in enumerate(recordings)
                for n, t_e in enumerate(evaluate.window_times(clip.duration, cfg.sample_len,
                                                              STRIDE))]
    entry0, clip0, geometry0 = recordings[0]
    expected = evaluate.sliding_window_eval(entry0, model, cfg, hop_seconds=STRIDE,
                                            clip=clip0, geometry=geometry0)

    def op(i):
        k, _, t_e = schedule[i % len(schedule)]
        _, clip, geometry = recordings[k]
        length = int(round(cfg.sample_len * clip.sample_rate))
        end = min(int(round(t_e * clip.sample_rate)), clip.n_samples)
        window = audio.AudioClip(clip.samples[:, end - length : end], clip.sample_rate)
        return classifier.predict(model, features.extract_feature(window, geometry, cfg))

    def after(i, pred):
        k, n, t_e = schedule[i % len(schedule)]
        entry = recordings[k][0]
        ok = run.check(np.all(np.isfinite(pred.probs)) and abs(pred.probs.sum() - 1.0) < 1e-9,
                       "window probabilities not finite or not summing to 1")
        if k == 0:
            ok &= run.check(np.array_equal(pred.probs, expected[n].probs)
                            and pred.label == expected[n].label_pred,
                            "window differs from sliding_window_eval at the same t_e")
        accepted = evaluate.accepted_labels(entry.situation, entry.t0, t_e)
        return int(not ok), {"audio_s": STRIDE, "correct": pred.label in accepted}

    records = measure(run, op, after, warm=len(schedule), min_ops=MIN_WINDOWS)

    bare = [r for r in records if not r.traced]
    ms = [r.seconds * 1000.0 for r in bare]
    detail = {"window_ms_p50": (float(np.percentile(ms, 50)), "ms"),
              "window_ms_p99": (float(np.percentile(ms, 99)), "ms"),
              "stream_x": (audio_x(bare), "x"),
              "window_accuracy": (sum(r.info["correct"] for r in bare) / len(bare), "frac"),
              "windows": (len(bare), "count")}
    return summarize(run, records, setup_untraced, setup_traced, detail)


# ---------------------------------------------------------------------------
# study: extract -> train -> eval --folds 5 -> eval --baseline doa


def study(run: Run):
    """One op is a chain pass over a corpus rendered in set-up (3 per class, env A and B)."""
    def prepare(dest):
        entries = []
        for env in ("A", "B"):
            sub = os.path.join(dest, env)
            cli_ok(["simulate", "--out", sub, "--per-class", "3", "--env", env,
                    "--seed", str(run.seed)])
            for e in dataset.load_manifest(os.path.join(sub, "manifest.csv")):
                entries.append(dataclasses.replace(e, wav=os.path.relpath(e.wav, dest),
                                                   geometry=os.path.relpath(e.geometry, dest)))
        manifest = os.path.join(dest, "manifest.csv")
        dataset.save_manifest(dataset.RecordingManifest(entries), manifest)
        return manifest, sum(wav_seconds(os.path.join(dest, e.wav)) for e in entries)

    (manifest, corpus_s), setup_untraced, setup_traced = set_up(run, prepare)
    out = os.path.join(run.work, "pass")
    os.makedirs(out)
    artifacts = {name: os.path.join(out, name)
                 for name in ("features.csv", "model.json", "report.json", "rule.json")}
    chain = [
        ("extract", ["extract", manifest, "--out", artifacts["features.csv"]]),
        ("train", ["train", artifacts["features.csv"], "--out", artifacts["model.json"]]),
        ("eval", ["eval", artifacts["features.csv"], "--out", artifacts["report.json"],
                  "--folds", "5"]),
        ("doa", ["eval", artifacts["features.csv"], "--out", artifacts["rule.json"],
                 "--baseline", "doa"]),
    ]

    def op(i):
        codes, seconds = {}, {}
        for step, argv in chain:
            start = time.perf_counter()
            codes[step] = cli_call(argv)
            seconds[step] = time.perf_counter() - start
        return codes, seconds

    first = {}

    def after(i, result):
        codes, seconds = result
        ok = run.check(all(c == 0 for c in codes.values()), "a study step exited non-zero")
        digest = tree_digest(out)
        first.setdefault("digest", digest)
        ok &= run.check(digest == first["digest"], "study artifacts differ between passes")
        with open(artifacts["report.json"]) as fh:
            cv = json.load(fh)["accuracy"]
        with open(artifacts["rule.json"]) as fh:
            rule = json.load(fh)["accuracy"]
        ok &= run.check(cv >= rule, "cv_accuracy below the DoA-rule accuracy")
        with open(artifacts["features.csv"]) as fh:
            samples = sum(1 for line in fh if not line.startswith("#")) - 1
        return int(not ok), {"audio_s": corpus_s, "busy_s": seconds["extract"],
                             "samples": samples, "cv": cv, "rule": rule}

    records = measure(run, op, after, warm=1, min_ops=2)

    bare = [r for r in records if not r.traced]
    detail = {"study_s": (float(np.median([r.seconds for r in bare])), "s"),
              "samples_per_s": (sum(r.info["samples"] for r in bare)
                                / sum(r.info["busy_s"] for r in bare), "1/s"),
              "cv_accuracy": (bare[0].info["cv"], "frac"),
              "doa_rule_accuracy": (bare[0].info["rule"], "frac"),
              "passes": (len(bare), "count")}
    return summarize(run, records, setup_untraced, setup_traced, detail)


WORKLOADS = {"render": render, "stream": stream, "study": study}
