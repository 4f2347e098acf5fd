"""Command line front end: one binary, a subcommand per pipeline stage.

Every subcommand resolves one run configuration before doing anything:
built-in defaults, overridden by an optional JSON --config file, overridden by
explicit flags.  The resolved configuration and its hash are serialized into
every artifact the command writes, so a rerun with the same inputs and seed
reproduces the same bytes.

Exit codes: 0 success, 2 bad arguments or configuration, 3 file and I/O
problems, 4 violated data contracts (mismatched dimensions, malformed
artifacts, windows outside a recording and the like).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import namedtuple
from dataclasses import replace

from . import __version__
from .audio import WavError, check_mic_count, load_geometry, load_wav, wav_frames
from .classifier import load_model, save_model, train
from .dataset import ManifestEntry, extract_manifest, load_manifest
from .evaluate import (
    cross_validate,
    doa_baseline_eval,
    mic_study_to_csv,
    mic_subset_study,
    sliding_window_eval,
    window_scores_to_csv,
)
from .features import (
    PipelineConfig,
    augment_training_set,
    extract_feature,
    load_features,
    save_features,
)
from .synth import make_benchmark
from .util import canonical_json, config_hash, csv_text, write_text


class UsageError(Exception):
    """Bad flag or configuration value; maps to exit code 2."""


# A run option: the JSON type of its --config value, which also parses its
# flag, its help, and the PipelineConfig field that supplies its default, or
# else its own default.
_Option = namedtuple("_Option", "kind help field default extras", defaults=(None, None, {}))

# Every run-config key once; its flag is --key with dashes for underscores.
_OPTIONS = {
    "seed": _Option(int, "master seed, fanned out per subsystem", default=0),
    "lambda": _Option(float, "SVM regularization weight", default=1.0),
    "window": _Option(float, "analysis window length in seconds", "sample_len"),
    "segments": _Option(int, "stacked DoA maps per feature", "segments"),
    "bins": _Option(int, "azimuth grid size", "bins"),
    "fmin": _Option(float, "lowest retained frequency in Hz", "f_min"),
    "fmax": _Option(float, "highest retained frequency in Hz", "f_max"),
    "frame": _Option(int, "STFT frame length in samples", "frame_len"),
    "hop": _Option(int, "STFT hop in samples", "hop"),
    "augment": _Option(bool, "mirror side-labeled training samples (default true)",
                       default=True, extras={"metavar": "BOOL"}),
    "folds": _Option(int, "cross-validation fold count", default=5),
    "baseline": _Option(str, "classifier to evaluate", default="svm",
                        extras={"choices": ("svm", "doa")}),
    "alpha_th": _Option(float, "direction-rule threshold in degrees", default=50.0),
    "stride": _Option(float, "sliding-window step in seconds", default=0.1),
}

_KIND_NAMES = {float: "a number", int: "an integer", bool: "true or false", str: "a string"}


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def resolve_run_config(args) -> dict:
    """Defaults, then the --config file, then explicit flags.

    A --config value must have its option's JSON type (an integer is a
    number, true and false are neither) and is kept as given.  Every float
    option must be finite, from a flag or a --config file alike.  The
    extraction options are checked by building their PipelineConfig, so
    every bad value exits 2 before a command reads its inputs.
    """
    defaults = PipelineConfig()
    run = {key: getattr(defaults, o.field) if o.field else o.default
           for key, o in _OPTIONS.items()}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise UsageError(f"{args.config}: config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(run))
        if unknown:
            raise UsageError(f"{args.config}: unknown config keys: {', '.join(unknown)}")
        for key, value in loaded.items():
            kind = _OPTIONS[key].kind
            if not (type(value) is kind or (kind is float and type(value) is int)):
                raise UsageError(f"{args.config}: {key} must be {_KIND_NAMES[kind]}, "
                                 f"got {json.dumps(value)}")
        run.update(loaded)
    for key in run:
        value = getattr(args, key, None)
        if value is not None:
            run[key] = value

    for key, o in _OPTIONS.items():
        # NaN fails the comparison; an int too large for math.isfinite passes it
        if o.kind is float and not -math.inf < run[key] < math.inf:
            raise UsageError(f"{key.replace('_', '-')} must be finite, got {run[key]}")
    if run["baseline"] not in ("svm", "doa"):
        raise UsageError("baseline must be 'svm' or 'doa'")
    if not (run["lambda"] > 0):
        raise UsageError("lambda must be positive")
    if run["folds"] < 2:
        raise UsageError("folds must be at least 2")
    if not (run["stride"] > 0):
        raise UsageError("stride must be positive")
    if not 0.0 <= run["alpha_th"] <= 90.0:
        raise UsageError("alpha-th must lie in [0, 90]")
    _pipeline(run)
    return run


def _pipeline(run: dict) -> PipelineConfig:
    try:
        return PipelineConfig(**{o.field: run[key] for key, o in _OPTIONS.items() if o.field})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _provenance(run: dict) -> dict:
    return {"run_config": canonical_json(run), "run_config_hash": config_hash(run)}


def _emit(text: str, out) -> None:
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)


def _require_config_match(stored: PipelineConfig, run: dict, source: str) -> None:
    """Flags must agree with the extraction config baked into an artifact."""
    if stored != _pipeline(run):
        raise ValueError(
            f"{source} was built with a different extraction config "
            f"{canonical_json(stored.to_dict())}; pass matching flags or a matching --config"
        )


def cmd_doa(args, run: dict) -> int:
    cfg = _pipeline(run)
    sample_rate, n_frames = wav_frames(args.wav)
    clip = load_wav(args.wav, max(n_frames - round(cfg.sample_len * sample_rate), 0), n_frames)
    geometry = load_geometry(args.geometry)
    check_mic_count(clip, geometry, args.wav, args.geometry)
    # One segment over the whole trailing window: the map of every frame.
    energies = extract_feature(clip, geometry, replace(cfg, segments=1)).matrix[0]
    rows = ([repr(float(c)), repr(float(e))] for c, e in zip(cfg.grid.bin_centers, energies))
    _emit(csv_text(_provenance(run), ["azimuth_deg", "energy"], rows), args.out)
    return 0


def cmd_extract(args, run: dict) -> int:
    cfg = _pipeline(run)
    manifest = load_manifest(args.manifest)
    samples = extract_manifest(manifest, cfg)
    save_features(samples, args.out, extra_header=_provenance(run))
    print(f"extracted {len(samples)} samples from {len(manifest)} recordings -> {args.out}")
    return 0


def cmd_train(args, run: dict) -> int:
    samples = load_features(args.features)
    _require_config_match(samples[0].feature.config, run, args.features)
    if run["augment"]:
        samples = augment_training_set(samples)
    model = train(samples, lam=run["lambda"], seed=run["seed"])
    save_model(model, args.out, extra=_provenance(run))
    print(
        f"trained on {len(samples)} samples (dim {model.feature_dim}, "
        f"lambda {run['lambda']}) -> {args.out}"
    )
    return 0


def cmd_predict(args, run: dict) -> int:
    cfg = _pipeline(run)
    model = load_model(args.model)
    _require_config_match(model.config, run, args.model)
    sample_rate, _ = wav_frames(args.wav)
    if run["stride"] * sample_rate < 1:
        raise UsageError(f"stride {run['stride']} s is shorter than one sample "
                         f"at {sample_rate} Hz")
    clip = load_wav(args.wav)
    geometry = load_geometry(args.geometry)
    check_mic_count(clip, geometry, args.wav, args.geometry)
    if args.situation in ("left", "right") and args.t0 is None:
        raise UsageError(f"--situation {args.situation} needs --t0 for scoring")
    entry = None
    if args.situation is not None:
        entry = ManifestEntry(
            wav=args.wav,
            geometry=args.geometry,
            situation=args.situation,
            motion="static",
            t0=args.t0,
        )
    try:
        scores = sliding_window_eval(
            entry, model, cfg, hop_seconds=run["stride"], clip=clip, geometry=geometry
        )
    except ValueError as exc:
        raise ValueError(f"{args.wav}: {exc}") from None
    _emit(window_scores_to_csv(scores, preamble=_provenance(run)), args.out)
    if entry is not None:
        hits = sum(1 for s in scores if s.correct)
        print(f"{hits}/{len(scores)} windows correct", file=sys.stderr)
    return 0


def cmd_eval(args, run: dict) -> int:
    samples = load_features(args.features)
    _require_config_match(samples[0].feature.config, run, args.features)
    if run["baseline"] == "doa":
        report = doa_baseline_eval(samples, alpha_th=run["alpha_th"])
        skipped = sum(1 for s in samples if s.label == "none")
        note = f" ({skipped} none samples excluded, rule is three-way)" if skipped else ""
    else:
        report = cross_validate(
            samples, k=run["folds"], lam=run["lambda"], seed=run["seed"],
            augment=run["augment"],
        )
        note = f" over {run['folds']} folds"
    payload = report.to_dict()
    payload.update(_provenance(run))
    write_text(args.out, canonical_json(payload) + "\n")
    if args.csv:
        write_text(args.csv, report.to_csv(_provenance(run)))
    jaccard = " ".join(f"J_{label}={report.jaccard[label]:.3f}" for label in report.classes)
    print(f"accuracy {report.accuracy:.3f} on {report.n} samples{note}; {jaccard}")
    return 0


def cmd_simulate(args, run: dict) -> int:
    if args.per_class < 1:
        raise UsageError("--per-class must be at least 1")
    if args.mics < 2:
        raise UsageError("--mics must be at least 2")
    manifest_path = make_benchmark(
        args.out,
        per_class=args.per_class,
        env_type=args.env,
        seed=run["seed"],
        n_mics=args.mics,
        encoding=args.encoding,
        extra_preamble=_provenance(run),
    )
    print(f"simulated {3 * args.per_class} recordings -> {manifest_path}")
    return 0


def cmd_micstudy(args, run: dict) -> int:
    cfg = _pipeline(run)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        raise UsageError(f"--sizes must be comma-separated integers: {exc}") from exc
    if not sizes:
        raise UsageError("--sizes must name at least one subset size")
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    rows = mic_subset_study(
        load_manifest(args.manifest), cfg, sizes, trials=args.trials, seed=run["seed"],
        k=run["folds"], lam=run["lambda"], augment=run["augment"],
    )
    _emit(mic_study_to_csv(rows, preamble=_provenance(run)), args.out)
    for r in rows:
        print(f"m={r['m']}: best {r['best']:.3f} mean {r['mean']:.3f} ({r['trials']} trials)")
    return 0


_COMMANDS = {
    "doa": cmd_doa,
    "extract": cmd_extract,
    "train": cmd_train,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "simulate": cmd_simulate,
    "micstudy": cmd_micstudy,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: built on first use, then reused.

    --config and the run options are declared once, on a parent parser that
    every subcommand takes through ``parents=``.
    """
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON file of configuration overrides")
    for key, o in _OPTIONS.items():
        shared.add_argument("--" + key.replace("_", "-"), help=o.help,
                            type=_parse_bool if o.kind is bool else o.kind, **o.extras)

    parser = argparse.ArgumentParser(
        prog="earshot",
        description="Hear approaching vehicles around blind corners from a mic array.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        return commands.add_parser(name, help=help, parents=[shared])

    p = command("doa", "dump the azimuth energy map of a recording")
    p.add_argument("wav", help="multichannel WAV file")
    p.add_argument("geometry", help="array geometry JSON")
    p.add_argument("--out", help="output CSV (default stdout)")

    p = command("extract", "turn a manifest of recordings into a feature cache")
    p.add_argument("manifest", help="recording manifest CSV")
    p.add_argument("--out", required=True, help="feature cache CSV to write")

    p = command("train", "fit the classifier on a feature cache")
    p.add_argument("features", help="feature cache CSV")
    p.add_argument("--out", required=True, help="model JSON to write")

    p = command("predict", "classify sliding windows of one recording")
    p.add_argument("wav", help="multichannel WAV file")
    p.add_argument("geometry", help="array geometry JSON")
    p.add_argument("--model", required=True, help="model JSON from train")
    p.add_argument("--situation", choices=("left", "right", "none"),
                   help="ground truth, to score the windows")
    p.add_argument("--t0", type=float, help="annotated line-of-sight time for the truth")
    p.add_argument("--out", help="output CSV (default stdout)")

    p = command("eval", "cross-validate a feature cache, or score the DoA rule")
    p.add_argument("features", help="feature cache CSV")
    p.add_argument("--out", required=True, help="metrics report JSON to write")
    p.add_argument("--csv", help="also write a flat metrics CSV here")

    p = command("simulate", "render a labeled synthetic benchmark")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--per-class", type=int, default=10, help="recordings per class")
    p.add_argument("--env", choices=("A", "B"), default="A", help="junction type")
    p.add_argument("--mics", type=int, default=8, help="microphones in the array")
    p.add_argument("--encoding", choices=("pcm24", "float32"), default="pcm24")

    p = command("micstudy", "accuracy as a function of microphone count")
    p.add_argument("manifest", help="recording manifest CSV")
    p.add_argument("--sizes", default="2,4,6,8", help="comma-separated subset sizes")
    p.add_argument("--trials", type=int, default=5, help="random subsets per size")
    p.add_argument("--out", help="output CSV (default stdout)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = resolve_run_config(args)
        return _COMMANDS[args.command](args, run)
    except UsageError as exc:
        print(f"earshot: error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, WavError) as exc:
        print(f"earshot: error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"earshot: error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
