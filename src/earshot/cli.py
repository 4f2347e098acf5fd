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
import json
import sys
from dataclasses import replace

from . import __version__
from ._backend import BACKEND
from .audio import WavError, load_geometry, load_wav
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
from .util import canonical_json, config_hash, write_text


class UsageError(Exception):
    """Bad flag or configuration value; maps to exit code 2."""


# Run-config key of each PipelineConfig field; their defaults come from
# PipelineConfig itself.
_PIPELINE_KEYS = {
    "window": "sample_len",
    "segments": "segments",
    "bins": "bins",
    "fmin": "f_min",
    "fmax": "f_max",
    "frame": "frame_len",
    "hop": "hop",
}

_DEFAULTS = {
    **{key: getattr(PipelineConfig(), name) for key, name in _PIPELINE_KEYS.items()},
    "lambda": 1.0,
    "seed": 0,
    "folds": 5,
    "augment": True,
    "alpha_th": 50.0,
    "baseline": "svm",
    "stride": 0.1,
}

_ARG_NAME = {"lambda": "lam"}


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def resolve_run_config(args) -> dict:
    """Defaults, then the --config file, then explicit flags."""
    run = dict(_DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise UsageError(f"{args.config}: config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(run))
        if unknown:
            raise UsageError(f"{args.config}: unknown config keys: {', '.join(unknown)}")
        run.update(loaded)
    for key in run:
        value = getattr(args, _ARG_NAME.get(key, key), None)
        if value is not None:
            run[key] = value

    if not isinstance(run["augment"], bool):
        raise UsageError("augment must be a boolean")
    if run["baseline"] not in ("svm", "doa"):
        raise UsageError("baseline must be 'svm' or 'doa'")
    if run["lambda"] <= 0:
        raise UsageError("lambda must be positive")
    if run["folds"] < 2:
        raise UsageError("folds must be at least 2")
    if run["stride"] <= 0:
        raise UsageError("stride must be positive")
    if not 0.0 <= run["alpha_th"] <= 90.0:
        raise UsageError("alpha-th must lie in [0, 90]")
    return run


def _pipeline(run: dict) -> PipelineConfig:
    try:
        return PipelineConfig(**{name: run[key] for key, name in _PIPELINE_KEYS.items()})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _provenance(run: dict) -> dict:
    return {"run_config": canonical_json(run), "run_config_hash": config_hash(run)}


def _emit(text: str, out) -> None:
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)


def _require_config_match(stored: dict, run: dict, source: str) -> None:
    """Flags must agree with the extraction config baked into an artifact."""
    wanted = _pipeline(run)
    if PipelineConfig.from_dict(stored) != wanted:
        raise ValueError(
            f"{source} was built with a different extraction config "
            f"{canonical_json(stored)}; pass matching flags or a matching --config"
        )


def cmd_doa(args, run: dict) -> int:
    cfg = _pipeline(run)
    clip = load_wav(args.wav)
    geometry = load_geometry(args.geometry)
    # One segment over the whole trailing window: the map of every frame.
    energies = extract_feature(clip, geometry, replace(cfg, segments=1)).matrix[0]
    lines = [f"# {k}: {v}" for k, v in _provenance(run).items()]
    lines.append("azimuth_deg,energy")
    for center, energy in zip(cfg.grid.bin_centers, energies):
        lines.append(f"{float(center)!r},{float(energy)!r}")
    _emit("\n".join(lines) + "\n", args.out)
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
    if not samples:
        raise ValueError(f"{args.features}: no samples in feature cache")
    _require_config_match(samples[0].feature.config.to_dict(), run, args.features)
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
    clip = load_wav(args.wav)
    geometry = load_geometry(args.geometry)
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
    scores = sliding_window_eval(
        entry, model, cfg, hop_seconds=run["stride"], clip=clip, geometry=geometry
    )
    _emit(window_scores_to_csv(scores, preamble=_provenance(run)), args.out)
    if entry is not None:
        hits = sum(1 for s in scores if s.correct)
        print(f"{hits}/{len(scores)} windows correct", file=sys.stderr)
    return 0


def cmd_eval(args, run: dict) -> int:
    samples = load_features(args.features)
    if not samples:
        raise ValueError(f"{args.features}: no samples in feature cache")
    _require_config_match(samples[0].feature.config.to_dict(), run, args.features)
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
        lines = [f"# {k}: {v}" for k, v in _provenance(run).items()]
        write_text(args.csv, "\n".join(lines) + "\n" + report.to_csv())
    jaccard = " ".join(f"J_{label}={report.jaccard[label]:.3f}" for label in report.classes)
    print(f"accuracy {report.accuracy:.3f} on {report.n} samples{note}; {jaccard}")
    return 0


def cmd_simulate(args, run: dict) -> int:
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
    manifest = load_manifest(args.manifest)
    recordings = [(load_wav(e.wav), load_geometry(e.geometry), e) for e in manifest]
    rows = mic_subset_study(
        recordings, cfg, sizes, trials=args.trials, seed=run["seed"],
        k=run["folds"], lam=run["lambda"], augment=run["augment"],
    )
    _emit(mic_study_to_csv(rows, preamble=_provenance(run)), args.out)
    for r in rows:
        print(f"m={r['m']}: best {r['best']:.3f} mean {r['mean']:.3f} ({r['trials']} trials)")
    return 0


def _add_shared_flags(sub) -> None:
    sub.add_argument("--config", help="JSON file of configuration overrides")
    sub.add_argument("--seed", type=int, help="master seed, fanned out per subsystem")
    sub.add_argument("--lambda", dest="lam", type=float, help="SVM regularization weight")
    sub.add_argument("--window", type=float, help="analysis window length in seconds")
    sub.add_argument("--segments", type=int, help="stacked DoA maps per feature")
    sub.add_argument("--bins", type=int, help="azimuth grid size")
    sub.add_argument("--fmin", type=float, help="lowest retained frequency in Hz")
    sub.add_argument("--fmax", type=float, help="highest retained frequency in Hz")
    sub.add_argument("--frame", type=int, help="STFT frame length in samples")
    sub.add_argument("--hop", type=int, help="STFT hop in samples")
    sub.add_argument("--augment", type=_parse_bool, metavar="BOOL",
                     help="mirror side-labeled training samples (default true)")
    sub.add_argument("--folds", type=int, help="cross-validation fold count")
    sub.add_argument("--baseline", choices=("svm", "doa"), help="classifier to evaluate")
    sub.add_argument("--alpha-th", type=float, help="direction-rule threshold in degrees")
    sub.add_argument("--stride", type=float, help="sliding-window step in seconds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="earshot",
        description="Hear approaching vehicles around blind corners from a mic array.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__} ({BACKEND} kernels)")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("doa", help="dump the azimuth energy map of a recording")
    p.add_argument("wav", help="multichannel WAV file")
    p.add_argument("geometry", help="array geometry JSON")
    p.add_argument("--out", help="output CSV (default stdout)")
    _add_shared_flags(p)
    p.set_defaults(func=cmd_doa)

    p = commands.add_parser("extract", help="turn a manifest of recordings into a feature cache")
    p.add_argument("manifest", help="recording manifest CSV")
    p.add_argument("--out", required=True, help="feature cache CSV to write")
    _add_shared_flags(p)
    p.set_defaults(func=cmd_extract)

    p = commands.add_parser("train", help="fit the classifier on a feature cache")
    p.add_argument("features", help="feature cache CSV")
    p.add_argument("--out", required=True, help="model JSON to write")
    _add_shared_flags(p)
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("predict", help="classify sliding windows of one recording")
    p.add_argument("wav", help="multichannel WAV file")
    p.add_argument("geometry", help="array geometry JSON")
    p.add_argument("--model", required=True, help="model JSON from train")
    p.add_argument("--situation", choices=("left", "right", "none"),
                   help="ground truth, to score the windows")
    p.add_argument("--t0", type=float, help="annotated line-of-sight time for the truth")
    p.add_argument("--out", help="output CSV (default stdout)")
    _add_shared_flags(p)
    p.set_defaults(func=cmd_predict)

    p = commands.add_parser("eval", help="cross-validate a feature cache, or score the DoA rule")
    p.add_argument("features", help="feature cache CSV")
    p.add_argument("--out", required=True, help="metrics report JSON to write")
    p.add_argument("--csv", help="also write a flat metrics CSV here")
    _add_shared_flags(p)
    p.set_defaults(func=cmd_eval)

    p = commands.add_parser("simulate", help="render a labeled synthetic benchmark")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--per-class", type=int, default=10, help="recordings per class")
    p.add_argument("--env", choices=("A", "B"), default="A", help="junction type")
    p.add_argument("--mics", type=int, default=8, help="microphones in the array")
    p.add_argument("--encoding", choices=("pcm24", "float32"), default="pcm24")
    _add_shared_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = commands.add_parser("micstudy", help="accuracy as a function of microphone count")
    p.add_argument("manifest", help="recording manifest CSV")
    p.add_argument("--sizes", default="2,4,6,8", help="comma-separated subset sizes")
    p.add_argument("--trials", type=int, default=5, help="random subsets per size")
    p.add_argument("--out", help="output CSV (default stdout)")
    _add_shared_flags(p)
    p.set_defaults(func=cmd_micstudy)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = resolve_run_config(args)
        return args.func(args, run)
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
