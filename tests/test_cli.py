"""End-to-end runs of the command line against a small synthetic corpus."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import earshot
from earshot import __version__
from earshot.audio import AudioClip, load_geometry, load_wav, save_geometry, wav_frames, write_wav
from earshot.beamform import srp_phat
from earshot import cli
from earshot.cli import build_parser, main, resolve_run_config
from earshot.dataset import RecordingManifest, load_manifest, save_manifest
from earshot.evaluate import window_times
from earshot.features import PipelineConfig
from earshot.stft import band_select, stft
from earshot.synth import random_planar_array
from earshot.util import config_hash, read_csv

from synthref import render_plane_wave
from test_audio import GEOMETRY_EDITS, build_wav, write_edited_geometry
from test_classifier import MODEL_EDITS, write_edited_model
from test_dataset import MANIFEST_EDITS, write_edited_manifest
from test_features import CACHE_EDITS, write_edited_cache


def read_rows(path):
    """Data rows of a CSV artifact, skipping the # preamble."""
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, l.split(","))) for l in lines[1:]]


@pytest.fixture(scope="module")
def arts(bench_dir, tmp_path_factory):
    """Feature cache and model built once through the CLI itself."""
    d = tmp_path_factory.mktemp("cli_arts")
    features = d / "features.csv"
    model = d / "model.json"
    assert main(["extract", str(bench_dir), "--out", str(features)]) == 0
    assert main(["train", str(features), "--out", str(model)]) == 0
    return {"dir": d, "features": features, "model": model}


@pytest.fixture(scope="module")
def front_wav(tmp_path_factory):
    """A head-on plane wave recording with its geometry JSON."""
    d = tmp_path_factory.mktemp("cli_wave")
    geom = random_planar_array(6, seed=3)
    samples = render_plane_wave(geom, 0.0, duration=1.2, fs=48000, seed=8)
    clip = AudioClip(0.5 * samples / np.max(np.abs(samples)), 48000)
    wav = d / "front.wav"
    gj = d / "geom.json"
    write_wav(clip, wav, encoding="float32")
    save_geometry(geom, gj)
    return wav, gj


def test_version_banner(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_config_precedence(tmp_path):
    """Defaults lose to the config file, the config file loses to flags."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"lambda": 3.0, "stride": 0.25, "window": 1}))
    parser = build_parser()
    base = ["eval", "f.csv", "--out", "r.json", "--config", str(cfg)]
    run = resolve_run_config(parser.parse_args(base))
    assert run["lambda"] == 3.0
    assert run["stride"] == 0.25
    assert run["folds"] == 5  # untouched default
    assert type(run["window"]) is int  # a config value is kept as given
    run = resolve_run_config(parser.parse_args(base + ["--lambda", "5.0"]))
    assert run["lambda"] == 5.0
    assert run["stride"] == 0.25


def test_default_run_config_and_hash():
    """Extraction defaults come from PipelineConfig; the resolved table is fixed."""
    run = resolve_run_config(build_parser().parse_args(["train", "f.csv", "--out", "m.json"]))
    assert run == {
        "window": 1.0, "segments": 2, "bins": 30, "fmin": 50.0, "fmax": 1500.0,
        "frame": 2048, "hop": 1024, "lambda": 1.0, "seed": 0, "folds": 5,
        "augment": True, "alpha_th": 50.0, "baseline": "svm", "stride": 0.1,
    }
    assert config_hash(run) == "36273eb1a53a"


def test_exit_codes_for_bad_configuration(tmp_path, capsys):
    bad_key = tmp_path / "bad_key.json"
    bad_key.write_text(json.dumps({"windows": 2.0}))
    assert main(["train", "f.csv", "--out", "m.json", "--config", str(bad_key)]) == 2
    assert "unknown config keys" in capsys.readouterr().err

    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert main(["train", "f.csv", "--out", "m.json", "--config", str(not_object)]) == 2

    capsys.readouterr()

    # a value must already have its option's JSON type
    for i, values in enumerate([{"segments": 2.0}, {"bins": 30.0}, {"lambda": "1"},
                                {"folds": None}, {"stride": "0.1"}, {"seed": 1.5},
                                {"hop": True}, {"augment": 1}, {"baseline": 3}]):
        typo = tmp_path / f"typo{i}.json"
        typo.write_text(json.dumps(values))
        assert main(["extract", "m.csv", "--out", "f.csv", "--config", str(typo)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"earshot: error: {typo}: {next(iter(values))} must be ")
        assert err.count("\n") == 1

    # flag validation runs before any file is touched
    assert main(["train", "f.csv", "--out", "m.json", "--lambda", "0"]) == 2
    assert main(["train", "f.csv", "--out", "m.json", "--folds", "1"]) == 2
    assert main(["eval", "f.csv", "--out", "r.json", "--alpha-th", "91"]) == 2
    assert main(["predict", "a.wav", "g.json", "--model", "m.json",
                 "--stride", "-1"]) == 2
    # ... and the extraction flags are checked with the others
    assert main(["train", str(tmp_path / "missing.csv"), "--out", "m.json",
                 "--segments", "0"]) == 2
    assert main(["eval", str(tmp_path / "missing.csv"), "--out", "r.json", "--frame", "3"]) == 2
    assert main(["simulate", "--out", str(tmp_path / "sim"), "--per-class", "1",
                 "--segments", "0"]) == 2
    assert not (tmp_path / "sim").exists()
    capsys.readouterr()

    # NaN and infinity name their option, from a flag or a --config file
    cases = [(["train", "f.csv", "--out", "m.json", "--lambda", "nan"], "lambda"),
             (["predict", "a.wav", "g.json", "--model", "m.json", "--stride", "inf"], "stride"),
             (["extract", "m.csv", "--out", "f.csv", "--window", "inf"], "window"),
             (["extract", "m.csv", "--out", "f.csv", "--window", "nan"], "window"),
             (["extract", "m.csv", "--out", "f.csv", "--fmax", "inf"], "fmax")]
    for option, text in [("lambda", '{"lambda": NaN}'), ("stride", '{"stride": Infinity}')]:
        config = tmp_path / f"nonfinite-{option}.json"
        config.write_text(text)
        cases.append((["train", "f.csv", "--out", "m.json", "--config", str(config)], option))
    for argv, option in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"earshot: error: {option} must be finite") and err.count("\n") == 1


def test_exit_codes_for_io_problems(tmp_path, capsys):
    assert main(["doa", str(tmp_path / "nope.wav"), str(tmp_path / "g.json")]) == 3
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["train", "f.csv", "--out", "m.json", "--config", str(broken)]) == 3
    assert main(["train", "f.csv", "--out", "m.json",
                 "--config", str(tmp_path / "missing.json")]) == 3
    capsys.readouterr()
    # 24-bit stereo declared in 4-byte slots: not the packed layout it would be read as
    slots = tmp_path / "slots.wav"
    slots.write_bytes(build_wav(1, 2, 48000, 24, bytes(6 * 4800), block_align=8))
    assert main(["doa", str(slots), str(tmp_path / "g.json")]) == 3
    assert "block_align 8 is not 2 channels x 3 bytes per sample" in capsys.readouterr().err


def test_exit_code_for_malformed_model(tmp_path, arts, front_wav, capsys):
    wav, gj = front_wav
    impostor = tmp_path / "impostor.json"
    impostor.write_text(json.dumps({"weights": [1, 2, 3]}))
    assert main(["predict", str(wav), str(gj), "--model", str(impostor)]) == 4
    assert "error" in capsys.readouterr().err


def test_exit_code_for_config_mismatch(tmp_path, arts, capsys):
    """Artifacts remember their extraction config and refuse other flags."""
    out = tmp_path / "m.json"
    assert main(["train", str(arts["features"]), "--out", str(out), "--bins", "15"]) == 4
    assert "different extraction config" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["micstudy", "{manifest}", "--trials", "0", "--out", "{out}"], "--trials must be at least 1"),
    (["micstudy", "{manifest}", "--trials", "-2", "--out", "{out}"],
     "--trials must be at least 1"),
    (["simulate", "--out", "{out}", "--per-class", "0"], "--per-class must be at least 1"),
    (["simulate", "--out", "{out}", "--mics", "1"], "--mics must be at least 2"),
], ids=["trials-0", "trials-negative", "per-class-0", "mics-1"])
def test_out_of_range_counts_exit_2_before_any_file_is_made(tmp_path, bench_dir, capsys,
                                                            argv, message):
    out = tmp_path / "out"
    assert main([a.format(manifest=bench_dir, out=out) for a in argv]) == 2
    assert capsys.readouterr().err == f"earshot: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["true", "false"])
def test_augment_flag_gives_the_bytes_of_its_config_value(tmp_path, arts, capsys, value):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"augment": value == "true"}))
    by_flag, by_config = tmp_path / "flag.json", tmp_path / "config.json"
    assert main(["train", str(arts["features"]), "--out", str(by_flag), "--augment", value]) == 0
    assert main(["train", str(arts["features"]), "--out", str(by_config),
                 "--config", str(config)]) == 0
    assert by_flag.read_bytes() == by_config.read_bytes()
    assert json.loads(json.loads(by_flag.read_text())["run_config"])["augment"] is (value == "true")
    capsys.readouterr()


def test_argparse_rejects_malformed_boolean(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "f.csv", "--out", "m.json", "--augment", "maybe"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_doa_map_shape_and_peak(tmp_path, front_wav, capsys):
    wav, gj = front_wav
    out = tmp_path / "map.csv"
    assert main(["doa", str(wav), str(gj), "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["azimuth_deg", "energy"]
    assert len(rows) == 30
    assert "# run_config_hash:" in out.read_text()

    # a coarse grid puts the head-on peak in one of the two inner bins
    coarse = tmp_path / "coarse.csv"
    assert main(["doa", str(wav), str(gj), "--bins", "4", "--out", str(coarse)]) == 0
    _, rows = read_rows(coarse)
    assert len(rows) == 4
    energies = [float(r["energy"]) for r in rows]
    assert np.argmax(energies) in (1, 2)
    capsys.readouterr()


def test_doa_writes_stdout_without_out_flag(front_wav, capsys):
    wav, gj = front_wav
    assert main(["doa", str(wav), str(gj)]) == 0
    out = capsys.readouterr().out
    assert "azimuth_deg,energy" in out


def test_extract_reports_sample_counts(arts, capsys):
    """The cache built by the fixture holds two windows per labeled approach."""
    text = arts["features"].read_text()
    assert "# config:" in text and "# run_config_hash:" in text
    # 4 static or dynamic scenes per side and per front yield 2 samples each,
    # 4 none scenes yield 1
    assert text.count("\n") >= 20


def test_eval_svm_and_baseline_reports(tmp_path, arts, capsys):
    report = tmp_path / "report.json"
    metrics = tmp_path / "metrics.csv"
    code = main(["eval", str(arts["features"]), "--out", str(report),
                 "--csv", str(metrics), "--folds", "3"])
    assert code == 0
    payload = json.loads(report.read_text())
    assert set(payload["classes"]) == {"left", "front", "right", "none"}
    assert 0.0 <= payload["accuracy"] <= 1.0
    assert payload["run_config_hash"]
    assert "accuracy" in capsys.readouterr().out
    assert metrics.read_text().startswith("# run_config:")

    rule = tmp_path / "rule.json"
    assert main(["eval", str(arts["features"]), "--out", str(rule),
                 "--baseline", "doa"]) == 0
    payload = json.loads(rule.read_text())
    assert payload["classes"] == ["left", "front", "right"]
    assert "none samples excluded" in capsys.readouterr().out


def test_predict_scores_windows_against_truth(tmp_path, arts, bench_manifest, capsys):
    entry = next(e for e in bench_manifest if e.situation == "right")
    out = tmp_path / "scored.csv"
    code = main(["predict", str(entry.wav), str(entry.geometry),
                 "--model", str(arts["model"]),
                 "--situation", "right", "--t0", repr(entry.t0),
                 "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["t_e", "p_left", "p_front", "p_right", "p_none",
                      "label_pred", "label_true_accepted"]
    assert rows
    for r in rows:
        probs = [float(r[f"p_{c}"]) for c in ("left", "front", "right", "none")]
        assert abs(sum(probs) - 1.0) < 1e-9
    assert any(r["label_true_accepted"] for r in rows)
    assert "windows correct" in capsys.readouterr().err


def test_predict_without_truth_leaves_accepted_blank(tmp_path, arts,
                                                     bench_manifest, capsys):
    entry = next(iter(bench_manifest))
    out = tmp_path / "plain.csv"
    assert main(["predict", str(entry.wav), str(entry.geometry),
                 "--model", str(arts["model"]), "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert rows and all(r["label_true_accepted"] == "" for r in rows)
    capsys.readouterr()


def test_predict_windows_match_with_and_without_truth(tmp_path, arts, bench_manifest, capsys):
    entry = next(e for e in bench_manifest if e.situation == "right")
    base = [str(entry.wav), str(entry.geometry), "--model", str(arts["model"])]
    scored, plain = tmp_path / "scored.csv", tmp_path / "plain.csv"
    assert main(["predict", *base, "--situation", "right", "--t0", repr(entry.t0),
                 "--out", str(scored)]) == 0
    assert main(["predict", *base, "--out", str(plain)]) == 0
    cols = ["t_e", "p_left", "p_front", "p_right", "p_none", "label_pred"]
    _, scored_rows = read_rows(scored)
    _, plain_rows = read_rows(plain)
    assert scored_rows
    assert [[r[c] for c in cols] for r in plain_rows] == [[r[c] for c in cols] for r in scored_rows]
    capsys.readouterr()


def test_predict_side_truth_requires_t0(arts, bench_manifest, capsys):
    entry = next(e for e in bench_manifest if e.situation == "left")
    code = main(["predict", str(entry.wav), str(entry.geometry),
                 "--model", str(arts["model"]), "--situation", "left"])
    assert code == 2
    assert "needs --t0" in capsys.readouterr().err


def test_reruns_are_byte_identical(tmp_path, arts, bench_dir, capsys):
    """Same inputs and seed reproduce every artifact exactly."""
    f2 = tmp_path / "features2.csv"
    m2 = tmp_path / "model2.json"
    assert main(["extract", str(bench_dir), "--out", str(f2)]) == 0
    assert main(["train", str(f2), "--out", str(m2)]) == 0
    assert f2.read_bytes() == arts["features"].read_bytes()
    assert m2.read_bytes() == arts["model"].read_bytes()
    capsys.readouterr()


def test_train_and_cv_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, bench_manifest,
                                                                   bench_b_dir):
    """The stacked solver's matrix products are BLAS calls; `earshot train` and
    `earshot eval --folds 5` with one and with two BLAS threads write the same
    model and report."""
    manifest = tmp_path / "manifest.csv"
    save_manifest(RecordingManifest(list(bench_manifest) + list(load_manifest(bench_b_dir))),
                  manifest)
    features = tmp_path / "features.csv"
    assert main(["extract", str(manifest), "--out", str(features)]) == 0
    src = str(Path(earshot.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        outs = [tmp_path / f"model_{threads}.json", tmp_path / f"report_{threads}.json"]
        for argv in (["train", str(features), "--out", str(outs[0])],
                     ["eval", str(features), "--out", str(outs[1]), "--folds", "5"]):
            subprocess.run([sys.executable, "-c", "import sys; from earshot.cli import main; "
                            "sys.exit(main(sys.argv[1:]))", *argv],
                           env=env, check=True, capture_output=True)
        digests.append([hashlib.sha256(p.read_bytes()).hexdigest() for p in outs])
    assert digests[0] == digests[1]


def test_simulate_then_extract_round_trip(tmp_path, capsys):
    out = tmp_path / "tiny"
    code = main(["simulate", "--out", str(out), "--per-class", "1",
                 "--mics", "4", "--seed", "31"])
    assert code == 0
    manifest = out / "manifest.csv"
    assert manifest.exists()
    assert len(load_manifest(manifest)) == 3
    # Recorder file names may hold commas; the feature cache must survive one.
    entries = load_manifest(manifest).entries
    odd = out / "junction,take 1.wav"
    os.rename(entries[0].wav, odd)
    entries[0] = replace(entries[0], wav=str(odd))
    save_manifest(RecordingManifest(entries), manifest)
    features = tmp_path / "tiny.csv"
    assert main(["extract", str(manifest), "--out", str(features)]) == 0
    assert features.read_text().count("\n") > 3
    assert main(["train", str(features), "--out", str(tmp_path / "tiny.json")]) == 0
    capsys.readouterr()


def test_micstudy_csv_and_size_validation(tmp_path, bench_dir, capsys):
    out = tmp_path / "mics.csv"
    code = main(["micstudy", str(bench_dir), "--sizes", "4,8", "--trials", "2",
                 "--folds", "3", "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["m", "trials", "best", "mean", "std"]
    assert [r["m"] for r in rows] == ["4", "8"]
    assert rows[1]["trials"] == "1"  # full array has a single subset

    assert main(["micstudy", str(bench_dir), "--sizes", "1,8"]) == 4
    assert main(["micstudy", str(bench_dir), "--sizes", "two"]) == 2
    assert main(["micstudy", str(bench_dir), "--sizes", ","]) == 2
    capsys.readouterr()


def test_micstudy_reads_only_the_spans_extract_reads(tmp_path, bench_dir, bench_manifest,
                                                     monkeypatch, capsys):
    """Every WAV read of `micstudy` is the span `extract` reads for that
    recording, once per trial; no file is read whole."""
    from earshot import cli, dataset

    reads = []

    def spy(path, start=0, stop=None):
        reads.append((str(path), start, stop))
        return load_wav(path, start, stop)

    for module in (cli, dataset):
        monkeypatch.setattr(module, "load_wav", spy)
    assert main(["extract", bench_dir, "--out", str(tmp_path / "f.csv")]) == 0
    spans = sorted(reads)
    assert len(spans) == len(bench_manifest)
    reads.clear()
    assert main(["micstudy", bench_dir, "--sizes", "2,8", "--trials", "2", "--folds", "3",
                 "--out", str(tmp_path / "m.csv")]) == 0
    assert sorted(reads) == sorted(spans * 3)  # two trials of m=2, one of m=8
    for path, start, stop in spans:
        assert stop is not None and stop - start < load_wav(path).n_samples
    capsys.readouterr()


def test_doa_reads_only_its_window(tmp_path, front_wav, monkeypatch, capsys):
    from earshot import cli

    wav, gj = front_wav
    reads = []

    def spy(path, start=0, stop=None):
        reads.append((start, stop))
        return load_wav(path, start, stop)

    monkeypatch.setattr(cli, "load_wav", spy)
    assert main(["doa", str(wav), str(gj), "--out", str(tmp_path / "a.csv")]) == 0
    assert main(["doa", str(wav), str(gj), "--window", "0.5", "--out", str(tmp_path / "b.csv")]) == 0
    assert reads == [(57600 - 48000, 57600), (57600 - 24000, 57600)]  # a 1.2 s clip at 48 kHz
    reads.clear()
    assert_exit_4(["doa", str(wav), str(gj), "--window", "30"], capsys,
                  "cannot take trailing 30.0 s from a 1.200 s clip")
    assert reads == [(0, 57600)]


def test_extract_and_micstudy_name_both_files_on_a_mic_count_mismatch(tmp_path, bench_manifest,
                                                                      capsys):
    """A row whose geometry holds 4 microphones for an 8-channel WAV: exit 4
    with one `earshot: error:` line naming the WAV and the geometry."""
    four = tmp_path / "four.json"
    save_geometry(random_planar_array(4, seed=2), four)
    entries = list(bench_manifest)
    entries[3] = replace(entries[3], geometry=str(four))
    manifest = tmp_path / "manifest.csv"
    save_manifest(RecordingManifest(entries), manifest)
    message = f"{entries[3].wav} has 8 channels but {four} has 4 microphones"
    assert_exit_4(["extract", str(manifest), "--out", str(tmp_path / "f.csv")], capsys, message)
    assert_exit_4(["micstudy", str(manifest), "--sizes", "2,4", "--folds", "3"], capsys, message)
    assert not (tmp_path / "f.csv").exists()


def test_doa_and_predict_name_both_files_on_a_mic_count_mismatch(tmp_path, arts, front_wav,
                                                                 capsys):
    """A 6-channel WAV with an 8-microphone geometry: exit 4 with one
    `earshot: error:` line naming the WAV and the geometry."""
    wav, _ = front_wav
    eight = tmp_path / "eight.json"
    save_geometry(random_planar_array(8, seed=2), eight)
    message = f"{wav} has 6 channels but {eight} has 8 microphones"
    assert_exit_4(["doa", str(wav), str(eight)], capsys, message)
    assert_exit_4(["predict", str(wav), str(eight), "--model", str(arts["model"])], capsys,
                  message)


def test_micstudy_checks_every_size_before_extracting(bench_dir, monkeypatch, capsys):
    """A size beyond the array exits 4 before the valid sizes ahead of it are
    extracted and cross-validated."""
    from earshot import evaluate

    calls = []
    monkeypatch.setattr(evaluate, "extract_manifest", lambda *args: calls.append(args))
    assert_exit_4(["micstudy", str(bench_dir), "--sizes", "2,4,8,9"], capsys,
                  "subset size 9 outside [2, 8]")
    assert calls == []


@pytest.mark.parametrize("flags,cfg", [
    ([], PipelineConfig()),
    (["--segments", "3"], PipelineConfig(segments=3)),
    (["--bins", "12", "--window", "0.5", "--fmax", "900"],
     PipelineConfig(bins=12, sample_len=0.5, f_max=900.0)),
])
def test_doa_map_equals_the_direct_chain_bit_for_bit(tmp_path, front_wav, capsys, flags, cfg):
    """`doa` goes through extract_feature with one segment; its energies are
    the old trailing -> stft -> band_select -> srp_phat chain, bit for bit,
    whatever --segments says."""
    wav, gj = front_wav
    out = tmp_path / "map.csv"
    assert main(["doa", str(wav), str(gj), "--out", str(out), *flags]) == 0
    _, rows = read_rows(out)
    window = load_wav(wav).trailing(cfg.sample_len)
    stack = band_select(stft(window, cfg.frame_len, cfg.hop), cfg.f_min, cfg.f_max)
    want = srp_phat(stack, load_geometry(gj), cfg.grid)
    assert [r["azimuth_deg"] for r in rows] == [repr(float(c)) for c in cfg.grid.bin_centers]
    assert [r["energy"] for r in rows] == [repr(float(e)) for e in want.energies]
    capsys.readouterr()


def assert_exit_4(argv, capsys, message):
    """Exit 4 with one `earshot: error:` line naming the fault, no traceback."""
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("earshot: error:") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("case", sorted(MODEL_EDITS))
def test_predict_exits_4_on_hand_edited_model(tmp_path, arts, front_wav, capsys, case):
    wav, gj = front_wav
    bad = tmp_path / f"{case}.json"
    message = write_edited_model(arts["model"], bad, case)
    assert_exit_4(["predict", str(wav), str(gj), "--model", str(bad)], capsys, message)


@pytest.mark.parametrize("case", sorted(CACHE_EDITS))
def test_train_and_eval_exit_4_on_hand_edited_cache(tmp_path, arts, capsys, case):
    bad = tmp_path / f"{case}.csv"
    message = write_edited_cache(arts["features"], bad, case)
    assert_exit_4(["train", str(bad), "--out", str(tmp_path / "m.json")], capsys, message)
    assert_exit_4(["eval", str(bad), "--out", str(tmp_path / "r.json")], capsys, message)
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("case", sorted(MANIFEST_EDITS))
def test_extract_exits_4_on_hand_edited_manifest(tmp_path, bench_dir, capsys, case):
    bad = tmp_path / f"{case}.csv"
    message = write_edited_manifest(bench_dir, bad, case)
    assert_exit_4(["extract", str(bad), "--out", str(tmp_path / "f.csv")], capsys, message)
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("case", sorted(GEOMETRY_EDITS))
def test_doa_and_extract_exit_4_on_hand_edited_geometry(tmp_path, front_wav, bench_manifest,
                                                         capsys, case):
    """Exit 4 with one `earshot: error:` line that starts with the geometry
    file's path, no traceback."""
    wav, gj = front_wav
    bad = tmp_path / f"{case}.json"
    message = write_edited_geometry(gj, bad, case)
    manifest = tmp_path / "manifest.csv"
    entries = [replace(e, geometry=str(bad)) for e in list(bench_manifest)[:2]]
    save_manifest(RecordingManifest(entries), manifest)
    for argv in (["doa", str(wav), str(bad)],
                 ["extract", str(manifest), "--out", str(tmp_path / "f.csv")]):
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"earshot: error: {bad}: ") and err.count("\n") == 1
        assert message in err and "Traceback" not in err
    assert not (tmp_path / "f.csv").exists()


def test_every_cli_csv_reads_back_with_its_provenance(tmp_path, arts, bench_dir,
                                                      bench_manifest, front_wav, capsys):
    """Each CSV the CLI writes parses through read_csv, under a preamble whose
    run_config matches its run_config_hash, with its header and one field
    per column on every row."""
    wav, gj = front_wav
    entry = next(e for e in bench_manifest if e.situation == "right")
    d = tmp_path
    assert main(["simulate", "--out", str(d / "sim"), "--per-class", "1", "--mics", "4"]) == 0
    assert main(["eval", str(arts["features"]), "--out", str(d / "r.json"),
                 "--csv", str(d / "metrics.csv"), "--folds", "3"]) == 0
    assert main(["predict", str(entry.wav), str(entry.geometry), "--model", str(arts["model"]),
                 "--situation", "right", "--t0", repr(entry.t0), "--out", str(d / "w.csv")]) == 0
    assert main(["doa", str(wav), str(gj), "--out", str(d / "doa.csv")]) == 0
    assert main(["micstudy", str(bench_dir), "--sizes", "8", "--folds", "3",
                 "--out", str(d / "mics.csv")]) == 0
    capsys.readouterr()
    headers = {
        arts["features"]: ["recording_id", "label", "env", "motion", "t_e"]
                          + [f"x_{i}" for i in range(PipelineConfig().feature_dim)],
        d / "sim" / "manifest.csv": ["wav", "geometry", "situation", "environment", "motion",
                                     "t0", "tau0"],
        d / "metrics.csv": ["metric", "value"],
        d / "w.csv": ["t_e", "p_left", "p_front", "p_right", "p_none", "label_pred",
                      "label_true_accepted"],
        d / "doa.csv": ["azimuth_deg", "energy"],
        d / "mics.csv": ["m", "trials", "best", "mean", "std"],
    }
    for path, header in headers.items():
        preamble, rows = read_csv(path)
        run_config = json.loads(preamble["run_config"][1])
        assert preamble["run_config_hash"][1] == config_hash(run_config), path
        assert rows[0][1] == header, path
        assert len(rows) > 1 and all(len(fields) == len(header) for _, fields in rows), path


@pytest.mark.parametrize("stride", ["1e-9", "2e-05"])
def test_predict_refuses_a_stride_below_one_sample_before_reading(arts, front_wav, monkeypatch,
                                                                  capsys, stride):
    """A stride under one sample (1/48000 s here) exits 2 with one line naming
    the stride and the rate, before the recording's samples are read."""
    wav, gj = front_wav
    reads = []
    monkeypatch.setattr(cli, "load_wav", lambda *a, **k: reads.append(a))
    assert main(["predict", str(wav), str(gj), "--model", str(arts["model"]),
                 "--stride", stride]) == 2
    assert capsys.readouterr().err == (f"earshot: error: stride {float(stride)} s is shorter "
                                       "than one sample at 48000 Hz\n")
    assert reads == []


def test_a_non_finite_sample_names_its_recording_and_window(tmp_path, arts, capsys):
    """One NaN in one recording of a float32 corpus: extract, micstudy and
    predict exit 4 with one line naming that WAV and the failing window's t_e."""
    assert main(["simulate", "--out", str(tmp_path), "--per-class", "2", "--mics", "4",
                 "--encoding", "float32", "--seed", "3"]) == 0
    manifest = tmp_path / "manifest.csv"
    entries = list(load_manifest(manifest))
    bad = next(e for e in entries if e.situation == "right")
    rate, n_frames = wav_frames(bad.wav)
    frame = round(bad.t0 * rate) - rate // 2  # mid-way through the window that ends at t0
    data = bytearray(Path(bad.wav).read_bytes())
    assert data[36:40] == b"data"  # a plain 44-byte header
    at = 44 + (frame * 4 + 1) * 4  # channel 1
    data[at:at + 4] = np.float32(np.nan).tobytes()
    Path(bad.wav).write_bytes(bytes(data))
    capsys.readouterr()

    message = f"{bad.wav}: window ending at t_e {bad.t0:.3f} s: feature energies must be finite"
    assert_exit_4(["extract", str(manifest), "--out", str(tmp_path / "f.csv")], capsys, message)
    assert_exit_4(["micstudy", str(manifest), "--sizes", "4", "--trials", "1", "--folds", "2"],
                  capsys, message)
    assert not (tmp_path / "f.csv").exists()

    # the first window whose STFT frames reach the sample: 45 frames of 2048
    # at a hop of 1024 cover the first 47,104 of a window's 48,000 samples
    t_e = next(t for t in window_times(n_frames / rate, 1.0, 0.1)
               if round(t * rate) - rate + 47104 > frame)
    assert_exit_4(["predict", bad.wav, bad.geometry, "--model", str(arts["model"])], capsys,
                  f"{bad.wav}: window ending at t_e {t_e:.3f} s: feature energies must be finite")


def test_a_second_call_builds_no_parser(monkeypatch, capsys):
    """The parser is built once per process: the second call constructs none."""
    argv = ["train", "f.csv", "--out", "m.json", "--lambda", "0"]
    assert main(argv) == 2
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(argv) == 2
    assert built == []
    # the spy does see a build: the shared flags, the program and seven commands
    assert build_parser.__wrapped__() is not build_parser()
    assert len(built) == 9
    capsys.readouterr()


COMMAND_LINES = {
    "doa": ["doa", "a.wav", "g.json"],
    "extract": ["extract", "m.csv", "--out", "f.csv"],
    "train": ["train", "f.csv", "--out", "m.json"],
    "predict": ["predict", "a.wav", "g.json", "--model", "m.json"],
    "eval": ["eval", "f.csv", "--out", "r.json"],
    "simulate": ["simulate", "--out", "sim"],
    "micstudy": ["micstudy", "m.csv"],
}


@pytest.mark.parametrize("name", sorted(COMMAND_LINES))
def test_main_runs_the_command_named_on_the_command_line(monkeypatch, name):
    ran = []
    for command in cli._COMMANDS:
        monkeypatch.setitem(cli._COMMANDS, command,
                            lambda args, run, command=command: ran.append(command) or 0)
    assert main(COMMAND_LINES[name] + ["--seed", "7"]) == 0
    assert ran == [name]


SHARED_OPTIONS = {"-h", "--help", "--config", "--seed", "--lambda", "--window", "--segments",
                  "--bins", "--fmin", "--fmax", "--frame", "--hop", "--augment", "--folds",
                  "--baseline", "--alpha-th", "--stride"}
COMMAND_OPTIONS = {
    "doa": {"--out"},
    "extract": {"--out"},
    "train": {"--out"},
    "predict": {"--model", "--situation", "--t0", "--out"},
    "eval": {"--out", "--csv"},
    "simulate": {"--out", "--per-class", "--env", "--mics", "--encoding"},
    "micstudy": {"--sizes", "--trials", "--out"},
}


def test_each_command_accepts_its_fixed_option_strings():
    [commands] = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(COMMAND_OPTIONS)
    for name, parser in commands.choices.items():
        assert set(parser._option_string_actions) == SHARED_OPTIONS | COMMAND_OPTIONS[name], name
