"""WAV container round trips, window closed forms, clip and geometry types."""

import struct

import numpy as np
import pytest

from earshot.audio import (
    ArrayGeometry,
    AudioClip,
    EmptyStreamError,
    UnsupportedEncodingError,
    WavError,
    WavFormatError,
    hann_window,
    load_geometry,
    load_wav,
    save_geometry,
    write_wav,
)


def build_wav(fmt_tag, channels, rate, bits, payload, junk_before=False):
    """Assemble raw RIFF bytes for the reader tests."""
    fmt = struct.pack("<HHIIHH", fmt_tag, channels, rate,
                      rate * channels * bits // 8, channels * bits // 8, bits)
    body = b""
    if junk_before:
        body += struct.pack("<4sI", b"LIST", 5) + b"abcde\x00"  # odd size, padded
    body += struct.pack("<4sI", b"fmt ", len(fmt)) + fmt
    body += struct.pack("<4sI", b"data", len(payload)) + payload
    if len(payload) % 2:
        body += b"\x00"
    return struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body


def pcm24_bytes(ints):
    out = bytearray()
    for v in ints:
        out += int(v & 0xFFFFFF).to_bytes(3, "little")
    return bytes(out)


def test_load_pcm24_known_bytes(tmp_path):
    """Hand-assembled 24-bit samples decode to k / 2**23 exactly."""
    codes = [0, 1, -1, 8388607, -8388608, 4194304]
    payload = pcm24_bytes(codes)
    path = tmp_path / "ref.wav"
    path.write_bytes(build_wav(1, 2, 48000, 24, payload))
    clip = load_wav(path)
    assert clip.sample_rate == 48000
    assert clip.channels == 2
    assert clip.n_samples == 3
    expected = np.array(codes, dtype=np.float64).reshape(3, 2).T / 8388608.0
    assert np.array_equal(clip.samples, expected)


def test_load_pcm16_known_bytes(tmp_path):
    payload = struct.pack("<4h", 0, 16384, -32768, 32767)
    path = tmp_path / "ref16.wav"
    path.write_bytes(build_wav(1, 1, 16000, 16, payload))
    clip = load_wav(path)
    assert np.array_equal(
        clip.samples[0], np.array([0, 16384, -32768, 32767]) / 32768.0
    )


def test_loader_skips_unknown_chunks(tmp_path):
    payload = pcm24_bytes([123, -456])
    path = tmp_path / "junk.wav"
    path.write_bytes(build_wav(1, 1, 8000, 24, payload, junk_before=True))
    clip = load_wav(path)
    assert clip.n_samples == 2
    assert clip.samples[0, 0] == 123 / 8388608.0


def test_pcm24_write_read_is_whole_file_identity(tmp_path):
    """Decoding and re-encoding 24-bit data reproduces the file byte for byte."""
    rng = np.random.default_rng(7)
    codes = rng.integers(-8388608, 8388608, size=(4, 101))
    clip = AudioClip(codes / 8388608.0, 44100)
    first = tmp_path / "a.wav"
    second = tmp_path / "b.wav"
    write_wav(clip, first, encoding="pcm24")
    write_wav(load_wav(first), second, encoding="pcm24")
    assert first.read_bytes() == second.read_bytes()


def test_pcm24_quantization_error_bound(tmp_path):
    rng = np.random.default_rng(3)
    clip = AudioClip(rng.uniform(-0.99, 0.99, size=(2, 500)), 48000)
    path = tmp_path / "q.wav"
    write_wav(clip, path, encoding="pcm24")
    back = load_wav(path)
    assert np.max(np.abs(back.samples - clip.samples)) <= 2.0 ** -23


def test_float32_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    data = rng.uniform(-1.0, 1.0, size=(3, 257)).astype(np.float32)
    clip = AudioClip(data.astype(np.float64), 96000)
    path = tmp_path / "f.wav"
    write_wav(clip, path, encoding="float32")
    back = load_wav(path)
    assert back.sample_rate == 96000
    assert np.array_equal(back.samples.astype(np.float32), data)


def test_many_channel_file(tmp_path):
    """A 56-channel array recording survives the round trip."""
    rng = np.random.default_rng(56)
    clip = AudioClip(rng.uniform(-0.5, 0.5, size=(56, 64)), 48000)
    path = tmp_path / "big.wav"
    write_wav(clip, path, encoding="float32")
    back = load_wav(path)
    assert back.channels == 56
    assert back.n_samples == 64


def test_write_rejects_out_of_range_samples(tmp_path):
    clip = AudioClip(np.array([[0.0, 1.5]]), 48000)
    with pytest.raises(ValueError, match="refusing to clip"):
        write_wav(clip, tmp_path / "x.wav")
    for bad in (np.nan, np.inf, -np.inf):
        clip = AudioClip(np.array([[0.0, bad, 0.5]]), 48000)
        for encoding in ("pcm24", "float32"):
            with pytest.raises(ValueError, match="refusing to clip"):
                write_wav(clip, tmp_path / "x.wav", encoding=encoding)
    assert not list(tmp_path.iterdir())


def test_pcm24_packing_matches_round_and_clip_at_the_edges(tmp_path):
    """Full scale, signed zero and round-half-even ties pack like np.round + np.clip."""
    k = np.arange(-6, 6, dtype=np.float64)
    values = np.concatenate([[-1.0, 1.0, -0.0, 0.0, 1.0 - 2.0**-24, -1.0 + 2.0**-24],
                             (k + 0.5) / 2.0**23, (8388606.5 - np.arange(3)) / 2.0**23])
    values = np.concatenate([values, -values[::-1]])
    clip = AudioClip(values.reshape(2, -1), 48000)  # two channels, interleaved on disk
    frames = clip.samples.T
    codes = np.clip(np.round(frames * 8388608.0), -8388608, 8388607).astype("<i4")
    expected = np.frombuffer(codes.tobytes(), dtype=np.uint8).reshape(-1, 4)[:, :3].tobytes()
    path = tmp_path / "edges.wav"
    write_wav(clip, path, encoding="pcm24")
    assert path.read_bytes()[44:44 + len(expected)] == expected
    assert codes[0, 0] == -8388608 and codes[1, 0] == 8388607  # -1.0 fits, 1.0 clips
    assert np.array_equal(load_wav(path).samples, codes.T / 8388608.0)


def test_write_rejects_unknown_encoding(tmp_path):
    clip = AudioClip(np.zeros((1, 4)), 48000)
    with pytest.raises(UnsupportedEncodingError):
        write_wav(clip, tmp_path / "x.wav", encoding="pcm8")


def test_load_error_classes(tmp_path):
    not_riff = tmp_path / "no.wav"
    not_riff.write_bytes(b"OggS" + b"\x00" * 40)
    with pytest.raises(WavFormatError):
        load_wav(not_riff)

    truncated = tmp_path / "trunc.wav"
    good = build_wav(1, 1, 8000, 24, pcm24_bytes([1, 2, 3, 4]))
    truncated.write_bytes(good[:-5])
    with pytest.raises(WavFormatError):
        load_wav(truncated)

    unsupported = tmp_path / "u8.wav"
    unsupported.write_bytes(build_wav(1, 1, 8000, 8, b"\x80\x80"))
    with pytest.raises(UnsupportedEncodingError):
        load_wav(unsupported)

    empty = tmp_path / "empty.wav"
    empty.write_bytes(build_wav(1, 2, 8000, 24, b""))
    with pytest.raises(EmptyStreamError):
        load_wav(empty)

    with pytest.raises(OSError):
        load_wav(tmp_path / "missing.wav")


def test_wav_errors_share_a_base_class():
    for cls in (WavFormatError, UnsupportedEncodingError, EmptyStreamError):
        assert issubclass(cls, WavError)


def test_hann_closed_forms():
    assert np.array_equal(hann_window(1), [1.0])
    assert np.allclose(hann_window(4), [0.0, 0.5, 1.0, 0.5], atol=1e-15)
    w8 = hann_window(8)
    assert w8[0] == 0.0
    assert abs(w8[2] - 0.5) < 1e-15
    assert abs(w8[4] - 1.0) < 1e-15
    # periodic flavor: w[k] == w[n-k] for k >= 1, and w[n/2] is the only 1
    assert np.allclose(w8[1:], w8[1:][::-1], atol=1e-15)
    with pytest.raises(ValueError):
        hann_window(0)


def test_clip_trailing_and_subset():
    samples = np.arange(12.0).reshape(3, 4)
    clip = AudioClip(samples, 2)
    tail = clip.trailing(1.0)
    assert np.array_equal(tail.samples, samples[:, 2:])
    assert clip.duration == 2.0
    sub = clip.channel_subset([2, 0])
    assert np.array_equal(sub.samples, samples[[2, 0]])
    with pytest.raises(ValueError):
        clip.trailing(5.0)
    with pytest.raises(ValueError):
        clip.channel_subset([])


def test_clip_validation():
    with pytest.raises(ValueError):
        AudioClip(np.zeros((2, 0)), 48000)
    with pytest.raises(ValueError):
        AudioClip(np.zeros((2, 4)), 0)
    mono = AudioClip(np.zeros(5), 48000)  # 1-D input promotes to one channel
    assert mono.channels == 1


def test_geometry_mirror_and_subset():
    pos = np.array([[0.4, 0.1, 0.0], [-0.4, -0.2, 0.0], [0.0, 0.3, 0.0]])
    geom = ArrayGeometry(pos)
    assert geom.n_mics == 3
    mirrored = geom.mirrored_x()
    assert np.array_equal(mirrored.positions[:, 0], -pos[:, 0])
    assert np.array_equal(mirrored.positions[:, 1:], pos[:, 1:])
    sub = geom.subset([1])
    assert sub.n_mics == 1
    with pytest.raises(ValueError):
        ArrayGeometry(np.zeros((2, 3)))  # duplicate positions
    with pytest.raises(ValueError):
        ArrayGeometry(pos, speed_of_sound=-1.0)


def test_geometry_json_round_trip(tmp_path):
    geom = ArrayGeometry(np.array([[0.1, 0.2, 0.0], [-0.3, 0.0, 0.05]]), 340.0)
    path = tmp_path / "geom.json"
    save_geometry(geom, path)
    back = load_geometry(path)
    assert np.array_equal(back.positions, geom.positions)
    assert back.speed_of_sound == 340.0

    bad = tmp_path / "bad.json"
    bad.write_text("{\"positions\": [[0,0,0]]}")
    with pytest.raises(ValueError):
        load_geometry(bad)
