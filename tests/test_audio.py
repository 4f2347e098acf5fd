"""WAV container round trips, window closed forms, clip and geometry types."""

import json
import struct
import tempfile
import tracemalloc
import uuid
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from earshot import audio
from earshot.audio import (
    ArrayGeometry,
    AudioClip,
    EmptyStreamError,
    UnsupportedEncodingError,
    WavError,
    WavFormatError,
    load_geometry,
    load_wav,
    wav_frames,
    write_wav,
)
from earshot.cli import main
from earshot.synth import random_planar_array
from earshot.util import save_json
from synthref import hann_window, render_plane_wave

EXTENSIBLE = 0xFFFE
ENCODINGS = {"pcm16": (1, 16), "pcm24": (1, 24), "float32": (3, 32)}


def sub_format(code, tail="-0000-0010-8000-00aa00389b71"):
    """On-disk bytes of a WAVE_FORMAT_EXTENSIBLE sub-format GUID."""
    return uuid.UUID(f"{code:08x}{tail}").bytes_le


def build_wav(fmt_tag, channels, rate, bits, payload, junk_before=False, guid=None,
              block_align=None):
    """Assemble raw RIFF bytes for the reader tests.

    With a guid the fmt chunk is the 40-byte WAVE_FORMAT_EXTENSIBLE form and
    fmt_tag should be 0xFFFE.  block_align defaults to the packed frame size.
    """
    if block_align is None:
        block_align = channels * bits // 8
    fmt = struct.pack("<HHIIHH", fmt_tag, channels, rate,
                      rate * block_align, block_align, bits)
    if guid is not None:
        fmt += struct.pack("<HHI", 22, bits, (1 << channels) - 1) + guid
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


def reference_decode(payload, fmt_tag, channels, bits):
    """The padded-uint8 decoder load_wav used before its one-pass decode.

    Returns the (channels, frames) samples, or None when no whole frame fits.
    """
    if fmt_tag == 1 and bits == 16:
        raw = np.frombuffer(payload[: len(payload) - len(payload) % 2], dtype="<i2")
        values = raw.astype(np.float64) / 32768.0
    elif fmt_tag == 1 and bits == 24:
        usable = len(payload) - len(payload) % 3
        raw = np.frombuffer(payload[:usable], dtype=np.uint8).reshape(-1, 3)
        padded = np.zeros((raw.shape[0], 4), dtype=np.uint8)
        padded[:, 1:] = raw
        values = (padded.view("<i4").ravel() >> 8).astype(np.float64) / 8388608.0
    else:
        raw = np.frombuffer(payload[: len(payload) - len(payload) % 4], dtype="<f4")
        with np.errstate(invalid="ignore"):  # signalling NaNs cast to NaN
            values = raw.astype(np.float64)
    n_frames = values.size // channels
    if n_frames == 0:
        return None
    return values[: n_frames * channels].reshape(n_frames, channels).T.copy()


def assert_same_samples(got, want):
    """Bit for bit, as a C-ordered float64 array (a strided result fails)."""
    assert got.dtype == np.float64
    assert got.flags.c_contiguous
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def payload_for(encoding, channels, frames, rng):
    """Interleaved samples with both full-scale codes in the first frames."""
    if encoding == "float32":
        values = rng.uniform(-1.0, 1.0, size=channels * frames)
        values[:3] = [1.0, -1.0, -0.0]
        return values.astype("<f4").tobytes()
    top = 0x7FFF if encoding == "pcm16" else 0x7FFFFF
    codes = rng.integers(-top - 1, top + 1, size=channels * frames)
    codes[:2] = [top, -top - 1]
    if encoding == "pcm16":
        return codes.astype("<i2").tobytes()
    return pcm24_bytes(codes)


@pytest.mark.parametrize("ragged", [False, True])
@pytest.mark.parametrize("channels", [1, 2, 8, 9])
@pytest.mark.parametrize("encoding", sorted(ENCODINGS))
def test_load_wav_matches_reference_decoder(tmp_path, encoding, channels, ragged):
    """The one-pass decode equals the old one; a ragged chunk ends in a partial
    frame (channels - 1 whole samples) and a stray partial sample."""
    fmt_tag, bits = ENCODINGS[encoding]
    width = bits // 8
    payload = payload_for(encoding, channels, 37, np.random.default_rng(channels))
    if ragged:
        payload += bytes(range(1, (channels - 1) * width + width))
    path = tmp_path / "x.wav"
    path.write_bytes(build_wav(fmt_tag, channels, 48000, bits, payload))
    clip = load_wav(path)
    want = reference_decode(payload, fmt_tag, channels, bits)
    assert clip.n_samples == 37
    assert np.array_equal(clip.samples, want)
    assert_same_samples(clip.samples, want)
    if encoding != "float32":
        assert clip.samples.max() == 1.0 - 2.0 ** (1 - bits)
        assert clip.samples.min() == -1.0


@settings(max_examples=150, deadline=None)
@given(
    encoding=st.sampled_from(sorted(ENCODINGS)),
    channels=st.integers(1, 9),
    payload=st.binary(max_size=400),
    extensible=st.booleans(),
)
def test_load_wav_matches_reference_on_arbitrary_payloads(encoding, channels, payload,
                                                          extensible):
    fmt_tag, bits = ENCODINGS[encoding]
    if extensible:
        raw = build_wav(EXTENSIBLE, channels, 8000, bits, payload, guid=sub_format(fmt_tag))
    else:
        raw = build_wav(fmt_tag, channels, 8000, bits, payload)
    want = reference_decode(payload, fmt_tag, channels, bits)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.wav"
        path.write_bytes(raw)
        if want is None:
            with pytest.raises(EmptyStreamError):
                load_wav(path)
        else:
            assert_same_samples(load_wav(path).samples, want)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    encoding=st.sampled_from(sorted(ENCODINGS)),
    channels=st.integers(1, 9),
    extensible=st.booleans(),
)
def test_ranged_load_equals_columns_of_the_whole_file(data, encoding, channels, extensible):
    """Frames [a, b) hold the bytes of the same columns of the whole file; the
    payload may end in a partial frame or a stray partial sample."""
    fmt_tag, bits = ENCODINGS[encoding]
    frame_bytes = channels * bits // 8
    payload = data.draw(st.binary(min_size=frame_bytes, max_size=400))
    if extensible:
        raw = build_wav(EXTENSIBLE, channels, 8000, bits, payload, guid=sub_format(fmt_tag))
    else:
        raw = build_wav(fmt_tag, channels, 8000, bits, payload)
    n_frames = len(payload) // frame_bytes
    a = data.draw(st.integers(0, n_frames - 1), label="start")
    b = data.draw(st.integers(a + 1, n_frames), label="stop")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.wav"
        path.write_bytes(raw)
        whole = load_wav(path)
        assert whole.n_samples == n_frames
        assert wav_frames(path) == (8000, n_frames)
        part = load_wav(path, a, b)
        assert part.sample_rate == 8000
        assert_same_samples(part.samples, np.ascontiguousarray(whole.samples[:, a:b]))
        assert_same_samples(load_wav(path, a).samples,
                            np.ascontiguousarray(whole.samples[:, a:]))


def test_truncated_data_chunk_fails_for_every_range(tmp_path):
    """The header declares more data than the file holds: every read fails,
    a range that lies wholly inside the bytes present included."""
    payload = payload_for("pcm24", 2, 37, np.random.default_rng(5))
    path = tmp_path / "trunc.wav"
    path.write_bytes(build_wav(1, 2, 48000, 24, payload)[:-5])
    for start, stop in [(0, None), (0, 1), (3, 10), (30, 37), (36, None)]:
        with pytest.raises(WavFormatError, match="truncated file while reading data chunk"):
            load_wav(path, start, stop)
    with pytest.raises(WavFormatError, match="truncated"):
        wav_frames(path)


def test_bad_frame_ranges_raise_value_error(tmp_path):
    path = tmp_path / "x.wav"
    payload = payload_for("pcm16", 3, 20, np.random.default_rng(1))
    path.write_bytes(build_wav(1, 3, 16000, 16, payload))
    for start, stop in [(0, 0), (5, 5), (6, 5), (-1, 4), (0, 21), (20, None), (25, 30)]:
        with pytest.raises(ValueError, match="frame range"):
            load_wav(path, start, stop)
    assert load_wav(path, 19).n_samples == 1
    assert load_wav(path, 0, 20).n_samples == 20


def test_wav_frames_shares_the_header_checks(tmp_path):
    path = tmp_path / "x.wav"
    path.write_bytes(build_wav(EXTENSIBLE, 8, 44100, 32, bytes(8 * 4 * 11 + 5),
                               junk_before=True, guid=sub_format(3)))
    assert wav_frames(path) == (44100, 11)
    path.write_bytes(build_wav(1, 2, 8000, 24, b""))
    with pytest.raises(EmptyStreamError):
        wav_frames(path)
    path.write_bytes(build_wav(1, 1, 8000, 8, b"\x80\x80"))
    with pytest.raises(UnsupportedEncodingError):
        wav_frames(path)
    path.write_bytes(b"OggS" + b"\x00" * 40)
    with pytest.raises(WavFormatError):
        wav_frames(path)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), channels=st.integers(1, 9), frames=st.integers(1, 80))
def test_write_load_round_trips(data, channels, frames):
    """float32 is bit-exact; pcm24 is within half a step, 2**-24.  Full scale
    +1.0 clips to 1 - 2**-23 and is covered by the packing edge test."""
    shape = (channels, frames)
    exact = data.draw(arrays(np.float32, shape, elements=st.floats(-1.0, 1.0, width=32)))
    quantized = data.draw(arrays(np.float64, shape,
                                 elements=st.floats(-1.0, 1.0 - 2.0**-24)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.wav"
        write_wav(AudioClip(exact.astype(np.float64), 48000), path, encoding="float32")
        back = load_wav(path)
        assert back.samples.flags.c_contiguous
        assert np.array_equal(back.samples, exact.astype(np.float64))
        write_wav(AudioClip(quantized, 48000), path, encoding="pcm24")
        back = load_wav(path)
        assert back.samples.shape == shape
        assert np.max(np.abs(back.samples - quantized)) <= 2.0**-24


@pytest.mark.parametrize("encoding", ["pcm24", "float32"])
def test_extensible_file_loads_like_its_plain_twin(tmp_path, encoding):
    rng = np.random.default_rng(8)
    clip = AudioClip(rng.uniform(-0.9, 0.9, size=(8, 301)), 48000)
    plain = tmp_path / "plain.wav"
    write_wav(clip, plain, encoding=encoding)
    fmt_tag, bits = ENCODINGS[encoding]
    payload = plain.read_bytes()[44:44 + 8 * 301 * bits // 8]
    extensible = tmp_path / "ext.wav"
    extensible.write_bytes(build_wav(EXTENSIBLE, 8, 48000, bits, payload,
                                     guid=sub_format(fmt_tag)))
    want = load_wav(plain)
    got = load_wav(extensible)
    assert got.sample_rate == 48000
    assert_same_samples(got.samples, want.samples)


def test_extensible_rejects_unknown_sub_formats(tmp_path):
    payload = pcm24_bytes([1, 2, 3, 4])
    path = tmp_path / "x.wav"
    odd_tail = "-0000-0010-8000-00aa00389b72"
    for guid in (sub_format(2), sub_format(0x10001), sub_format(1, odd_tail), bytes(16)):
        path.write_bytes(build_wav(EXTENSIBLE, 2, 8000, 24, payload, guid=guid))
        with pytest.raises(UnsupportedEncodingError):
            load_wav(path)
    # a fmt chunk too short to hold the sub-format is malformed, not unsupported
    path.write_bytes(build_wav(EXTENSIBLE, 2, 8000, 24, payload))
    with pytest.raises(WavFormatError):
        load_wav(path)


@pytest.mark.parametrize("extensible", [False, True], ids=["plain", "extensible"])
@pytest.mark.parametrize("encoding,channels,block_align", [
    ("pcm24", 2, 8),  # 24-bit samples in 4-byte slots
    ("pcm24", 2, 4),
    ("pcm24", 1, 4),
    ("pcm16", 2, 2),
    ("float32", 2, 6),
    ("float32", 1, 0),
])
def test_block_align_must_be_the_packed_frame_size(tmp_path, encoding, channels, block_align,
                                                   extensible):
    """A header whose block_align is not channels x bytes per sample is
    refused by load_wav and wav_frames alike, however long the payload."""
    fmt_tag, bits = ENCODINGS[encoding]
    payload = bytes(range(48)) * 8
    guid = sub_format(fmt_tag) if extensible else None
    tag = EXTENSIBLE if extensible else fmt_tag
    path = tmp_path / "x.wav"
    path.write_bytes(build_wav(tag, channels, 8000, bits, payload, guid=guid,
                               block_align=block_align))
    for read in (load_wav, wav_frames):
        with pytest.raises(WavFormatError, match=f"block_align {block_align} is not"):
            read(path)
    # the packed twin loads
    path.write_bytes(build_wav(tag, channels, 8000, bits, payload, guid=guid))
    assert load_wav(path).samples.shape == (channels, len(payload) // (channels * bits // 8))


def test_doa_reads_extensible_pcm24(tmp_path, capsys):
    """`earshot doa` on an 8-channel extensible pcm24 file exits 0 and maps it
    exactly as it maps the plain pcm24 twin."""
    geom = random_planar_array(8, seed=2)
    samples = render_plane_wave(geom, 30.0, duration=1.2, fs=48000, seed=4)
    plain = tmp_path / "plain.wav"
    write_wav(AudioClip(0.5 * samples / np.max(np.abs(samples)), 48000), plain)
    extensible = tmp_path / "ext.wav"
    payload = plain.read_bytes()[44:]
    extensible.write_bytes(build_wav(EXTENSIBLE, 8, 48000, 24, payload, guid=sub_format(1)))
    gj = tmp_path / "geom.json"
    save_json(geom, gj)
    maps = []
    for wav in (plain, extensible):
        out = tmp_path / f"{wav.stem}.csv"
        assert main(["doa", str(wav), str(gj), "--out", str(out)]) == 0
        maps.append(out.read_text())
    assert maps[0] == maps[1]
    capsys.readouterr()


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


@pytest.mark.parametrize("extensible", [False, True])
def test_float32_signalling_nan_loads_as_nan_without_a_warning(tmp_path, extensible):
    bits = np.array([0x7FA00000, 0xFFA00001, 0x7FC00000, 0x3F000000], dtype="<u4")
    guid = sub_format(3) if extensible else None
    path = tmp_path / "snan.wav"
    path.write_bytes(build_wav(EXTENSIBLE if extensible else 3, 2, 48000, 32,
                               bits.tobytes(), guid=guid))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clip = load_wav(path)
        want = reference_decode(bits.tobytes(), 3, 2, 32)
    assert np.isnan(clip.samples[:, 0]).all() and np.isnan(clip.samples[0, 1])
    assert clip.samples[1, 1] == 0.5
    assert_same_samples(clip.samples, want)


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
    assert np.shares_memory(tail.samples, clip.samples)  # a view, not a copy
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
    save_json(geom, path)
    back = load_geometry(path)
    assert np.array_equal(back.positions, geom.positions)
    assert back.speed_of_sound == 340.0

    bad = tmp_path / "bad.json"
    bad.write_text("{\"positions\": [[0,0,0]]}")
    with pytest.raises(ValueError):
        load_geometry(bad)


def _edit_payload(change):
    def apply(text):
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload)
    return apply


def _set_position(value):
    return _edit_payload(lambda p: p["positions"][0].__setitem__(0, value))


# One hand edit of a valid geometry file per way it can go wrong, and the
# text its error must hold.
GEOMETRY_EDITS = {
    "truncated": (lambda text: text[: len(text) // 2], "Expecting"),
    "not-an-object": (lambda text: "[1, 2]", "bad geometry file"),
    "no-positions": (_edit_payload(lambda p: p.pop("positions")), "lacks the key 'positions'"),
    "no-speed": (_edit_payload(lambda p: p.pop("speed_of_sound")),
                 "lacks the key 'speed_of_sound'"),
    "two-coordinates": (_edit_payload(lambda p: p.update(positions=[r[:2] for r in p["positions"]])),
                        "(M, 3)"),
    "ragged": (_edit_payload(lambda p: p["positions"][0].pop()), "bad geometry file"),
    "string-position": (_set_position("abc"), "could not convert"),
    "nan-position": (_set_position(float("nan")), "positions must be finite"),
    "infinite-position": (_set_position(float("inf")), "positions must be finite"),
    "duplicate-mic": (_edit_payload(lambda p: p["positions"].__setitem__(1, p["positions"][0])),
                      "distinct"),
    "nan-speed": (_edit_payload(lambda p: p.update(speed_of_sound=float("nan"))),
                  "finite and positive"),
    "zero-speed": (_edit_payload(lambda p: p.update(speed_of_sound=0)), "finite and positive"),
    "string-speed": (_edit_payload(lambda p: p.update(speed_of_sound="fast")), "could not convert"),
    "bool-speed": (_edit_payload(lambda p: p.update(speed_of_sound=True)),
                   "speed_of_sound: could not convert true to a number"),
    "numeric-string-speed": (_edit_payload(lambda p: p.update(speed_of_sound="343")),
                             'speed_of_sound: could not convert "343" to a number'),
    "bool-position": (_set_position(True), "positions: could not convert true to a number"),
    "numeric-string-position": (_set_position("0.1"),
                                'positions: could not convert "0.1" to a number'),
    "huge-int-speed": (_edit_payload(lambda p: p.update(speed_of_sound=10**400)),
                       "too large to convert"),
}


def write_edited_geometry(geometry_path, out_path, case):
    """Copy a geometry file with one of GEOMETRY_EDITS applied; returns the
    text its error must hold besides the copy's path."""
    edit, message = GEOMETRY_EDITS[case]
    out_path.write_text(edit(Path(geometry_path).read_text()))
    return message


@pytest.mark.parametrize("case", sorted(GEOMETRY_EDITS))
def test_load_geometry_rejects_hand_edited_files(tmp_path, case):
    good = tmp_path / "good.json"
    save_json(random_planar_array(4, seed=1), good)
    bad = tmp_path / f"{case}.json"
    message = write_edited_geometry(good, bad, case)
    with pytest.raises(ValueError) as exc:
        load_geometry(bad)
    assert str(exc.value).startswith(f"{bad}: ") and message in str(exc.value)


def test_pcm24_load_peak_stays_near_the_result(tmp_path):
    """An 8-channel pcm24 load holds the payload, the result and one
    chunk's intermediate at its peak, not a whole-span intermediate: for the
    whole file and for a ranged 2.5 s span, the read `earshot extract` makes."""
    rng = np.random.default_rng(4)
    path = tmp_path / "eight.wav"
    write_wav(AudioClip(rng.uniform(-0.9, 0.9, size=(8, 192000)), 48000), path)
    for start, stop in ((0, None), (36000, 156000)):
        tracemalloc.start()
        try:
            clip = load_wav(path, start, stop)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert clip.n_samples == (stop or 192000) - start
        assert peak < 1.6 * clip.samples.nbytes


_DECODE = audio._DECODE_FRAMES


@pytest.mark.parametrize("channels", [1, 9])
@pytest.mark.parametrize("span", [_DECODE - 1, _DECODE, _DECODE + 1, 2 * _DECODE + 1])
@pytest.mark.parametrize("start", [0, 5])
def test_pcm24_spans_across_decode_chunks_match_the_reference(tmp_path, channels, span, start):
    """A pcm24 span that ends before, on or past a decode-chunk edge holds the
    reference decoder's bits, with both full-scale codes on either side of
    every chunk edge and at both ends of the span."""
    total = start + span + 3
    rng = np.random.default_rng(span + channels)
    codes = rng.integers(-(2**23), 2**23, size=(total, channels))
    edges = {start, start + span - 1} | {start + k * _DECODE + d for k in (1, 2) for d in (-1, 0)}
    for i, frame in enumerate(sorted(f for f in edges if f < start + span)):
        codes[frame] = [-(2**23), 2**23 - 1][i % 2]
        codes[frame, 1::2] = [2**23 - 1, -(2**23)][i % 2]
    payload = codes.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    path = tmp_path / "x.wav"
    path.write_bytes(build_wav(1, channels, 48000, 24, payload))
    width = 3 * channels
    want = reference_decode(payload[start * width : (start + span) * width], 1, channels, 24)
    assert_same_samples(load_wav(path, start, start + span).samples, want)
    assert want.min() == -1.0 and want.max() == 1.0 - 2.0**-23


def one_pass_wav(samples, sample_rate, encoding):
    """The bytes write_wav wrote before it encoded in chunks: the whole
    payload packed in one pass, then the RIFF container around it."""
    if encoding == "pcm24":
        codes = np.clip(np.rint(samples.T * 8388608.0), -8388608, 8388607).astype("<i4")
        payload = codes.ravel().view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    else:
        payload = samples.T.astype("<f4").tobytes()
    fmt_tag, bits = ENCODINGS[encoding]
    return build_wav(fmt_tag, samples.shape[0], sample_rate, bits, payload)


_CHUNK = audio._WRITE_FRAMES


@settings(max_examples=40, deadline=None)
@given(
    encoding=st.sampled_from(["pcm24", "float32"]),
    channels=st.integers(1, 9),
    frames=st.one_of(st.integers(1, 40),
                     st.sampled_from([k * _CHUNK + d for k in (1, 2) for d in (-1, 0, 1)])),
    seed=st.integers(0, 2**32 - 1),
)
@example(encoding="pcm24", channels=3, frames=_CHUNK + 1, seed=0)  # odd payload: a pad byte
def test_chunked_write_equals_the_one_pass_writer(encoding, channels, frames, seed):
    """Frame counts below, on and around multiples of the chunk: the file
    holds the one-pass writer's bytes, pad byte, full scale and rounding ties
    included."""
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-1.0, 1.0, size=(channels, frames))
    flat = samples.reshape(-1)
    picks = rng.integers(0, flat.size, size=min(flat.size, 6))
    flat[picks] = [1.0, -1.0, 0.5 / 8388608, -2.5 / 8388608, 0.0, -0.0][: picks.size]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.wav"
        write_wav(AudioClip(samples, 16000), path, encoding=encoding)
        assert path.read_bytes() == one_pass_wav(samples, 16000, encoding)


@pytest.mark.parametrize("encoding", ["pcm24", "float32"])
def test_write_peak_stays_near_its_input(tmp_path, encoding):
    """Writing a stock-sized scene (7.5 s, 8 channels, 48 kHz) holds the
    input and one chunk's encoding at its peak, not a whole-clip copy."""
    samples = np.random.default_rng(6).uniform(-0.9, 0.9, size=(8, 360000))
    tracemalloc.start()
    try:
        clip = AudioClip(samples.copy(), 48000)
        write_wav(clip, tmp_path / "scene.wav", encoding=encoding)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * clip.samples.nbytes
