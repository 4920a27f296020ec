"""Byte edits of the committed fixture checkpoints: a truncation, a flipped
byte or a repeated blob either loads exactly the arrays the edited bytes
hold, or raises ``CheckpointError`` whose message starts with the path.

The fixtures are read, never written; each edited copy goes to a scratch
file of its own."""

import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mitoscope import network as net

FIXTURES = Path(__file__).resolve().parent.parent / "benchmarks" / "fixtures"
NAMES = ("sup.ckpt", "unsup.ckpt")


def blob_spans(data: bytes) -> list:
    """(name, blob start, payload start, blob end) of every blob of a clean
    checkpoint, in file order."""
    pos = data.index(b"\n\n") + 2
    spans = []
    while pos < len(data):
        (name_len,) = struct.unpack_from("<I", data, pos)
        name = data[pos + 4:pos + 4 + name_len].decode()
        (ndim,) = struct.unpack_from("<I", data, pos + 4 + name_len)
        shape = struct.unpack_from(f"<{ndim}I", data, pos + 8 + name_len)
        payload = pos + 8 + name_len + 4 * ndim
        end = payload + 8 * int(np.prod(shape))
        spans.append((name, pos, payload, end))
        pos = end
    return spans


CLEAN = {name: (FIXTURES / name).read_bytes() for name in NAMES}
SPANS = {name: blob_spans(data) for name, data in CLEAN.items()}
# every byte outside the float payloads: magic, header and blob heads
STRUCTURE = {name: list(range(SPANS[name][0][1])) + [
    i for _, start, payload, _ in SPANS[name] for i in range(start, payload)]
    for name in NAMES}


def payload_arrays(data: bytes, spans) -> dict:
    """The arrays a checkpoint with the clean file's blob layout holds."""
    out = {}
    for name, _, payload, end in spans:
        out[name] = np.frombuffer(data[payload:end], dtype="<f8")
    return out


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "edited.ckpt"


def check_edit(path: Path, edited: bytes, expect: dict | None) -> None:
    """Load ``edited`` from ``path``: it must raise a CheckpointError that
    starts with the path or, when ``expect`` is given, load exactly those
    arrays."""
    path.write_bytes(edited)
    try:
        model = net.load_checkpoint(path)
    except net.CheckpointError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)
        return
    assert expect is not None, "edited checkpoint loaded"
    loaded = dict(model.named_params())
    assert loaded.keys() == expect.keys()
    for name, arr in loaded.items():
        assert arr.tobytes() == expect[name].tobytes(), name


def test_blob_map_matches_clean_load(scratch):
    # the oracle of the edits below: the test's own parse of each blob
    for name in NAMES:
        check_edit(scratch, CLEAN[name], payload_arrays(CLEAN[name], SPANS[name]))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(NAMES), st.floats(0.0, 1.0, exclude_max=True))
def test_truncation(scratch, name, frac):
    data = CLEAN[name]
    check_edit(scratch, data[:int(frac * len(data))], None)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(NAMES), st.booleans(), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 255))
def test_flipped_byte(scratch, name, in_structure, draw, mask):
    data = bytearray(CLEAN[name])
    offsets = STRUCTURE[name]
    pos = offsets[draw % len(offsets)] if in_structure else draw % len(data)
    data[pos] ^= mask
    # a flip inside a payload changes one float and nothing else; outside
    # one, the file either fails or loads the clean arrays
    check_edit(scratch, bytes(data), payload_arrays(bytes(data), SPANS[name]))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(NAMES), st.integers(0, 2 ** 16), st.integers(0, 2 ** 16))
def test_repeated_blob(scratch, name, which, where):
    data, spans = CLEAN[name], SPANS[name]
    _, start, _, end = spans[which % len(spans)]
    cut = ([s for _, s, _, _ in spans] + [len(data)])[where % (len(spans) + 1)]
    check_edit(scratch, data[:cut] + data[start:end] + data[cut:], None)
