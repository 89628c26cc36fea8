"""Malformed input files never escape ``cli.main``.

Arbitrary bytes and arbitrary JSON are fed to every command that reads a
file.  The command must return an exit code of 0, 1 or 2; any exception
leaving ``main`` fails the test.
"""

from __future__ import annotations

import json
import struct

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from codedswitch import Instance
from codedswitch.cli import main

COMMANDS = {
    "instance": ["check", "--in", "{f}", "--conditions"],
    "solution": ["check", "--in", "{ok}", "--solution", "{f}"],
    "solve": ["solve", "--algo", "oracle", "--in", "{f}", "--out", "{out}"],
    "design": ["solve", "--algo", "design", "--in", "{ok}", "--design", "{f}", "--out", "{out}"],
    "spec": ["simulate", "--spec", "{f}", "--out", "{out}"],
    "chunks_mds": ["codec", "decode", "--family", "mds", "--in-dir", "{dir}", "--out", "{out}"],
    "chunks_cyclic": ["codec", "decode", "--family", "cyclic", "--in-dir", "{dir}",
                      "--out", "{out}"],
}
FIELDS = ("N", "k", "n", "L", "packets", "placement", "assignments", "l_star", "rho",
          "policy", "L_range", "trials", "seed", "solver", "design_source")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=4), inner, max_size=6),
    max_leaves=12,
)
json_texts = json_values.map(json.dumps) | st.dictionaries(
    st.sampled_from(FIELDS), json_values, max_size=len(FIELDS)).map(json.dumps)
_HEADER = struct.Struct("<4sHHIHH")
# a chunk file is arbitrary bytes, or a header with arbitrary fields whose B
# is mostly the payload length, so that the decoder itself is reached
chunk_files = st.binary(max_size=40) | st.builds(
    lambda k, n, B, index, payload: _HEADER.pack(
        b"CSWC", k, n, len(payload) if B is None else B, index, 0) + payload,
    st.integers(0, 0xFFFF), st.integers(0, 0xFFFF), st.none() | st.integers(0, 2**32 - 1),
    st.integers(0, 0xFFFF), st.binary(min_size=1, max_size=12))


def _run(tmp_path, command, files) -> int:
    ok = tmp_path / "ok.json"
    ok.write_text(Instance(N=7, k=2, n=3, packets=((0, 1, 2),)).to_json())
    chunk_dir = tmp_path / "chunks"
    chunk_dir.mkdir(exist_ok=True)
    for p in chunk_dir.glob("chunk_*.bin"):
        p.unlink()
    for i, raw in enumerate(files):
        (chunk_dir / f"chunk_{i:03d}.bin").write_bytes(raw)
    subs = {"{f}": chunk_dir / "chunk_000.bin", "{ok}": ok, "{dir}": chunk_dir,
            "{out}": tmp_path / "out"}
    return main([str(subs.get(a, a)) for a in COMMANDS[command]])


_FUZZ = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(command=st.sampled_from(["instance", "solution", "solve", "design", "spec"]),
       raw=st.binary(max_size=64) | json_texts.map(str.encode))
@example(command="instance", raw=b'{"N": 1e400, "k": 2, "n": 3, "packets": []}')
@example(command="solution", raw=b'{"assignments": [[0, 1e400]]}')
@example(command="spec", raw=b'{"policy": "design", "N": 7, "k": 2, "n": 3, "L_range": [2],'
                             b' "design_source": 5}')
@example(command="instance", raw=b"\xff\xfe")
def test_malformed_file_exit_code(tmp_path, command, raw):
    assert _run(tmp_path, command, [raw]) in (0, 1, 2)


@_FUZZ
@given(command=st.sampled_from(["chunks_mds", "chunks_cyclic"]),
       files=st.lists(chunk_files, min_size=1, max_size=3))
def test_malformed_chunk_files_exit_code(tmp_path, command, files):
    assert _run(tmp_path, command, files) in (0, 1, 2)
