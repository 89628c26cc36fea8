from __future__ import annotations

import argparse
import json

import pytest

from codedswitch import Instance, Solution, validate_instance
from codedswitch.cli import _build_parser, main
from codedswitch.solvers import CLI_NAMES, SOLVERS
from codedswitch.placement import POLICIES


def test_generate_check_solve_roundtrip(tmp_path):
    inst_path = tmp_path / "instance.json"
    sol_path = tmp_path / "solution.json"
    rc = main([
        "generate", "--policy", "cyclic", "--N", "12", "--n", "4",
        "--L", "6", "--seed", "7", "--out", str(inst_path),
    ])
    assert rc == 0
    inst = Instance.from_json(inst_path.read_text())
    validate_instance(inst)
    assert inst.placement == "cyclic" and inst.L == 6 and inst.k == 4

    assert main(["check", "--in", str(inst_path), "--conditions"]) == 0

    rc = main(["solve", "--algo", "cyclic", "--in", str(inst_path),
               "--out", str(sol_path), "--seed", "1"])
    assert rc == 0
    sol = Solution.from_json(sol_path.read_text())
    assert sol.l_star >= 1
    assert main(["check", "--in", str(inst_path), "--solution", str(sol_path)]) == 0


def test_generate_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        main(["generate", "--policy", "uniform", "--N", "9", "--n", "3",
              "--L", "4", "--k", "2", "--seed", "33", "--out", str(out)])
    assert a.read_text() == b.read_text()


def test_solve_matches_oracle_on_cyclic(tmp_path):
    from codedswitch import instance_from_starts, solve_oracle

    inst = instance_from_starts(12, 4, (11, 1, 3, 5, 7, 9), k=2)
    inst_path = tmp_path / "arcs.json"
    inst_path.write_text(inst.to_json())
    out = tmp_path / "sol.json"
    assert main(["solve", "--algo", "cyclic", "--in", str(inst_path),
                 "--out", str(out)]) == 0
    sol = Solution.from_json(out.read_text())
    assert sol.l_star == solve_oracle(inst, cap=48).l_star == 6


def test_solve_wrong_params_exit_code(tmp_path):
    inst = Instance(N=5, k=2, n=3, packets=((0, 1, 2), (1, 3, 4)))
    p = tmp_path / "i.json"
    p.write_text(inst.to_json())
    rc = main(["solve", "--algo", "k1", "--in", str(p), "--out", str(tmp_path / "s.json")])
    assert rc == 2


def test_simulate_incompatible_solver_exit_code(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"policy": "cyclic", "N": 12, "k": 3, "n": 4,
                                "L_range": [2], "trials": 10, "solver": "matching_k1"}))
    assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "r.csv")]) == 2


def _choices(cmd: str, flag: str):
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[cmd]._actions if flag in a.option_strings).choices


def test_solver_tables_are_consistent():
    assert set(_choices("solve", "--algo")) == set(CLI_NAMES)
    assert set(CLI_NAMES.values()) <= set(SOLVERS)
    assert tuple(_choices("generate", "--policy")) == tuple(_choices("analyze", "--policy")) == POLICIES


def test_manifest_written_with_hashes(tmp_path):
    out = tmp_path / "inst.json"
    main(["generate", "--policy", "cyclic", "--N", "8", "--n", "3",
          "--L", "2", "--seed", "5", "--out", str(out)])
    man = json.loads((tmp_path / "inst.json.manifest.json").read_text())
    assert man["seed"] == 5
    assert man["outputs"][0]["path"] == str(out)
    assert len(man["outputs"][0]["sha256"]) == 64
    assert man["wall_time_s"] >= 0


def test_manifest_records_entropy_seed(tmp_path):
    out = tmp_path / "inst.json"
    main(["generate", "--policy", "uniform", "--N", "6", "--n", "2",
          "--L", "2", "--out", str(out)])  # no --seed given
    man = json.loads((tmp_path / "inst.json.manifest.json").read_text())
    assert isinstance(man["seed"], int) and man["seed"] >= 0


def test_design_build_and_verify(tmp_path):
    out = tmp_path / "plane.blocks"
    assert main(["design", "build", "--kind", "plane", "--q", "2",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "7 3 2"
    assert main(["design", "verify", "--in", str(out)]) == 0


def test_design_packing_build(tmp_path):
    out = tmp_path / "packing.blocks"
    assert main(["design", "build", "--kind", "packing", "--N", "7", "--n", "3",
                 "--t-max", "1", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 8  # header + 7 blocks


def test_analyze_csv_row(capsys):
    assert main(["analyze", "--what", "pair-des", "--b", "7", "--L", "3"]) == 0
    out = capsys.readouterr().out.strip()
    value, method, stderr = out.split(",")
    assert float(value) == pytest.approx(30 / 49)
    assert method == "closed_form" and float(stderr) == 0.0


def test_analyze_pair_cyclic_default_threshold(capsys):
    assert main(["analyze", "--what", "pair-cyc", "--N", "12", "--n", "4",
                 "--k", "3", "--L", "3"]) == 0
    value = float(capsys.readouterr().out.split(",")[0])
    assert value == pytest.approx(5 / 36)


def test_analyze_pair_cyclic_single_packet(capsys):
    assert main(["analyze", "--what", "pair-cyc", "--N", "12", "--n", "4",
                 "--k", "3", "--L", "1"]) == 0
    assert capsys.readouterr().out == "1,closed_form,0\n"


@pytest.mark.parametrize("argv,line", [
    (["design", "build", "--kind", "plane", "--out", "{out}"], "--kind plane requires --q"),
    (["design", "build", "--kind", "packing", "--N", "7", "--n", "3", "--out", "{out}"],
     "--kind packing requires --N --n --t-max"),
    (["analyze", "--what", "full-tp", "--n", "3", "--k", "2", "--L", "2"],
     "--what full-tp requires --N"),
    (["analyze", "--what", "full-tp", "--policy", "design", "--N", "7", "--n", "3", "--k", "2",
      "--L", "2"], "--policy design requires --design FILE"),
])
def test_missing_options_exit_2(tmp_path, capsys, argv, line):
    out = tmp_path / "out"
    assert main([str(out) if a == "{out}" else a for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not out.exists()


def test_simulate_from_spec(tmp_path):
    spec = {
        "policy": "cyclic", "N": 12, "k": 3, "n": 4,
        "L_range": [1, 2], "trials": 500, "seed": 4, "solver": "cyclic_opt",
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "report.csv"
    assert main(["simulate", "--spec", str(spec_path), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert (tmp_path / "report.csv.manifest.json").exists()


def test_reproduce_figure_five(tmp_path):
    out = tmp_path / "fig5"
    assert main(["reproduce", "--figure", "5", "--out", str(out),
                 "--trials", "60", "--seed", "1"]) == 0
    csvs = list(out.glob("*.csv"))
    svgs = list(out.glob("*.svg"))
    assert len(csvs) == 4 and len(svgs) == 4
    assert (out / "manifest.json").exists()


def test_codec_demo_cyclic(capsys):
    assert main(["codec", "demo", "--family", "cyclic", "--k", "2", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "0101" in out and "4/4 messages recovered" in out


def test_codec_demo_mds(capsys):
    assert main(["codec", "demo", "--family", "mds", "--k", "3", "--n", "6",
                 "--B", "8"]) == 0
    assert "20/20" in capsys.readouterr().out


def test_codec_demo_mds_chunks_longer_than_256_bytes(capsys):
    assert main(["codec", "demo", "--family", "mds", "--k", "2", "--n", "4",
                 "--B", "300"]) == 0
    assert "round-trips from every k-subset: 6/6" in capsys.readouterr().out


def test_codec_encode_decode_files(tmp_path):
    payload = bytes(range(97, 97 + 30))
    src = tmp_path / "payload.bin"
    src.write_bytes(payload)
    chunks_dir = tmp_path / "chunks"
    assert main(["codec", "encode", "--family", "mds", "--k", "3", "--n", "5",
                 "--in", str(src), "--out-dir", str(chunks_dir)]) == 0
    files = sorted(chunks_dir.glob("chunk_*.bin"))
    assert len(files) == 5
    # lose two chunks: any 3 of 5 decode
    files[1].unlink()
    files[4].unlink()
    out = tmp_path / "recovered.bin"
    assert main(["codec", "decode", "--family", "mds", "--in-dir", str(chunks_dir),
                 "--out", str(out)]) == 0
    assert out.read_bytes()[: len(payload)] == payload


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--algo", "nonsense", "--in", "x.json"])
    assert exc.value.code == 2


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once per process: a usage error leaves it as it was
    def usage_error():
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--algo", "nonsense", "--in", "x.json"])
        return exc.value.code, capsys.readouterr().err

    first = usage_error()
    out = tmp_path / "inst.json"
    assert main(["generate", "--policy", "cyclic", "--N", "8", "--n", "3",
                 "--L", "2", "--seed", "5", "--out", str(out)]) == 0
    assert Instance.from_json(out.read_text()).L == 2
    capsys.readouterr()
    assert usage_error() == first
    assert first[0] == 2 and "invalid choice: 'nonsense'" in first[1]
    assert _build_parser() is _build_parser()


@pytest.mark.parametrize("argv,name,text", [
    (["solve", "--algo", "oracle", "--in", "{bad}", "--out", "{out}"], "bad.json", '{"N":5}'),
    (["check", "--in", "{ok}", "--solution", "{bad}"], "bad.json", '{"assignments": 3}'),
    (["design", "verify", "--in", "{bad}"], "bad.blocks", "7 3\n0 1 2\n"),
    (["codec", "decode", "--family", "mds", "--in-dir", "{dir}", "--out", "{out}"],
     "chunk_000.bin", "CSWC"),
])
def test_malformed_input_files_exit_1(tmp_path, capsys, argv, name, text):
    bad = tmp_path / name
    bad.write_text(text)
    ok = tmp_path / "ok.json"
    ok.write_text(Instance(N=5, k=2, n=3, packets=((0, 1, 2),)).to_json())
    subs = {"{bad}": bad, "{ok}": ok, "{out}": tmp_path / "out", "{dir}": tmp_path}
    assert main([str(subs.get(a, a)) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MalformedFile:") and err.count("\n") == 1


@pytest.mark.parametrize("text,N,n,k", [
    pytest.param("3 2 2\n0 5\n1 7\n", 3, 2, 1, id="mu-outside-N"),
    pytest.param("5 3 2\n0 1\n2 3 4\n", 5, 3, 2, id="block-shorter-than-n"),
    pytest.param("3 2 2\n0 0\n1 2\n", 3, 2, 1, id="mu-repeated"),
])
@pytest.mark.parametrize("command", ["verify", "analyze", "simulate"])
def test_design_blocks_must_match_header_exit_1(tmp_path, capsys, command, text, N, n, k):
    design = tmp_path / "bad.blocks"
    design.write_text(text)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"policy": "design", "N": N, "k": k, "n": n, "L_range": [2],
                                "trials": 10, "solver": "design_opt",
                                "design_source": str(design)}))
    argv = {
        "verify": ["design", "verify", "--in", str(design)],
        "analyze": ["analyze", "--what", "full-tp", "--policy", "design", "--design", str(design),
                    "--N", str(N), "--n", str(n), "--k", str(k), "--L", "2"],
        "simulate": ["simulate", "--spec", str(spec), "--out", str(tmp_path / "r.csv")],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MalformedFile:") and err.count("\n") == 1
    assert str(design) in err
    assert not (tmp_path / "r.csv").exists()


_SPEC = {"policy": "cyclic", "N": 12, "k": 3, "n": 4, "L_range": [1, 2], "trials": 10}


@pytest.mark.parametrize("argv", [
    ["check", "--in", "{missing}"],
    ["check", "--in", "{ok}", "--solution", "{missing}"],
    ["solve", "--algo", "oracle", "--in", "{missing}", "--out", "{out}"],
    ["solve", "--algo", "design", "--in", "{ok}", "--design", "{missing}", "--out", "{out}"],
    ["generate", "--policy", "design", "--design", "{missing}", "--N", "7", "--n", "3",
     "--L", "2", "--out", "{out}"],
    ["simulate", "--spec", "{missing}", "--out", "{out}"],
    ["design", "verify", "--in", "{missing}"],
    ["analyze", "--what", "full-tp", "--policy", "design", "--design", "{missing}",
     "--N", "7", "--n", "3", "--k", "2", "--L", "2"],
    ["codec", "encode", "--family", "mds", "--k", "2", "--n", "3", "--in", "{missing}",
     "--out-dir", "{out}"],
])
def test_missing_input_file_exit_1(tmp_path, capsys, argv):
    ok = tmp_path / "ok.json"
    ok.write_text(Instance(N=7, k=2, n=3, packets=((0, 1, 2),)).to_json())
    subs = {"{missing}": tmp_path / "missing", "{ok}": ok, "{out}": tmp_path / "out"}
    assert main([str(subs.get(a, a)) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FileNotFoundError:") and err.count("\n") == 1


@pytest.mark.parametrize("field", ["policy", "N", "k", "n", "L_range"])
def test_spec_missing_field_exit_1(tmp_path, capsys, field):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({key: v for key, v in _SPEC.items() if key != field}))
    assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MalformedFile:") and field in err and err.count("\n") == 1


def _encode_chunks(tmp_path, B="7"):
    tmp_path.mkdir(exist_ok=True)
    src = tmp_path / "payload.bin"
    src.write_bytes(bytes(range(21)))
    chunks_dir = tmp_path / "chunks"
    assert main(["codec", "encode", "--family", "mds", "--k", "3", "--n", "5", "--B", B,
                 "--in", str(src), "--out-dir", str(chunks_dir)]) == 0
    return chunks_dir


def _header_disagrees(tmp_path, chunks_dir):
    other = _encode_chunks(tmp_path / "other", B="9")
    (chunks_dir / "chunk_001.bin").write_bytes((other / "chunk_001.bin").read_bytes())


def _index_repeated(tmp_path, chunks_dir):
    (chunks_dir / "chunk_005.bin").write_bytes((chunks_dir / "chunk_002.bin").read_bytes())


def _index_past_n(tmp_path, chunks_dir):
    raw = bytearray((chunks_dir / "chunk_004.bin").read_bytes())
    raw[12] = 5  # little-endian chunk index, n = 5
    (chunks_dir / "chunk_004.bin").write_bytes(bytes(raw))


@pytest.mark.parametrize("corrupt", [_header_disagrees, _index_repeated, _index_past_n])
def test_codec_decode_rejects_inconsistent_chunk_files(tmp_path, capsys, corrupt):
    chunks_dir = _encode_chunks(tmp_path)
    corrupt(tmp_path, chunks_dir)
    capsys.readouterr()
    out = tmp_path / "recovered.bin"
    assert main(["codec", "decode", "--family", "mds", "--in-dir", str(chunks_dir),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MalformedFile:") and err.count("\n") == 1
    assert not out.exists()


def test_codec_decode_empty_dir_exit_1(tmp_path, capsys):
    out = tmp_path / "recovered.bin"
    assert main(["codec", "decode", "--family", "mds", "--in-dir", str(tmp_path),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: MalformedFile: {tmp_path}: no chunk files found\n"
    assert not out.exists()


def _encode_family(tmp_path, family):
    src = tmp_path / "payload.bin"
    src.write_bytes(bytes(i * 7 % 256 for i in range(3000)))
    chunks_dir = tmp_path / family
    assert main(["codec", "encode", "--family", family, "--k", "3", "--n", "7",
                 "--in", str(src), "--out-dir", str(chunks_dir)]) == 0
    return src, chunks_dir


@pytest.mark.parametrize("family", ["mds", "cyclic"])
def test_codec_round_trip_is_byte_exact(tmp_path, family):
    src, chunks_dir = _encode_family(tmp_path, family)
    (chunks_dir / "chunk_003.bin").unlink()  # a burst of one for the cyclic code
    out = tmp_path / "recovered.bin"
    assert main(["codec", "decode", "--family", family, "--in-dir", str(chunks_dir),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == src.read_bytes()  # k*B = 3000 bytes: no padding


@pytest.mark.parametrize("erase", [False, True])
@pytest.mark.parametrize("encoded,decoded", [("mds", "cyclic"), ("cyclic", "mds")])
def test_codec_decode_with_another_family_exit_1(tmp_path, capsys, encoded, decoded, erase):
    _, chunks_dir = _encode_family(tmp_path, encoded)
    if erase:
        (chunks_dir / "chunk_000.bin").unlink()
    out = tmp_path / "recovered.bin"
    assert main(["codec", "decode", "--family", decoded, "--in-dir", str(chunks_dir),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MalformedFile:") and "encoded as" in err
    assert not out.exists()


def test_codec_decode_takes_chunks_without_a_family(tmp_path):
    # files from before the header recorded the family have 0 in its place
    src, chunks_dir = _encode_family(tmp_path, "cyclic")
    for p in chunks_dir.glob("chunk_*.bin"):
        raw = bytearray(p.read_bytes())
        assert raw[14:16] == b"\x02\x00"  # little-endian family code: binary cyclic
        raw[14:16] = b"\x00\x00"
        p.write_bytes(bytes(raw))
    out = tmp_path / "recovered.bin"
    assert main(["codec", "decode", "--family", "cyclic", "--in-dir", str(chunks_dir),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == src.read_bytes()


def test_manifest_records_the_argv_main_ran(tmp_path):
    out = tmp_path / "inst.json"
    argv = ["generate", "--policy", "cyclic", "--N", "8", "--n", "3", "--L", "2",
            "--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    assert json.loads((tmp_path / "inst.json.manifest.json").read_text())["argv"] == argv


def test_generate_design_checks_N_and_n(tmp_path, capsys):
    plane = tmp_path / "pg23.blocks"
    assert main(["design", "build", "--kind", "plane", "--q", "3", "--out", str(plane)]) == 0
    out = tmp_path / "inst.json"
    assert main(["generate", "--policy", "design", "--design", str(plane), "--N", "7",
                 "--n", "3", "--L", "2", "--out", str(out)]) != 0
    assert not out.exists()
    assert "asked for (N=7, n=3)" in capsys.readouterr().err


def test_simulate_design_source_of_wrong_type_exit_1(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"policy": "design", "N": 7, "k": 2, "n": 3, "L_range": [2],
                                "trials": 10, "solver": "design_opt", "design_source": 5}))
    assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: BadParams:") and err.count("\n") == 1


@pytest.mark.parametrize("L_range", [[], "12", [2.7], [True], [2, "3"]])
def test_simulate_L_range_not_a_list_of_integers_exit_1(tmp_path, capsys, L_range):
    # each once ran: [] wrote a header-only report, "12" loads 1 and 2,
    # [2.7] load 2 and [true] load 1
    spec, out = tmp_path / "spec.json", tmp_path / "r.csv"
    spec.write_text(json.dumps({"policy": "cyclic", "N": 12, "k": 3, "n": 4,
                                "L_range": L_range, "trials": 10}))
    assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: BadParams: L_range") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--spec", "{spec}", "--out", "{out}", "--seed", "-3"],
    ["simulate", "--spec", "{negative}", "--out", "{out}"],
    ["reproduce", "--figure", "6", "--out", "{out}", "--seed", "-3"],
    ["generate", "--policy", "cyclic", "--N", "12", "--n", "4", "--L", "3", "--out", "{out}",
     "--seed", "-3"],
    ["solve", "--algo", "greedy", "--in", "{inst}", "--out", "{out}", "--seed", "-3"],
    ["analyze", "--what", "full-tp", "--policy", "uniform", "--N", "12", "--n", "4", "--k", "3",
     "--L", "3", "--seed", "-3"],
])
def test_negative_seed_exit_1(tmp_path, capsys, argv):
    # each once escaped numpy's "expected non-negative integer" as a traceback
    subs = {"{spec}": tmp_path / "spec.json", "{negative}": tmp_path / "negative.json",
            "{inst}": tmp_path / "inst.json", "{out}": tmp_path / "out"}
    subs["{spec}"].write_text(json.dumps(_SPEC))
    subs["{negative}"].write_text(json.dumps({**_SPEC, "seed": -1}))
    subs["{inst}"].write_text(Instance(N=5, k=2, n=3, packets=((0, 1, 2),)).to_json())
    assert main([str(subs.get(a, a)) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: BadParams:") and "seed" in err and err.count("\n") == 1
    assert not subs["{out}"].exists()


@pytest.mark.parametrize("field", ["trials", "seed"])
@pytest.mark.parametrize("value", [2.5, True, "100"])
def test_simulate_trials_and_seed_must_be_integers_exit_1(tmp_path, capsys, field, value):
    # each once ran: 2.5 as 2, true as 1 and "100" as 100
    spec, out = tmp_path / "spec.json", tmp_path / "r.csv"
    spec.write_text(json.dumps({**_SPEC, field: value}))
    assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: BadParams: {field}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("field,value", [
    ("N", 12.7), ("N", "12"), ("k", True), ("k", 3.0), ("n", "4"), ("n", 4.2),
])
def test_simulate_cell_sizes_must_be_integers_exit_1(tmp_path, capsys, field, value):
    # "N": 12.7, "k": true and "n": "4" once ran as the cell (12, 1, 4)
    spec, out = tmp_path / "spec.json", tmp_path / "r.csv"
    spec.write_text(json.dumps({**_SPEC, field: value}))
    assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: BadParams: {field} must be an integer")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "--what", "full-tp", "--policy", "cyclic", "--N", "5", "--n", "5", "--k", "2",
     "--L", "2"],
    ["simulate", "--spec", "{spec}", "--out", "{out}"],
])
def test_cell_that_no_draw_can_honour_exit_1(tmp_path, capsys, argv):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"policy": "uniform", "N": 12, "k": 5, "n": 3, "L_range": [2],
                                "trials": 10}))
    subs = {"{spec}": spec, "{out}": tmp_path / "r.csv"}
    assert main([str(subs.get(a, a)) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: BadParams:") and err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "--what", "full-tp", "--policy", "design", "--design", "{design}", "--N", "7",
     "--n", "3", "--k", "2", "--L", "2"],
    ["simulate", "--spec", "{spec}", "--out", "{out}"],
])
def test_design_without_blocks_exit_1(tmp_path, capsys, argv):
    design = tmp_path / "empty.blocks"
    design.write_text("7 3 2\n")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"policy": "design", "N": 7, "k": 2, "n": 3, "L_range": [2],
                                "trials": 10, "solver": "design_opt",
                                "design_source": str(design)}))
    subs = {"{design}": design, "{spec}": spec, "{out}": tmp_path / "r.csv"}
    assert main([str(subs.get(a, a)) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: EmptyDesign:") and err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("argv,text", [
    (["check", "--in", "{bad}"], '{"N": 1e400, "k": 2, "n": 3, "packets": []}'),
    (["check", "--in", "{bad}"], '{"N": 5, "k": 2, "n": 3, "packets": [[0, 1, 1e400]]}'),
    (["check", "--in", "{ok}", "--solution", "{bad}"], '{"assignments": [[0, 1e400]]}'),
    (["simulate", "--spec", "{bad}", "--out", "{out}"],
     '{"policy": "cyclic", "N": 1e400, "k": 2, "n": 3, "L_range": [2]}'),
])
def test_overflowing_numbers_exit_1(tmp_path, capsys, argv, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    ok = tmp_path / "ok.json"
    ok.write_text(Instance(N=5, k=2, n=3, packets=((0, 1, 2),)).to_json())
    subs = {"{bad}": bad, "{ok}": ok, "{out}": tmp_path / "out"}
    assert main([str(subs.get(a, a)) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MalformedFile:") and err.count("\n") == 1


@pytest.mark.parametrize("argv,text", [
    (["check", "--in", "{bad}"],
     '{"N": 12.7, "k": true, "n": "2", "packets": [[0.9, 1.2], [3, 4]]}'),
    (["check", "--in", "{bad}"], '{"N": 5, "k": 2, "n": 3, "packets": [[0, 1, 2.0]]}'),
    (["check", "--in", "{ok}", "--solution", "{bad}"], '{"assignments": [[1.7], null]}'),
    (["check", "--in", "{ok}", "--solution", "{bad}"], '{"assignments": [[0, 1]], "l_star": "1"}'),
    (["solve", "--algo", "oracle", "--in", "{bad}", "--out", "{out}"],
     '{"N": 5, "k": 2, "n": 3, "packets": [[0, 1, true]]}'),
])
def test_non_integer_numbers_exit_1(tmp_path, capsys, argv, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    ok = tmp_path / "ok.json"
    ok.write_text(Instance(N=5, k=2, n=3, packets=((0, 1, 2),)).to_json())
    subs = {"{bad}": bad, "{ok}": ok, "{out}": tmp_path / "out"}
    assert main([str(subs.get(a, a)) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MalformedFile:") and "must be an integer" in err
    assert err.count("\n") == 1 and not (tmp_path / "out").exists()


@pytest.mark.parametrize("rho", ['"0.25"', "true", "NaN"])
def test_declared_rho_must_be_a_number_exit_1(tmp_path, capsys, rho):
    # rho 0.25 is the true value of this solution, so only its type is at fault
    ok = tmp_path / "ok.json"
    ok.write_text(Instance(N=8, k=2, n=3, packets=((0, 1, 2),)).to_json())
    bad = tmp_path / "bad.json"
    bad.write_text(f'{{"assignments": [[0, 1]], "k": 2, "N": 8, "rho": {rho}}}')
    assert main(["check", "--in", str(ok), "--solution", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MalformedFile:") and err.count("\n") == 1
    bad.write_text('{"assignments": [[0, 1]], "k": 2, "N": 8, "rho": 0.25}')
    assert main(["check", "--in", str(ok), "--solution", str(bad)]) == 0


@pytest.mark.parametrize("argv", [
    ["check", "--in", "{bad}"],
    ["check", "--in", "{ok}", "--solution", "{bad}"],
    ["solve", "--algo", "oracle", "--in", "{bad}", "--out", "{out}"],
    ["solve", "--algo", "design", "--in", "{ok}", "--design", "{bad}", "--out", "{out}"],
    ["simulate", "--spec", "{bad}", "--out", "{out}"],
])
def test_non_utf8_input_exit_1(tmp_path, capsys, argv):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe{")
    ok = tmp_path / "ok.json"
    ok.write_text(Instance(N=7, k=2, n=3, packets=((0, 1, 2),)).to_json())
    subs = {"{bad}": bad, "{ok}": ok, "{out}": tmp_path / "out"}
    assert main([str(subs.get(a, a)) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MalformedFile:") and err.count("\n") == 1


def test_codec_encode_k0_exit_1(tmp_path, capsys):
    src = tmp_path / "payload.bin"
    src.write_bytes(b"hello")
    assert main(["codec", "encode", "--family", "mds", "--k", "0", "--n", "3",
                 "--in", str(src), "--out-dir", str(tmp_path / "chunks")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: BadConfig:") and err.count("\n") == 1


@pytest.mark.parametrize("trials", ["0", "-5"])
@pytest.mark.parametrize("argv", [
    ["--what", "cover-cyc", "--N", "30", "--n", "4", "--k", "2", "--L", "6"],
    ["--what", "full-tp", "--policy", "uniform", "--N", "12", "--n", "4", "--k", "2", "--L", "4"],
])
def test_analyze_monte_carlo_needs_a_positive_trial_count(capsys, argv, trials):
    assert main(["analyze"] + argv + ["--trials", trials]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: BadParams:") and err.count("\n") == 1


def test_analyze_cover_cyc_exact_only(capsys):
    argv = ["analyze", "--what", "cover-cyc", "--n", "4", "--k", "2", "--L", "6", "--exact-only",
            "--trials", "1000", "--seed", "1"]
    # arc 0 pinned, 5 free: C(34, 5) = 278,256 rows fit the cap at N=30,
    # C(64, 5) = 7,624,512 do not at N=60
    assert main(argv + ["--N", "30"]) == 0
    assert capsys.readouterr().out.split(",")[1:] == ["exact_enumeration", "0\n"]
    assert main(argv + ["--N", "60"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: TooLarge:") and err.count("\n") == 1


def test_analyze_full_tp_cyclic_exact_past_64_mus(capsys):
    # the value the per-row matching route gave, now from arc starts
    assert main(["analyze", "--what", "full-tp", "--policy", "cyclic", "--N", "100", "--n", "10",
                 "--k", "3", "--L", "4", "--exact-only"]) == 0
    assert capsys.readouterr().out == "0.999985,exact_enumeration,0\n"


def test_analyze_full_tp_design_beyond_the_oracle_cap(tmp_path, capsys):
    blocks = tmp_path / "packing.blocks"
    assert main(["design", "build", "--kind", "packing", "--N", "17", "--n", "5",
                 "--t-max", "2", "--out", str(blocks)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--what", "full-tp", "--policy", "design", "--design", str(blocks),
                 "--N", "17", "--n", "5", "--k", "2", "--L", "6", "--trials", "4000",
                 "--seed", "3"]) == 0
    assert capsys.readouterr().out.startswith("0.989,monte_carlo,")


def test_check_conditions_decides_hall_beyond_twenty_packets(tmp_path, capsys):
    inst = Instance(N=30, k=1, n=2, packets=tuple((i, i + 1) for i in range(25)))
    path = tmp_path / "inst.json"
    path.write_text(inst.to_json())
    assert main(["check", "--in", str(path), "--conditions"]) == 0
    assert "hall_full_throughput: True\n" in capsys.readouterr().out
