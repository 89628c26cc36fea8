"""Byte-identity gate: report and figure hashes, generated instances,
probability values and encoded chunks, pinned before refactors of the draw,
solve, aggregation, figure and codec paths.

Every ``simulate`` report and ``reproduce`` artifact below must keep its
SHA-256, every ``generate`` instance its JSON, and every exact or
Monte-Carlo probability its float.  The report cells cover each policy with
each kind of solver, including an oracle-cap fallback and trials spanning
more than one batch; the design probability cells include points where the
design solver falls back to the oracle.  Encoded chunks of both codec
families, and the chunk files written by ``codec encode``, keep their SHA-256.
"""

from __future__ import annotations

import hashlib

import pytest

from codedswitch import (
    CodecConfig,
    ExperimentSpec,
    analysis,
    build_projective_plane,
    cyclic_encode,
    mds_encode,
    reproduce_figure,
    run_ensemble,
    solvers,
)
from codedswitch.cli import main
from codedswitch.placement import PlacementRng, build_lexicographic_packing

REPORT_CELLS = {
    "cyclic/cyclic_opt": (
        dict(policy="cyclic", N=12, k=3, n=4, L_range=(1, 2, 3, 4, 5, 6),
             trials=4500, seed=11, solver="cyclic_opt"),
        "613f130ef819b2121c8c30ad6d4dc118c20c814b9918d528bfe868d18adc978e"),
    # n=5: L=5, 6 exceed the oracle cap and fall back to greedy
    "cyclic/oracle": (
        dict(policy="cyclic", N=12, k=3, n=5, L_range=(1, 2, 3, 4, 5, 6),
             trials=400, seed=12, solver="oracle"),
        "eb2e8f1880aefcf9f2208f3236565bcb66fb8ae40a0626294b2b70e6025de9ad"),
    "cyclic/greedy": (
        dict(policy="cyclic", N=12, k=3, n=4, L_range=(1, 2, 3, 4, 5, 6),
             trials=400, seed=13, solver="greedy"),
        "f205a52d0acf12ae00a6f9cd2e7c9259df4fdf1ebd30c2f28bfaf67591cb6ced"),
    "cyclic/matching_k1": (
        dict(policy="cyclic", N=9, k=1, n=3, L_range=(2, 5, 8),
             trials=400, seed=14, solver="matching_k1"),
        "51512470d20ed156d2b73c6516089110eb51536a632d906f83c3bc9fa5c220c4"),
    "cyclic/matching_k2n2": (
        dict(policy="cyclic", N=8, k=2, n=2, L_range=(2, 3, 4),
             trials=400, seed=15, solver="matching_k2n2"),
        "054553b5a6ade27074935c7c6581eae079e7dc3ee541da6ae8f3d3785513f755"),
    "uniform/oracle": (
        dict(policy="uniform", N=12, k=3, n=4, L_range=(1, 2, 3, 4, 5, 6, 7),
             trials=300, seed=16, solver="oracle"),
        "20c9e5099cbf7160cfdd0a8c941d31a12ee77e2b6f7e85ddc813718a61247a5e"),
    "uniform/greedy": (
        dict(policy="uniform", N=12, k=3, n=4, L_range=(1, 2, 3, 4, 5, 6),
             trials=300, seed=17, solver="greedy"),
        "3890a783c9c64b1f3528c4f2939ec103874aef42e158e406b6998b1854e23f3c"),
    "design/design_opt": (
        dict(policy="design", N=7, k=2, n=3, L_range=(1, 2, 3),
             trials=300, seed=18, solver="design_opt",
             design_source=build_projective_plane(2)),
        "fd357750e1e36e980047bac0ec310bf5fbd45a6c70115f9fe71adcb9c75c638a"),
    # past the Hall gate (N > 64, or L > ORACLE_TABLE_MAX_L): the per-instance
    # solver runs on every row of these cells
    "uniform/oracle/N70": (
        dict(policy="uniform", N=70, k=2, n=3, L_range=(3, 4),
             trials=300, seed=19, solver="oracle"),
        "d433e39a00e963c6d12982267fb17a0cc2daa9bf3c46828ef7b351b743764ffc"),
    "uniform/oracle/L13": (
        dict(policy="uniform", N=12, k=1, n=1, L_range=(13,),
             trials=300, seed=22, solver="oracle"),
        "acde1d7f067ed6b72deba3773ee40ed0b2d280a5663d3419bba44cd252c7352e"),
    "design/design_opt/L13": (
        dict(policy="design", N=20, k=3, n=4, L_range=(13,),
             trials=300, seed=23, solver="design_opt",
             design_source=build_lexicographic_packing(20, 4, 0)),
        "54e777bbc42d089d86cf82108cff4261ac9cb98e3604788d462fddc80b752378"),
    # pinned on the per-instance solvers, which ran them up to L = 11, and
    # read from the Hall table since: the same reports
    "uniform/oracle/L12": (
        dict(policy="uniform", N=12, k=1, n=2, L_range=(12,),
             trials=300, seed=20, solver="oracle"),
        "bd5068da82b3a73d4542cf33f3c3e4c4c52ab95942575fc139192974fac98913"),
    "uniform/matching_k1/L12": (
        dict(policy="uniform", N=12, k=1, n=2, L_range=(12,),
             trials=300, seed=24, solver="matching_k1"),
        "8f356b854c0c660d22da082b4b3eb3a793933c64ad59d1f86be9d90c8849923e"),
    "uniform/matching_k2n2/L12": (
        dict(policy="uniform", N=12, k=2, n=2, L_range=(12,),
             trials=300, seed=25, solver="matching_k2n2"),
        "7bb607514fac5354e9e09840d26bdb3bb19201ad7ccbd14020617be35e464b33"),
    "design/design_opt/L12": (
        dict(policy="design", N=20, k=3, n=4, L_range=(12,),
             trials=300, seed=21, solver="design_opt",
             design_source=build_lexicographic_packing(20, 4, 0)),
        "c254fd0c40e456e9e2d12ec9b0f4ab81313c8cf3e57e0b258552fe89f0c1b86c"),
}


@pytest.mark.parametrize("cell", sorted(REPORT_CELLS))
def test_report_hash_pinned(cell):
    kw, digest = REPORT_CELLS[cell]
    csv = run_ensemble(ExperimentSpec(**kw)).to_csv_string()
    assert hashlib.sha256(csv.encode()).hexdigest() == digest


# (arguments, keyword arguments, value, method)
FULL_TP_CYCLIC = (
    ((12, 5, 2, 5), {}, 0.8043981481481481, "exact_enumeration"),
    ((13, 4, 3, 3), {}, 0.3905325443786982, "exact_enumeration"),
    ((10, 4, 3, 3), {}, 0.24, "exact_enumeration"),
    ((7, 3, 2, 1), {}, 1.0, "exact_enumeration"),
    ((9, 3, 1, 6), {}, 0.9644532506901048, "exact_enumeration"),
    ((12, 4, 3, 4), dict(cap=10, samples=5000, seed=3), 0.0546, "monte_carlo"),
    # past the Hall table's 16 packets: the value the matching route gave
    ((12, 2, 1, 12), {}, 0.032853426102584606, "exact_enumeration"),
)
COVER_CYCLIC = (
    ((12, 4, 2, 6), {}, 0.43559510030864196, "exact_enumeration"),
    ((13, 4, 3, 3), {}, 0.5680473372781065, "exact_enumeration"),
    ((9, 3, 1, 1), {}, 1.0, "exact_enumeration"),
    ((10, 3, 2, 4), dict(cap=10, samples=5000, rng=PlacementRng(4, 0)), 0.554, "monte_carlo"),
)


# figure 4's uniform coverage bounds: k = 2..7, N = k^2+k+1, n = k+1, L = 3
COVER_UNIFORM = (
    ((7, 3, 2, 3), 0.6122448979591837),
    ((13, 4, 3, 3), 0.5763215805173847),
    ((21, 5, 4, 3), 0.5775547619394169),
    ((31, 6, 5, 3), 0.5839886966031043),
    ((43, 7, 6, 3), 0.5905140059563186),
    ((57, 8, 7, 3), 0.5962252138477157),
)


@pytest.mark.parametrize("args,value", COVER_UNIFORM)
def test_cover_uniform_pinned(args, value):
    est = analysis.p_cover_uniform(*args)
    assert (est.value, est.method, est.stderr) == (value, "closed_form", 0.0)


@pytest.mark.parametrize("args,kw,value,method", FULL_TP_CYCLIC)
def test_full_tp_cyclic_pinned(args, kw, value, method):
    est = analysis.p_full_throughput_exact("cyclic", *args, **kw)
    assert (est.value, est.method) == (value, method)


@pytest.mark.parametrize("args,kw,value,method", COVER_CYCLIC)
def test_cover_cyclic_pinned(args, kw, value, method):
    est = analysis.p_cover_cyclic(*args, **kw)
    assert (est.value, est.method) == (value, method)


# figure -> (trials, {artifact file name: SHA-256}), all at seed 5
FIGURE_ARTIFACTS = {
    4: (200, {
        "figure4_full_throughput_bounds.csv": "efa08af878ecfaf0c4ea8736644d90f1b5b91388804475e1f5040ec6938d73bd",
        "figure4_full_throughput_bounds.svg": "f76a282bdbe50589c0de8f98703fe75a568208accccff819b914fe232ffbd498",
    }),
    5: (60, {
        "figure5_rho_bar_n3.csv": "4c22418b53fc72f8c86d1c395e4a7af09fb63ea5a9001507c7a85c08bebe7423",
        "figure5_rho_bar_n3.svg": "627b74bd516b2d2eb50956ceade7080f5704ffaa1c7096db55e61095806cc533",
        "figure5_rho_bar_n4.csv": "bbdd8ff3627afd7bd70ec9cb48311687bcd9a6e68efff5e5aba16945a50d51ec",
        "figure5_rho_bar_n4.svg": "06c2b38801217020a02272c466fa0feb835b90dc9edcb3e408b4b475d36ec0c4",
        "figure5_rho_bar_n5.csv": "e00bb57b2177bce58784236a352ae37ffa5da2eee23459295b8f4fa5f129bafa",
        "figure5_rho_bar_n5.svg": "389743cdd9255de7c7e9f6353ca73cf35fa30c985e9df815cfcc5d24c1d9045c",
        "figure5_rho_bar_n6.csv": "693a01c4d07ba3171f8aa91f14393db0b4804622f507a94ae5dc1109a1ad0ecc",
        "figure5_rho_bar_n6.svg": "8c5a01f7225c13455e30a0bd1c15a55030a6467ba40b2885487e2a4b40cbeea3",
    }),
    6: (60, {
        "figure6_full_tp_n3.csv": "30223387356c3aac085c28806e7e27e0030db57a395d0d7f85acd89130f8e233",
        "figure6_full_tp_n3.svg": "7a4ce17699f752feb4e3d4eac6bf8765db9d0a146923b28cdc53dcd11e665fed",
        "figure6_full_tp_n4.csv": "575ea5ec822b54ec10b7dfa08cd7a97e3c5cce2208033ea61bbc53f69837bf90",
        "figure6_full_tp_n4.svg": "605d85ba69170cc75f09fa1100651822568d47e28fa2d87e72b6d80f3daafcda",
        "figure6_full_tp_n5.csv": "bd3865fc8dab668e04df984447f3c56bfe8b4169b537d59aad4d0731f18bcbf2",
        "figure6_full_tp_n5.svg": "31384fa55dbc9fa98434afca815aa4935c40d98083bbe97b608a0d2274782c98",
        "figure6_full_tp_n6.csv": "bbe608c722514f105e3b70ff8e6a3f1b7b6d5392001cf7a78df27f6942e23fbe",
        "figure6_full_tp_n6.svg": "5942a6453704af46dbfdcadec848696c6ef0d0d144915943435e88eae6e898d9",
    }),
    7: (60, {
        "figure7_whp_lstar_n3.csv": "1b37898f8f9dc20f70aed7515453b4f35551e1f6aa6f4ab5a2f782bfd0d5a816",
        "figure7_whp_lstar_n3.svg": "c54351381632069fa4a67f37f6731c920937a9166c74eadc208c61395d507f07",
        "figure7_whp_lstar_n4.csv": "ae912bfe0dd0a1ca277690c4a876023663896be4eba4a1774d71c4f4df6bc13e",
        "figure7_whp_lstar_n4.svg": "8aaa3405f77cbe26f9a07fadbb1e124840b6502a46cf78f1379782b9f550780e",
        "figure7_whp_lstar_n5.csv": "d62106fcd71615485381b170dd48e69c12c1a91f6d3ed96873136f68ad3b7366",
        "figure7_whp_lstar_n5.svg": "14f157bbbfbea34015eb5e1388224d1dff6d1e16e3d0ad60a9ec08ee2fa71c00",
        "figure7_whp_lstar_n6.csv": "677ef75a679b307bfbda15511ab32a4dec2e2ce6157af55a1983a3b4d0d65b1c",
        "figure7_whp_lstar_n6.svg": "490b2f3ed8d9eaa852adbf05a8abb2c80bc36c48b9b6a54fcf3e8b79fe35b237",
    }),
    8: (200, {
        "figure8_full_tp_vs_N.csv": "db3cf21c21bd3cf8c9a4b9df053e403ca37b445f8951539874a72d1a93fe6996",
        "figure8_full_tp_vs_N.svg": "b925fc1e232ccf7d3144bce6f5a21c7b2b339fa33d709f94dfe05ac0b317b972",
    }),
}


@pytest.mark.parametrize("fig", sorted(FIGURE_ARTIFACTS))
def test_figure_artifacts_pinned(fig, tmp_path):
    trials, digests = FIGURE_ARTIFACTS[fig]
    paths = reproduce_figure(fig, tmp_path, trials=trials, seed=5)
    assert [p.name for p in paths] == list(digests)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths} == digests


# ``generate --N 7 --n 3 --L 5 --k 2 --seed 9`` per policy (Fano plane for design)
GENERATED = {
    "uniform": '{"N":7,"k":2,"n":3,"packets":[[2,5,6],[3,4,5],[4,5,6],[0,4,6],[2,3,6]],'
               '"placement":"uniform"}\n',
    "cyclic": '{"N":7,"k":2,"n":3,"packets":[[2,3,4],[0,1,6],[0,1,6],[2,3,4],[0,1,2]],'
              '"placement":"cyclic"}\n',
    "design": '{"N":7,"k":2,"n":3,"packets":[[0,3,5],[4,5,6],[4,5,6],[0,3,5],[0,1,4]],'
              '"placement":"design"}\n',
}


@pytest.mark.parametrize("policy", sorted(GENERATED))
def test_generate_pinned(policy, tmp_path):
    out = tmp_path / "instance.json"
    argv = ["generate", "--policy", policy, "--N", "7", "--n", "3", "--L", "5", "--k", "2",
            "--seed", "9", "--out", str(out)]
    if policy == "design":
        plane = tmp_path / "fano.blocks"
        build_projective_plane(2).save(plane)
        argv += ["--design", str(plane)]
    assert main(argv) == 0
    assert out.read_text() == GENERATED[policy]


# (policy, plane order q for design or None, arguments, keyword arguments, value, method);
# (7, 3, 2, 4) and (13, 4, 3, 4) include points where the design solver
# falls back to the oracle
FULL_TP_DESIGN_UNIFORM = (
    ("design", 2, (7, 3, 2, 3), {}, 0.6122448979591837, "exact_enumeration"),
    ("design", 2, (7, 3, 2, 4), {}, 0.0, "exact_enumeration"),
    ("design", 3, (13, 4, 3, 3), {}, 0.7810650887573964, "exact_enumeration"),
    ("design", 3, (13, 4, 2, 3), {}, 0.9940828402366864, "exact_enumeration"),
    ("design", 3, (13, 4, 3, 4), dict(cap=100, samples=2000, seed=6), 0.013, "monte_carlo"),
    ("design", 2, (7, 3, 1, 5), dict(cap=100, samples=2000, seed=7), 0.9895, "monte_carlo"),
    ("uniform", None, (6, 3, 2, 3), {}, 0.36, "exact_enumeration"),
    ("uniform", None, (5, 2, 1, 3), {}, 0.99, "exact_enumeration"),
    ("uniform", None, (6, 2, 2, 3), {}, 0.02666666666666667, "exact_enumeration"),
    ("uniform", None, (9, 3, 2, 3), dict(cap=1000, samples=2000, seed=8), 0.8155, "monte_carlo"),
    ("uniform", None, (12, 4, 3, 4), dict(cap=1000, samples=1000, seed=8), 0.026, "monte_carlo"),
)


@pytest.mark.parametrize("policy,q,args,kw,value,method", FULL_TP_DESIGN_UNIFORM)
def test_full_tp_design_uniform_pinned(policy, q, args, kw, value, method):
    if q is not None:
        kw = dict(kw, design=build_projective_plane(q))
    est = analysis.p_full_throughput_exact(policy, *args, **kw)
    assert (est.value, est.method) == (value, method)


def test_full_tp_runs_no_read_solver(monkeypatch):
    # Pr(L* = L) is Pr(Hall's condition holds): the pins hold with every
    # solver in the table refusing to run
    def refuse(inst, design, gen):
        raise AssertionError("a read solver ran")

    for name in solvers.SOLVERS:
        monkeypatch.setitem(solvers.SOLVERS, name, refuse)
    cases = [("cyclic", None, *case) for case in FULL_TP_CYCLIC] + list(FULL_TP_DESIGN_UNIFORM)
    for policy, q, args, kw, value, method in cases:
        if q is not None:
            kw = dict(kw, design=build_projective_plane(q))
        est = analysis.p_full_throughput_exact(policy, *args, **kw)
        assert (est.value, est.method) == (value, method)


# (family, k, n, B) -> SHA-256 of the n encoded chunks, concatenated in
# position order; the k data chunks are PlacementRng(1000 * k + n) bytes
ENCODED = {
    ("mds", 2, 4, 65536): "b91ac4b50a6c5ea60a5482f27cb209607d37cb6493471d9abcd2b91c5468a157",
    ("mds", 2, 4, 5): "4479a3746abfe89d3c3e0d4a754fbc494035be118c8553890aecad543a28f256",
    ("mds", 3, 4, 65536): "289868d73a9f5d0f703910600ab0171a1d642e7b6c3d53099b6fee5f0f014014",
    ("mds", 3, 4, 5): "70fe8d0d065de43573d32eec082b2651e5e7f244692a0a9f44bdb815660e614d",
    ("mds", 4, 7, 65536): "6cba84b1220760a169341fc483091cd3e94ed71e259acca32e3275d21158d85e",
    ("mds", 4, 7, 5): "21c9a1cb6c48b66e54ea8a4d66de67a5728ed77e17a6b87b7477485bca61f763",
    ("mds", 5, 15, 65536): "bd81151d0bda0e541d4849d493bf80716f7d76e6704081540b1fefb9e2fd1ded",
    ("mds", 5, 15, 5): "8f88a84e52eb6f43044b254209247bb64d7d95125e3f253b8d325099f75c7f3a",
    ("binary_cyclic", 2, 4, 65536): "f1325eb4bfa51135b3c738a0140b204550df80b60f0ea1fb0c49e24fc6dba76c",
    ("binary_cyclic", 2, 4, 5): "f23fb8b32d171e7c1b78add975e7ce732cc9c39e2bcb007bd1e620c264d531b1",
    ("binary_cyclic", 3, 4, 65536): "27e7daca2958ce5cd884eebc92e35e6f0603f4ac630c7819560f594061862011",
    ("binary_cyclic", 3, 4, 5): "d6dea313ec15e429f8650481792a5943fb0b1288953d61178ed6d28348a314bf",
    ("binary_cyclic", 4, 7, 65536): "e27c6c0d8482e368f66d11cc52a62e2098b9f0bf244bf527ebfa2e1b48ece17b",
    ("binary_cyclic", 4, 7, 5): "33ec0e0f2493a84af9157bf67092fb4c44cbc730964f44f6e85b270dbcf03323",
    ("binary_cyclic", 5, 15, 65536): "d673f730102bce2386f45a3ba622f756c432450557cc709942861e801ef47b8b",
    ("binary_cyclic", 5, 15, 5): "d6990aca646de5817edc8c479eb79825269bcdd78be9e1f9ebf490abcca82f73",
}


@pytest.mark.parametrize("family,k,n,B", sorted(ENCODED))
def test_encoded_chunks_pinned(family, k, n, B):
    gen = PlacementRng(1000 * k + n).generator()
    data = [gen.bytes(B) for _ in range(k)]
    encode = mds_encode if family == "mds" else cyclic_encode
    chunks = encode(data, CodecConfig(k=k, n=n, B=B, family=family)).chunks
    assert hashlib.sha256(b"".join(chunks)).hexdigest() == ENCODED[(family, k, n, B)]


# ``codec encode --family F --k K --n N`` of 1000 PlacementRng(21) bytes, each
# file hashed with its header's family code (bytes 14-15) zeroed, as files
# were written before the header recorded the family
CHUNK_FILES = {
    ("mds", 3, 5): {
        "chunk_000.bin": "7e737d02f763c15e2d5dc5eed8cc70db12551b49422987de39bf0d95f103cf4d",
        "chunk_001.bin": "82bd628ac638045b0e334ad7c30fe3bc74248f382cfc09e0dec52e9e2d282a9a",
        "chunk_002.bin": "3bb9631dd7c13065ed933c4378ccc979c1ae90dff1ea157e697037e305e4e7d8",
        "chunk_003.bin": "4373aebd651e1a12b88543669daf3073aba7b694e15cc78f39e0fc2d597e1326",
        "chunk_004.bin": "1ec960ae66874b5c704583631ec5025d117f95b0d9ab23dfce7fd83c203513b4",
    },
    ("cyclic", 4, 7): {
        "chunk_000.bin": "4256aceb12961a32053c062299091d42d8d0dd2b66b1ae4cdb2fc23a450c3b29",
        "chunk_001.bin": "0e052d948fafdb8e2aab8f9b41fec9c41b9e2bed80a1fc413bcdc91fe97b7310",
        "chunk_002.bin": "7473839e95c7371ff7528a6d07e0295c4639f1f8eaefcb79b900bb93edf85fa9",
        "chunk_003.bin": "9faa13bb1cbe304dbaea84d599113dcfb9adf00d19fd8ef83f6de796cdc82006",
        "chunk_004.bin": "6b226cd99b2532f6d9af6490d582bdc632f8015456a50ea96b6c776e3e4a9b03",
        "chunk_005.bin": "495d3d5865f10c3be99e4332300adce3f52cb87bfcea958c6d24427b93682997",
        "chunk_006.bin": "b3d51a625bb327ce7d6744af972bb7683c203656e9efe0c0266935066a0ecdd5",
    },
}


@pytest.mark.parametrize("family,k,n", sorted(CHUNK_FILES))
def test_codec_encode_files_pinned(family, k, n, tmp_path):
    src = tmp_path / "payload.bin"
    src.write_bytes(PlacementRng(21).generator().bytes(1000))
    out = tmp_path / "chunks"
    assert main(["codec", "encode", "--family", family, "--k", str(k), "--n", str(n),
                 "--in", str(src), "--out-dir", str(out)]) == 0
    raws = {p.name: p.read_bytes() for p in sorted(out.glob("chunk_*.bin"))}
    code = {"mds": b"\x01\x00", "cyclic": b"\x02\x00"}[family]  # little-endian
    assert {raw[14:16] for raw in raws.values()} == {code}
    got = {name: hashlib.sha256(raw[:14] + b"\0\0" + raw[16:]).hexdigest()
           for name, raw in raws.items()}
    assert got == CHUNK_FILES[(family, k, n)]
