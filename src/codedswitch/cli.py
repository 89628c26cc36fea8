"""Command-line front end.

Subcommands: generate, check, solve, design, analyze, simulate, reproduce,
codec.  Every run that writes files also writes a JSON manifest next to
them recording the command line, the seed actually used, input hashes,
output hashes and wall time, so results can be reproduced and diffed.

Exit codes: 0 success, 1 runtime error (including a missing, unreadable or
malformed input file), 2 usage error (including a solver applied outside
its parameter domain).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import secrets
import sys
import time
from functools import cache
from itertools import combinations
from math import floor, isfinite
from pathlib import Path

from . import __version__, analysis, ensemble
from .codec import (
    BINARY_CYCLIC,
    MDS,
    ChunkSet,
    CodecConfig,
    cyclic_codebook,
    cyclic_decode_burst,
    cyclic_encode,
    mds_decode,
    mds_encode,
    read_chunk_file,
    write_chunk_file,
)
from .conditions import coverage_holds, hall_full_throughput, pairwise_holds, t_max
from .errors import BadParams, CodedSwitchError, MalformedFile, WrongParams
from .model import Instance, Solution, throughput, validate_instance, validate_solution
from .placement import (
    POLICIES,
    BlockDesign,
    PlacementRng,
    build_lexicographic_packing,
    build_projective_plane,
    draw,
    verify_packing,
)
from .solvers import CLI_NAMES, SOLVERS


def _hashed(paths) -> list:
    return [{"path": str(p), "sha256": hashlib.sha256(Path(p).read_bytes()).hexdigest()}
            for p in paths]


def _write_manifest(args, path, t0: float, seed: int | None = None, inputs=(), outputs=()) -> None:
    """Reproducibility record of one run: the command line ``main`` parsed
    into ``args``, seed, input and output hashes, and the wall time since
    ``t0`` once the files are hashed."""
    obj = {
        "argv": args.argv,
        "seed": seed,
        "version": __version__,
        "python": sys.version.split()[0],
        "inputs": _hashed(inputs),
        "outputs": _hashed(outputs),
    }
    obj["wall_time_s"] = round(time.perf_counter() - t0, 6)
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _resolve_seed(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        return secrets.randbits(63)
    if seed < 0:
        raise BadParams(f"--seed must be >= 0, got {seed}")
    return seed


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: not UTF-8 text ({exc})") from exc


def _finite_float(text: str) -> float:
    """A JSON number as a float; one beyond the float range is malformed."""
    value = float(text)
    if not isfinite(value):
        raise OverflowError(f"number {text} is out of range")
    return value


def _manifest_path(first_output: Path) -> Path:
    p = Path(first_output)
    if p.is_dir():
        return p / "manifest.json"
    return p.with_suffix(p.suffix + ".manifest.json")


# -- subcommand implementations ----------------------------------------------

def _cmd_generate(args) -> int:
    if args.policy == "design" and not args.design:
        raise WrongParams("--policy design requires --design FILE")
    seed = _resolve_seed(args)
    t0 = time.perf_counter()
    rng = PlacementRng(seed, 0).generator()
    k = args.k if args.k is not None else args.n
    design = BlockDesign.load(args.design) if args.policy == "design" else None
    inst = draw(args.policy, args.N, args.n, k, args.L, rng, design)
    validate_instance(inst)
    out = Path(args.out)
    out.write_text(inst.to_json() + "\n")
    _write_manifest(args, _manifest_path(out), t0, seed,
                    inputs=[args.design] if args.policy == "design" else (), outputs=[out])
    print(f"wrote {out}")
    return 0


def _cmd_check(args) -> int:
    inst = Instance.from_json(_read_text(args.infile))
    try:
        validate_instance(inst)
    except CodedSwitchError as exc:
        print(f"instance: INVALID ({type(exc).__name__}: {exc})")
        return 1
    print(f"instance: ok (N={inst.N}, k={inst.k}, n={inst.n}, L={inst.L}, "
          f"placement={inst.placement})")
    if args.solution:
        sol = Solution.from_json(_read_text(args.solution))
        try:
            validate_solution(inst, sol)
        except CodedSwitchError as exc:
            print(f"solution: INVALID ({type(exc).__name__}: {exc})")
            return 1
        print(f"solution: ok (l_star={sol.l_star}, rho={throughput(inst, sol):.6g})")
    if args.conditions:
        print(f"coverage_holds: {coverage_holds(inst)}")
        if inst.L >= 2:
            bound = t_max(inst.n, inst.k, inst.L)
            print(f"t_max: {bound} (floor {floor(bound)})")
            print(f"pairwise_holds: {pairwise_holds(inst)}")
        print(f"hall_full_throughput: {hall_full_throughput(inst)}")
    return 0


def _cmd_solve(args) -> int:
    seed = _resolve_seed(args)
    t0 = time.perf_counter()
    inst = Instance.from_json(_read_text(args.infile))
    validate_instance(inst)
    if args.algo == "design" and not args.design:
        raise WrongParams("--algo design requires --design FILE")
    design = BlockDesign.load(args.design) if args.algo == "design" else None
    rng = PlacementRng(seed, 1).generator()
    sol = SOLVERS[CLI_NAMES[args.algo]](inst, design, rng)
    validate_solution(inst, sol)
    out = Path(args.out)
    out.write_text(sol.to_json() + "\n")
    _write_manifest(args, _manifest_path(out), t0, seed,
                    inputs=[args.infile] + ([args.design] if args.design else []), outputs=[out])
    print(f"l_star={sol.l_star} rho={throughput(inst, sol):.6g} -> {out}")
    return 0


def _cmd_design(args) -> int:
    t0 = time.perf_counter()
    if args.design_cmd == "build":
        if args.kind == "plane":
            if args.q is None:
                raise WrongParams("--kind plane requires --q")
            design = build_projective_plane(args.q)
        else:
            if None in (args.N, args.n, args.t_max):
                raise WrongParams("--kind packing requires --N --n --t-max")
            design = build_lexicographic_packing(args.N, args.n, args.t_max)
        verify_packing(design)
        out = Path(args.out)
        design.save(out)
        _write_manifest(args, _manifest_path(out), t0, outputs=[out])
        print(f"wrote {out} (b={design.b} blocks, N={design.N}, n={design.n}, t={design.t})")
        return 0
    design = BlockDesign.load(args.infile)
    try:
        verify_packing(design)
    except CodedSwitchError as exc:
        print(f"design: INVALID ({type(exc).__name__}: {exc})")
        return 1
    print(f"design: ok (b={design.b}, N={design.N}, n={design.n}, t={design.t})")
    return 0


_ANALYZE_REQUIRED = {
    "cover-uni": ("N", "n", "k"),
    "pair-cyc": ("N", "n", "k"),
    "pair-des": ("b",),
    "cover-cyc": ("N", "n", "k"),
    "full-tp": ("N", "n", "k"),
}


def _cmd_analyze(args) -> int:
    missing = [f"--{a}" for a in _ANALYZE_REQUIRED[args.what] if getattr(args, a) is None]
    if missing:
        raise WrongParams(f"--what {args.what} requires {' '.join(missing)}")
    seed = _resolve_seed(args)
    what = args.what
    if what == "cover-uni":
        est = analysis.p_cover_uniform(args.N, args.n, args.k, args.L)
    elif what == "pair-cyc":
        t_int = args.t_max
        if t_int is None:
            # t_max needs L >= 2; one arc meets no other, so n excludes nothing
            t_int = floor(t_max(args.n, args.k, args.L)) if args.L >= 2 else args.n
        est = analysis.p_pair_cyclic(args.N, args.n, t_int, args.L)
    elif what == "pair-des":
        est = analysis.p_pair_design(args.b, args.L)
    elif what == "cover-cyc":
        est = analysis.p_cover_cyclic(
            args.N, args.n, args.k, args.L, samples=args.trials, rng=PlacementRng(seed, 2),
            exact_only=args.exact_only,
        )
    else:  # full-tp
        if args.policy == "design" and not args.design:
            raise WrongParams("--policy design requires --design FILE")
        design = BlockDesign.load(args.design) if args.design else None
        est = analysis.p_full_throughput_exact(
            args.policy, args.N, args.n, args.k, args.L,
            design=design, samples=args.trials, seed=seed, exact_only=args.exact_only,
        )
    print(f"{est.value:.12g},{est.method},{est.stderr:.6g}")
    return 0


def _cmd_simulate(args) -> int:
    seed_override = getattr(args, "seed", None)
    t0 = time.perf_counter()
    try:
        obj = json.loads(Path(args.spec).read_text(), parse_float=_finite_float)
        if seed_override is not None:
            obj["seed"] = seed_override
        spec = ensemble.ExperimentSpec(
            policy=obj["policy"],
            N=obj["N"],
            k=obj["k"],
            n=obj["n"],
            L_range=obj["L_range"],
            trials=obj.get("trials", ensemble.ExperimentSpec.trials),
            seed=obj.get("seed", ensemble.ExperimentSpec.seed),
            solver=obj.get("solver", ensemble.ExperimentSpec.solver),
            design_source=obj.get("design_source"),
        )
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise MalformedFile(
            f"{args.spec}: malformed experiment spec ({type(exc).__name__}: {exc})"
        ) from exc
    report = ensemble.run_ensemble(spec)
    out = Path(args.out)
    report.to_csv(out)
    _write_manifest(args, _manifest_path(out), t0, spec.seed, inputs=[args.spec], outputs=[out])
    print(f"wrote {out} ({len(report.rows)} rows)")
    return 0


def _cmd_reproduce(args) -> int:
    seed = _resolve_seed(args)
    t0 = time.perf_counter()
    paths = ensemble.reproduce_figure(args.figure, args.out, trials=args.trials, seed=seed)
    _write_manifest(args, Path(args.out) / "manifest.json", t0, seed, outputs=paths)
    for p in paths:
        print(p)
    return 0


# ``codec --family`` name -> codec family
_FAMILIES = {"mds": MDS, "cyclic": BINARY_CYCLIC}


def _codec_cfg(args, k: int, n: int, B: int) -> CodecConfig:
    return CodecConfig(k=k, n=n, B=B, family=_FAMILIES[args.family])


def _cmd_codec(args) -> int:
    if args.codec_cmd == "demo":
        cfg = _codec_cfg(args, args.k, args.n, args.B)
        if cfg.family == BINARY_CYCLIC:
            words = sorted(cyclic_codebook(cfg))
            print(f"[{cfg.n},{cfg.k}] binary cyclic code, generator {cfg.generator:#b}")
            print("codebook:", " ".join(words))
            r = cfg.n - cfg.k
            print(f"burst recovery (erase {r} consecutive positions):")
            demo = CodecConfig(k=cfg.k, n=cfg.n, B=1, family=BINARY_CYCLIC, generator=cfg.generator)
            for start in range(cfg.n):
                erased = [(start + i) % cfg.n for i in range(r)]
                ok = 0
                for msg in range(1 << cfg.k):
                    data = [bytes([(msg >> d) & 1]) for d in range(cfg.k)]
                    cs = cyclic_encode(data, demo)
                    keep = [i for i in range(cfg.n) if i not in erased]
                    if cyclic_decode_burst(cs.mask(keep), demo) == data:
                        ok += 1
                print(f"  positions {erased}: {ok}/{1 << cfg.k} messages recovered")
        else:
            print(f"[{cfg.n},{cfg.k}] MDS code over GF(256), chunk size B={cfg.B}")
            data = [bytes((b + j) % 256 for b in range(cfg.B)) for j in range(cfg.k)]
            cs = mds_encode(data, cfg)
            total = ok = 0
            for keep in combinations(range(cfg.n), cfg.k):
                total += 1
                if mds_decode(cs.mask(keep), cfg) == data:
                    ok += 1
            print(f"round-trips from every k-subset: {ok}/{total}")
        return 0

    if args.codec_cmd == "encode":
        t0 = time.perf_counter()
        payload = Path(args.infile).read_bytes()
        k = args.k
        B = args.B if args.B is not None else max(1, -(-len(payload) // max(k, 1)))
        cfg = _codec_cfg(args, k, args.n, B)
        padded = payload.ljust(k * B, b"\0")
        data = [padded[i * B : (i + 1) * B] for i in range(k)]
        cs = cyclic_encode(data, cfg) if cfg.family == BINARY_CYCLIC else mds_encode(data, cfg)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = [out_dir / f"chunk_{i:03d}.bin" for i in range(cfg.n)]
        for i, (p, chunk) in enumerate(zip(paths, cs.chunks)):
            write_chunk_file(p, cfg, i, chunk)
        _write_manifest(args, out_dir / "manifest.json", t0, inputs=[args.infile], outputs=paths)
        print(f"wrote {cfg.n} chunks to {out_dir} (B={B})")
        return 0

    # decode
    t0 = time.perf_counter()
    in_dir = Path(args.in_dir)
    slots: dict = {}
    meta = None
    for p in sorted(in_dir.glob("chunk_*.bin")):
        k, n, B, index, payload = read_chunk_file(p, _FAMILIES[args.family])
        if meta not in (None, (k, n, B)):
            raise MalformedFile(f"{p}: header (k, n, B) = {(k, n, B)}, other chunks have {meta}")
        if index >= n:
            raise MalformedFile(f"{p}: chunk index {index} >= n = {n}")
        if index in slots:
            raise MalformedFile(f"{p}: chunk index {index} appears in more than one file")
        meta = (k, n, B)
        slots[index] = payload
    if meta is None:
        raise MalformedFile(f"{in_dir}: no chunk files found")
    cfg = _codec_cfg(args, *meta)
    decode = cyclic_decode_burst if cfg.family == BINARY_CYCLIC else mds_decode
    data = decode(ChunkSet(chunks=tuple(slots.get(i) for i in range(cfg.n))), cfg)
    out = Path(args.out)
    out.write_bytes(b"".join(data))
    _write_manifest(args, _manifest_path(out), t0, inputs=sorted(in_dir.glob("chunk_*.bin")),
                    outputs=[out])
    print(f"wrote {out}")
    return 0


# -- argument parsing ----------------------------------------------------------

@cache  # parsing leaves the parser as it was, and building it costs ~2 ms
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="codedswitch",
        description="Coded packet placement and read scheduling experiments",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="draw a random instance")
    g.add_argument("--policy", choices=POLICIES, required=True)
    g.add_argument("--N", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--L", type=int, required=True)
    g.add_argument("--k", type=int, default=None, help="defaults to n (uncoded)")
    g.add_argument("--design", help="block design file (design policy)")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", default="instance.json")
    g.set_defaults(func=_cmd_generate)

    c = sub.add_parser("check", help="validate an instance (and solution)")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--solution", default=None)
    c.add_argument("--conditions", action="store_true",
                   help="also report coverage/pairwise/Hall full-throughput checks")
    c.set_defaults(func=_cmd_check)

    s = sub.add_parser("solve", help="run a read algorithm")
    s.add_argument("--algo", choices=sorted(CLI_NAMES), required=True)
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", default="solution.json")
    s.add_argument("--design", default=None, help="design file for --algo design")
    s.add_argument("--seed", type=int, default=None)
    s.set_defaults(func=_cmd_solve)

    d = sub.add_parser("design", help="build or verify block designs")
    dsub = d.add_subparsers(dest="design_cmd", required=True)
    db = dsub.add_parser("build")
    db.add_argument("--kind", choices=("plane", "packing"), required=True)
    db.add_argument("--q", type=int, help="projective plane order (prime)")
    db.add_argument("--N", type=int)
    db.add_argument("--n", type=int)
    db.add_argument("--t-max", dest="t_max", type=int)
    db.add_argument("--out", required=True)
    db.set_defaults(func=_cmd_design)
    dv = dsub.add_parser("verify")
    dv.add_argument("--in", dest="infile", required=True)
    dv.set_defaults(func=_cmd_design)

    a = sub.add_parser("analyze", help="probability computations (CSV row: value,method,stderr)")
    a.add_argument("--what", choices=("cover-uni", "pair-cyc", "pair-des", "cover-cyc", "full-tp"),
                   required=True)
    a.add_argument("--N", type=int)
    a.add_argument("--n", type=int)
    a.add_argument("--k", type=int)
    a.add_argument("--L", type=int, required=True)
    a.add_argument("--b", type=int, help="block count (pair-des)")
    a.add_argument("--t-max", dest="t_max", type=int, default=None)
    a.add_argument("--policy", choices=POLICIES, default="cyclic")
    a.add_argument("--design", default=None)
    a.add_argument("--trials", type=int, default=analysis.MC_DEFAULT_SAMPLES)
    a.add_argument("--exact-only", action="store_true",
                   help="cover-cyc, full-tp: fail with TooLarge where the exact walk exceeds the cap")
    a.add_argument("--seed", type=int, default=None)
    a.set_defaults(func=_cmd_analyze)

    m = sub.add_parser("simulate", help="run an ensemble experiment from a JSON spec")
    m.add_argument("--spec", required=True)
    m.add_argument("--out", default="report.csv")
    m.add_argument("--seed", type=int, default=None,
                   help="override the seed in the experiment file")
    m.set_defaults(func=_cmd_simulate)

    r = sub.add_parser("reproduce", help="write one experiment family's CSV+SVG artifacts")
    r.add_argument("--figure", type=int, required=True, choices=sorted(ensemble.FIGURES))
    r.add_argument("--out", required=True)
    r.add_argument("--trials", type=int, default=None)
    r.add_argument("--seed", type=int, default=None)
    r.set_defaults(func=_cmd_reproduce)

    k = sub.add_parser("codec", help="erasure codec demos and chunk file tools")
    ksub = k.add_subparsers(dest="codec_cmd", required=True)
    kd = ksub.add_parser("demo")
    kd.add_argument("--family", choices=tuple(_FAMILIES), required=True)
    kd.add_argument("--k", type=int, required=True)
    kd.add_argument("--n", type=int, required=True)
    kd.add_argument("--B", type=int, default=16)
    kd.set_defaults(func=_cmd_codec)
    ke = ksub.add_parser("encode")
    ke.add_argument("--family", choices=tuple(_FAMILIES), required=True)
    ke.add_argument("--k", type=int, required=True)
    ke.add_argument("--n", type=int, required=True)
    ke.add_argument("--B", type=int, default=None)
    ke.add_argument("--in", dest="infile", required=True)
    ke.add_argument("--out-dir", required=True)
    ke.set_defaults(func=_cmd_codec)
    kc = ksub.add_parser("decode")
    kc.add_argument("--family", choices=tuple(_FAMILIES), required=True)
    kc.add_argument("--in-dir", required=True)
    kc.add_argument("--out", required=True)
    kc.set_defaults(func=_cmd_codec)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = ap.parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except WrongParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CodedSwitchError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
