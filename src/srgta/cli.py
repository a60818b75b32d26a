"""Command line frontend.

Subcommands: construct, analyze, aut, classify, check-triple, reproduce.
Exit codes: 0 success, 1 a reproduce row failed, 2 usage or parameter
error, 3 timeout, 4 a closure budget overrun or an internal cross-check
disagreement, printed as `error: <Type>: <message>` (a FAIL row in reproduce).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .autgrp import (
    NotAnAutomorphism,
    Timeout,
    automorphism_group,
    import_generators,
)
from .classifier import (
    InconsistentParams,
    exclusion_lemma,
    intersection_numbers,
    krein,
    param_form,
    triple_intersection_numbers,
    triple_regularity,
    triple_transitivity_verdict,
    validate_params,
)
from .exactmath import (
    DEFAULT_PRIMES,
    NotPrime,
    QuadExt,
    SizeGuardExceeded,
    is_prime,
    srg_eigenvalues,
    srg_multiplicities,
)
from .families import BadCongruence, FamilySpec, NotPrimePower, ParamRange, construct
from .graphcore import (
    ImprimitiveParams,
    NotSrgError,
    ParseError,
    SrgParams,
    VertexOutOfRange,
    clique_extension,
    common_neighbour_counts,
    complement,
    is_primitive,
    is_strongly_regular,
    read_graph,
    require_srg,
    subconstituents,
    write_graph,
)
from .linalg import ClosureBudgetExceeded, ClosureSelfTestFailed, PrimeDisagreement
from .permgroup import DegreeMismatch, orbits, write_generators
from .terwilliger import (
    InternalDisagreement,
    OracleMismatch,
    analyze_vertex,
    t0_t_report,
    t_dim_spectral_crosscheck,
)

_USAGE_ERRORS = (
    ParamRange,
    BadCongruence,
    NotPrimePower,
    InconsistentParams,
    ParseError,
    VertexOutOfRange,
    NotSrgError,
    ImprimitiveParams,
    DegreeMismatch,
    NotAnAutomorphism,
    NotPrime,
    SizeGuardExceeded,
    FileNotFoundError,
    IsADirectoryError,
)

_COMPUTATION_ERRORS = (
    ClosureBudgetExceeded,
    ClosureSelfTestFailed,
    PrimeDisagreement,
    OracleMismatch,
    InternalDisagreement,
)


def _primes_from_seed(seed: int) -> tuple[int, int]:
    """Two distinct random 20-bit primes, deterministic in the seed."""
    rng = random.Random(seed)
    out: list[int] = []
    while len(out) < 2:
        c = rng.randrange(2**19, 2**20) | 1
        if is_prime(c) and c not in out:
            out.append(c)
    return out[0], out[1]


def _scalar_primes(args) -> tuple:
    if getattr(args, "rational", False):
        return DEFAULT_PRIMES  # ignored downstream when rational=True
    if getattr(args, "prime", None) is not None:
        if not is_prime(args.prime):
            raise NotPrime(f"{args.prime} is not prime")
        return (args.prime,)
    if getattr(args, "seed", None) is not None:
        return _primes_from_seed(args.seed)
    return DEFAULT_PRIMES


# -- construct ---------------------------------------------------------------

def cmd_construct(args) -> int:
    spec = FamilySpec(args.family, tuple(args.params))
    g = construct(spec)
    print(f"{args.family}({','.join(map(str, args.params))}) on {g.n} vertices, {g.n_edges} edges")
    result = is_strongly_regular(g)
    if result:
        print(f"srg {result}")
    else:
        print(f"not strongly regular: {result.reason}")
    out = args.output
    if out is None:
        out = f"{args.family}_{'_'.join(map(str, args.params))}.srg"
    write_graph(g, out)
    print(f"wrote {out}")
    return 0


# -- analyze -----------------------------------------------------------------

_VERDICT_WORDS = {True: "true", False: "false", None: "unknown"}


def _table_row(name: str, report) -> str:
    blocks = json.dumps(report.blocks["t_tilde"], separators=(",", ":"))
    verdict = _VERDICT_WORDS[report.verdicts["triply_transitive"]]
    return (
        f"{report.params} | {name} | omega {report.omega} | aut {report.aut_order}"
        f" | {report.dims['t0']} | {report.dims['t']} | {report.dims['t_tilde']}"
        f" | {blocks} | {verdict}"
    )


def cmd_analyze(args) -> int:
    g = read_graph(args.file)
    require_srg(g)
    primes = _scalar_primes(args)
    gens = import_generators(args.gens, g) if args.gens else ()
    found = automorphism_group(g, args.timeout, gens=gens)
    group = found.group
    if args.all_vertices:
        reps = sorted(min(o) for o in orbits(group.strong_gens, g.n))
    else:
        reps = [0]
    reports = [
        analyze_vertex(
            g, group, omega,
            primes=primes, rational=args.rational, aut_complete=found.complete,
        )
        for omega in reps
    ]
    name = os.path.splitext(os.path.basename(args.file))[0]
    if args.table:
        for r in reports:
            print(_table_row(name, r))
    elif len(reports) == 1:
        print(reports[0].to_json())
    else:
        merged = [json.loads(r.to_json()) for r in reports]
        print(json.dumps(merged, indent=2, sort_keys=True))
    return 0


# -- aut ---------------------------------------------------------------------

def cmd_aut(args) -> int:
    g = read_graph(args.file)
    res = automorphism_group(g, timeout=args.timeout)
    print(f"order {res.order}")
    print(f"generators {len(res.gens)}")
    if args.export:
        write_generators(args.export, g.n, res.gens)
        print(f"wrote {args.export}")
    return 0


# -- classify ----------------------------------------------------------------

_SHORT_KIND = {"NegativeLatinSquare": "nLS", "LatinSquare": "LS"}


def _short_form(form) -> str:
    text = str(form).replace(", ", ",")
    for long, short in _SHORT_KIND.items():
        text = text.replace(long, short)
    return text


def cmd_classify(args) -> int:
    p = validate_params(SrgParams(args.n, args.k, args.lam, args.mu))
    print(f"srg {p}")
    theta, tau = srg_eigenvalues(*p.astuple())
    m1, m2 = srg_multiplicities(*p.astuple())
    print(f"eigenvalues theta={theta}, tau={tau}; multiplicities {m1}, {m2}")
    nums = intersection_numbers(p)
    for k in range(3):
        table = json.dumps(nums[:, :, k].tolist(), separators=(",", ":"))
        print(f"intersection numbers k={k}: {table}")
    forms = sorted(_short_form(f) for f in param_form(p))
    print(f"forms: {'; '.join(forms) if forms else 'none'}")
    if not is_primitive(p):
        print("imprimitive parameters; Krein conditions and exclusion not applicable")
        return 0
    rep = krein(p)
    print(f"krein q11: oracle {rep.q11_oracle}, display {rep.q11_paper}")
    print(f"krein q22: oracle {rep.q22_oracle}, display {rep.q22_paper}")
    print(f"krein sign agreement: {'yes' if rep.agreement else 'no'}")
    print(f"exclusion: {exclusion_lemma(p)}")
    return 0


# -- check-triple ------------------------------------------------------------

def cmd_check_triple(args) -> int:
    g = read_graph(args.file)
    gens = import_generators(args.gens, g) if args.gens else None
    report = triple_transitivity_verdict(
        g, gens=gens, timeout=args.timeout,
        primes=_scalar_primes(args), rational=args.rational,
    )
    print(report.to_json())
    return 0


# -- reproduce ---------------------------------------------------------------
#
# Every row freezes values that were derived independently (closed-form
# intersection counts, orbit counts of known groups, hand-checked small
# cases) before the pipeline existed.  A row function returns None on
# success or a short description of the first mismatch.

class SkipRow(Exception):
    pass


def _build(spec):
    tag, params = spec
    if tag == "complement":
        return complement(_build(params))
    return construct(FamilySpec(tag, tuple(params)))


def _row_timeout(ctx, slow: bool) -> float:
    if ctx.get("timeout") is not None:
        return ctx["timeout"]
    return 600.0 if slow else 300.0


def _dim_problems(report, dims, blocks) -> list[str]:
    """Mismatches of the (t0, t, t_tilde) dims and the t_tilde blocks; a None
    dim or None blocks is not checked."""
    problems = []
    got = (report.dims["t0"], report.dims["t"], report.dims["t_tilde"])
    for label, want, have in zip(("t0", "t", "t_tilde"), dims, got):
        if want is not None and want != have:
            problems.append(f"dim {label} {have} != {want}")
    if blocks is not None:
        want_blocks = [list(r) for r in blocks]
        if report.blocks["t_tilde"] != want_blocks:
            problems.append(f"t_tilde blocks {report.blocks['t_tilde']} != {want_blocks}")
    return problems


def row_dims(payload, ctx):
    spec, dims, blocks, verdict, aut_order, slow = payload
    g = _build(spec)
    report = triple_transitivity_verdict(g, timeout=_row_timeout(ctx, slow))
    problems = _dim_problems(report, dims, blocks)
    if verdict != "skip" and report.verdicts["triply_transitive"] != verdict:
        problems.append(
            f"verdict {report.verdicts['triply_transitive']} != {verdict}"
        )
    if aut_order is not None and report.aut_order != aut_order:
        problems.append(f"aut order {report.aut_order} != {aut_order}")
    return "; ".join(problems) or None


def row_witness(payload, ctx):
    spec, expected = payload
    g = _build(spec)
    g1, _, _ = subconstituents(g, 0)
    counts, _ = common_neighbour_counts(g1)
    if counts != set(expected):
        return f"adjacent common-neighbour counts {sorted(counts)} != {sorted(expected)}"
    ok, _ = triple_regularity(g)
    if ok:
        return "expected a triple-regularity failure, found none"
    return None


def row_cliqueext(payload, ctx):
    spec, multipliers, want_srg = payload
    base = _build(spec)
    for m in multipliers:
        result = is_strongly_regular(clique_extension(base, m))
        if bool(result) != want_srg:
            wanted = "srg" if want_srg else "not srg"
            return f"{m}-clique extension: expected {wanted}, got {result!r}"
    return None


def row_property(payload, ctx):
    problems = []
    for name, spec in payload:
        g = _build(spec)
        report = triple_transitivity_verdict(g, timeout=_row_timeout(ctx, False))
        nums = intersection_numbers(require_srg(g))
        template = [
            [int(np.count_nonzero(nums[i, :, k])) for k in range(3)]
            for i in range(3)
        ]
        if report.blocks["t0"] != template:
            problems.append(f"{name}: t0 blocks off the intersection-number template")
        witness = triple_intersection_numbers(g)
        if witness.constant != (report.dims["t0"] == report.dims["t"]):
            problems.append(f"{name}: triple-count constancy vs dim equality mismatch")
    return "; ".join(problems) or None


def row_smith(payload, ctx):
    params, theta, tau = payload
    p = SrgParams(*params)
    want = (QuadExt.of(theta), QuadExt.of(tau))
    hits = [f for f in param_form(p) if f.kind == "Smith"]
    if not hits:
        return "no Smith form recognized"
    if hits[0].data != want:
        return f"Smith witness {hits[0].data} != {want}"
    if krein(p).q22_oracle.sign() != 0:
        return f"expected q22 oracle 0, got {krein(p).q22_oracle}"
    return None


def row_krein_zero(payload, ctx):
    params, which = payload
    rep = krein(SrgParams(*params))
    value = rep.q11_oracle if which == "q11" else rep.q22_oracle
    if value.sign() != 0:
        return f"expected {which} oracle 0, got {value}"
    return None


def row_exclusion(payload, ctx):
    params, expected = payload
    got = exclusion_lemma(SrgParams(*params))
    if got != expected:
        return f"exclusion {got} != {expected}"
    return None


def row_spectral(payload, ctx):
    (spec,) = payload
    g = _build(spec)
    estimate = t_dim_spectral_crosscheck(g)
    _, (dim, _) = t0_t_report(g)
    if estimate != dim:
        return f"spectral estimate {estimate!r} != closure dim {dim}"
    return None


def row_import(payload, ctx):
    stem, dims, blocks = payload
    directory = ctx.get("import_dir")
    if directory is None:
        raise SkipRow("no --import-dir given")
    path = os.path.join(directory, stem + ".srg")
    if not os.path.exists(path):
        raise SkipRow(f"{stem}.srg not found")
    g = read_graph(path)
    gens = None
    gen_path = os.path.join(directory, stem + ".gens")
    if os.path.exists(gen_path):
        gens = import_generators(gen_path, g)
    report = triple_transitivity_verdict(g, gens=gens, timeout=_row_timeout(ctx, True))
    return "; ".join(_dim_problems(report, dims, blocks)) or None


_ROW_FUNCS = {
    "dims": row_dims,
    "witness": row_witness,
    "cliqueext": row_cliqueext,
    "property": row_property,
    "smith": row_smith,
    "krein_zero": row_krein_zero,
    "exclusion": row_exclusion,
    "spectral": row_spectral,
    "import": row_import,
}

_PROPERTY_PANEL = (
    ("petersen", ("complement", ("johnson", (5,)))),
    ("grid3", ("grid", (3,))),
    ("paley13", ("paley", (13,))),
    ("johnson5", ("johnson", (5,))),
    ("multipartite33", ("multipartite", (3, 3))),
)

# (name, row kind, payload)
_ROWS: tuple = (
    ("petersen_complement_johnson5", "dims", (
        ("complement", ("johnson", (5,))), (14, 15, 15),
        ((1, 1, 1), (1, 2, 2), (1, 2, 4)), False, 120, False)),
    ("clebsch_complement_vo", "dims", (
        ("vo", (-1, 2, 2)), (14, 14, 14),
        ((1, 1, 1), (1, 2, 2), (1, 2, 3)), True, None, False)),
    ("multipartite_2_2", "dims", (
        ("multipartite", (2, 2)), (10, 10, 10), None, True, 8, False)),
    ("multipartite_2_3", "dims", (
        ("multipartite", (2, 3)), (11, 11, 11), None, True, 72, False)),
    ("multipartite_2_4", "dims", (
        ("multipartite", (2, 4)), (11, 11, 11), None, True, 1152, False)),
    ("multipartite_3_2", "dims", (
        ("multipartite", (3, 2)), (11, 11, 11), None, True, 48, False)),
    ("multipartite_4_2", "dims", (
        ("multipartite", (4, 2)), (11, 11, 11), None, True, 384, False)),
    ("multipartite_3_3", "dims", (
        ("multipartite", (3, 3)), (12, 12, 12), None, True, 1296, False)),
    ("multipartite_3_4", "dims", (
        ("multipartite", (3, 4)), (12, 12, 12), None, True, 82944, False)),
    ("multipartite_4_3", "dims", (
        ("multipartite", (4, 3)), (12, 12, 12), None, True, 31104, False)),
    ("multipartite_4_4", "dims", (
        ("multipartite", (4, 4)), (12, 12, 12), None, True, 7962624, False)),
    ("grid2_small", "dims", (
        ("grid", (2,)), (10, 10, 10), None, True, 8, False)),
    ("grids_n3", "dims", (("grid", (3,)), (15, 15, 15), None, True, 72, False)),
    ("grids_n4", "dims", (("grid", (4,)), (15, 15, 15), None, True, 1152, False)),
    ("grids_n5", "dims", (("grid", (5,)), (15, 15, 15), None, True, 28800, False)),
    ("grids_n6", "dims", (("grid", (6,)), (15, 15, 15), None, True, 1036800, False)),
    ("grids_n7", "dims", (("grid", (7,)), (15, 15, 15), None, True, 50803200, False)),
    ("paley_5", "dims", (("paley", (5,)), (13, 13, 13), None, True, 10, False)),
    ("paley_9", "dims", (("paley", (9,)), (15, 15, 15), None, True, 72, False)),
    ("paley_13", "dims", (("paley", (13,)), (None, None, 29), None, False, 78, False)),
    ("paley_17", "dims", (("paley", (17,)), (None, None, 37), None, False, 136, False)),
    ("peisert_7_1", "dims", (
        ("peisert", (7, 1)), (None, None, 45), None, False, 3528, False)),
    ("peisert_3_2", "dims", (
        ("peisert", (3, 2)), (None, None, 31), None, False, None, False)),
    ("witness_johnson_5", "witness", (("johnson", (5,)), (1, 0))),
    ("witness_johnson_6", "witness", (("johnson", (6,)), (2, 0))),
    ("witness_johnson_7", "witness", (("johnson", (7,)), (3, 0))),
    ("witness_grassmann_2_4", "witness", (("grassmann", (2, 4)), (4, 8))),
    ("witness_bilinear_2_3", "witness", (("bilinear", (2, 3)), (5, 1))),
    ("conjecture_o6minus_2", "dims", (
        ("o6minus", (2,)), (15, 15, 15), None, True, 51840, False)),
    ("conjecture_o6minus_3", "dims", (
        ("o6minus", (3,)), (15, 15, 15), None, True, 26127360, True)),
    ("conjecture_vo_plus_2", "dims", (
        ("vo", (1, 2, 2)), (None, None, None), None, True, 1152, False)),
    ("conjecture_vo_plus_3", "dims", (
        ("vo", (1, 3, 2)), (None, None, None), None, True, 2580480, True)),
    ("conjecture_vo_minus_2", "dims", (
        ("vo", (-1, 2, 2)), (None, None, None), None, True, 1920, False)),
    ("conjecture_vo_minus_3", "dims", (
        ("vo", (-1, 3, 2)), (None, None, None), None, True, 3317760, True)),
    ("cliqueext_petersen", "cliqueext", (
        ("complement", ("johnson", (5,))), (2, 3), False)),
    ("cliqueext_paley13", "cliqueext", (("paley", (13,)), (2, 3), False)),
    ("cliqueext_grid3", "cliqueext", (("grid", (3,)), (2, 3), False)),
    ("cliqueext_triangles", "cliqueext", (
        ("complement", ("multipartite", (2, 3))), (2,), True)),
    ("property_panel", "property", _PROPERTY_PANEL),
    ("smith_27_10_1_5", "smith", ((27, 10, 1, 5), 1, -5)),
    ("krein_zero_5_2_0_1", "krein_zero", ((5, 2, 0, 1), "q11")),
    ("exclusion_35_16_6_8", "exclusion", ((35, 16, 6, 8), "NotTriplyRegular")),
    ("exclusion_36_14_4_6", "exclusion", ((36, 14, 4, 6), "NoConclusion")),
    ("spectral_petersen", "spectral", (("complement", ("johnson", (5,))),)),
    ("spectral_grid_3", "spectral", (("grid", (3,)),)),
    ("spectral_grid_4", "spectral", (("grid", (4,)),)),
    ("spectral_grid_5", "spectral", (("grid", (5,)),)),
    ("spectral_paley_9", "spectral", (("paley", (9,)),)),
    ("spectral_paley_13", "spectral", (("paley", (13,)),)),
    ("spectral_johnson_5", "spectral", (("johnson", (5,)),)),
    ("spectral_johnson_6", "spectral", (("johnson", (6,)),)),
    ("spectral_vo_minus_2", "spectral", (("vo", (-1, 2, 2)),)),
    ("import_hoffman_singleton", "import", (
        "hoffman_singleton", (14, 15, 15), None)),
    ("import_gewirtz", "import", (
        "gewirtz", (14, 15, 16), ((1, 1, 1), (1, 5, 2), (1, 2, 2)))),
    ("import_m22", "import", ("m22", (14, 15, 16), None)),
    ("import_higman_sims", "import", ("higman_sims", (14, 14, 14), None)),
)


def _run_row(name: str, kind: str, payload, ctx) -> tuple[str, str, str]:
    try:
        detail = _ROW_FUNCS[kind](payload, ctx)
    except SkipRow as skip:
        return name, "SKIP", str(skip)
    except Exception as exc:  # a crashed row is a failed row, not a crashed run
        return name, "FAIL", f"{type(exc).__name__}: {exc}"
    if detail:
        return name, "FAIL", detail
    return name, "PASS", ""


def cmd_reproduce(args) -> int:
    rows = [r for r in _ROWS if args.only is None or args.only in r[0]]
    if not rows:
        print(f"no rows match --only {args.only!r}", file=sys.stderr)
        return 2
    ctx = {"import_dir": args.import_dir, "timeout": args.timeout}
    jobs = args.jobs if args.jobs else (os.cpu_count() or 1)
    if jobs == 1 or len(rows) == 1:
        results = [_run_row(name, kind, payload, ctx) for name, kind, payload in rows]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_run_row, name, kind, payload, ctx)
                for name, kind, payload in rows
            ]
            results = [f.result() for f in futures]
    tally = {"PASS": 0, "FAIL": 0, "SKIP": 0}
    for name, status, detail in results:
        tally[status] += 1
        line = f"{status} {name}"
        if detail:
            line += f": {detail}"
        print(line)
    print(f"{tally['PASS']} pass, {tally['FAIL']} fail, {tally['SKIP']} skip")
    return 1 if tally["FAIL"] else 0


# -- parser ------------------------------------------------------------------

def _add_scalar_flags(sub) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--prime", type=int, help="single prime substrate")
    group.add_argument("--rational", action="store_true", help="exact rational substrate")
    group.add_argument("--seed", type=int, help="derive two random prime substrates")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srgta",
        description="strongly regular graphs and their nested algebra dimensions",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_construct = subs.add_parser("construct", help="build a named family member")
    p_construct.add_argument("family")
    p_construct.add_argument("params", type=int, nargs="+")
    p_construct.add_argument("-o", "--output")
    p_construct.set_defaults(func=cmd_construct)

    p_analyze = subs.add_parser("analyze", help="full algebra report for a graph file")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--gens", help="generator file, seeds the automorphism search")
    fmt = p_analyze.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True)
    fmt.add_argument("--table", action="store_true")
    _add_scalar_flags(p_analyze)
    p_analyze.add_argument("--timeout", type=float, default=300.0)
    p_analyze.add_argument("--all-vertices", action="store_true")
    p_analyze.set_defaults(func=cmd_analyze)

    p_aut = subs.add_parser("aut", help="automorphism group of a graph file")
    p_aut.add_argument("file")
    p_aut.add_argument("--export", "-o", "--output", dest="export")
    p_aut.add_argument("--timeout", type=float, default=300.0)
    p_aut.set_defaults(func=cmd_aut)

    p_classify = subs.add_parser("classify", help="parameter-level analysis")
    p_classify.add_argument("n", type=int)
    p_classify.add_argument("k", type=int)
    p_classify.add_argument("lam", type=int)
    p_classify.add_argument("mu", type=int)
    p_classify.set_defaults(func=cmd_classify)

    p_check = subs.add_parser("check-triple", help="full pipeline, JSON report")
    p_check.add_argument("file")
    p_check.add_argument("--gens", help="generator file, seeds the automorphism search")
    _add_scalar_flags(p_check)
    p_check.add_argument("--timeout", type=float, default=300.0)
    p_check.set_defaults(func=cmd_check_triple)

    p_rep = subs.add_parser("reproduce", help="run the frozen row battery")
    p_rep.add_argument("--only", help="substring filter on row names")
    p_rep.add_argument("--import-dir", help="directory of imported .srg files")
    p_rep.add_argument("--jobs", type=int, help="worker processes (default: cores)")
    p_rep.add_argument("--timeout", type=float, help="per-row search budget override")
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Timeout:
        print("error: computation timed out", file=sys.stderr)
        return 3
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _COMPUTATION_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
