"""Command-line front end.

Every subcommand returns its configuration, its results and its text lines;
``main`` alone writes them, as aligned text or as JSON (``--json``).  Output
is deterministic, so identical flags and seed give byte-identical reports.
Exit codes: 0 success, 1 failed verification, 2 usage error, 3 domain error.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice
from math import comb, prod

from . import chambers, geometry, pfaffian, verify
from .chambers import describe_signature


def _vec(v):
    return f"({','.join(map(str, v))})"


def cmd_verify(args):
    report = verify.run(only=args.only, n=args.n, seed=args.seed,
                        bound=args.bound, trials=args.trials)
    lines = [f"{'PASS' if c['ok'] else 'FAIL'}  {c['name']:<20} {c['detail']}"
             for c in report["checks"]]
    lines.append(f"{report['passed']}/{report['total']} checks passed")
    return report["config"], report["checks"], lines, int(report["passed"] != report["total"])


# `pfaffian --json` writes C(size, 2) entries for the variable list and as many
# for each of the (|I| - 1)!! terms, about 1 us an entry: fresh, with --json, the
# edges take 4.3-5.5 s and 95 MB at size 31 on 12 indices (4.8e6 entries), 4.8-5.2 s
# at size 307 on 8 and 6.5-7.4 s and 474 MB at size 2236 on 2 (5.0e6); the full
# Pfaffian of size 14 (1.2e7) took 13.1 s, and size 4000 on 2 indices 23.6 s and
# 2.2 GB (2 vCPUs, CPython 3.11.7).
MAX_PFAFFIAN_REPORT = 5_000_000


def cmd_pfaffian(args):
    # a range, so an oversized --size is refused before any index list is built
    indices = [int(x) for x in args.minor.split(",")] if args.minor else range(args.size)
    width = comb(max(args.size, 0), 2)
    # the width alone first, as a report has at least one term: a huge size is
    # refused before its (|I| - 1)!! terms are counted
    if 2 * width > MAX_PFAFFIAN_REPORT or (
            width * (prod(range(len(indices) - 1, 0, -2)) + 1) > MAX_PFAFFIAN_REPORT):
        raise ValueError(f"a sub-Pfaffian report on {len(indices)} indices of size "
                         f"{args.size} exceeds {MAX_PFAFFIAN_REPORT} entries")
    poly = pfaffian.sub_pfaffian(args.size - 1, indices)
    return {"size": args.size, "minor": list(indices)}, poly.to_json(), [str(poly)]


def cmd_classes(args):
    n = args.n
    # the report grows as n^2: fresh, with --json, 7.6-8.1 s and 155 MB at n = 2500 and
    # 11.1-11.2 s at n = 3000 (text: 4.1 s at n = 3000; 2 vCPUs, CPython 3.11.7)
    if n > 2500:
        raise ValueError("classes are supported up to n = 2500")
    rows, r = [], geometry.exceptional_count(n)
    for k in range(r + 1):
        rows.append((f"D{2 * k + 2}", geometry.divisor_class_D(n, k).coeffs))
    if n % 2 == 1 and n >= 3:
        rows.append((f"D{n + 1}", geometry.divisor_class_D(n, (n - 1) // 2).coeffs))
    for i in range(1, r + 1):
        rows.append((f"E{i}", geometry.exceptional_class(n, i).coeffs))
    rows.append(("-K", geometry.anticanonical(n).coeffs))
    cox = [{"label": g.label, "degree": list(g.degree.coeffs), "multiplicity": g.multiplicity}
           for g in geometry.cox_generator_degrees(n)]
    results = {"n": n, "classes": [{"label": l, "coeffs": list(c)} for l, c in rows],
               "fano_index": geometry.fano_index(n), "cox_generators": cox}
    lines = [f"classes of A({n}) in the basis (H, E_1, ..., E_r):"]
    lines += [f"  {label:<4} {_vec(coeffs)}" for label, coeffs in rows]
    lines += [f"fano index: {results['fano_index']}", "cox generators (label degree multiplicity):"]
    lines += [f"  {g['label']:<4} {_vec(g['degree'])}  x{g['multiplicity']}" for g in cox]
    return {"n": n}, results, lines


_CONE_BUILDERS = {
    "nef": geometry.nef_cone,
    "eff": geometry.eff_cone,
    "mov": geometry.movable_cone,
    "mori": geometry.mori_cone,
    "movcurves": geometry.moving_curve_cone,
}


def cmd_cones(args):
    # fresh, with --json, every cone takes 1.6-1.7 s at n = 700, mov at n = 30
    # (2 vCPUs, CPython 3.11.7)
    if args.n > 700 and args.cone != "mov":
        raise ValueError("cones are supported up to n = 700")
    cone = _CONE_BUILDERS[args.cone](args.n)
    lattice = "curve" if args.cone in ("mori", "movcurves") else "divisor"
    lines = [f"{args.cone} cone of A({args.n}) ({lattice} lattice), rays:"]
    lines += [f"  {_vec(r)}" for r in cone.rays]
    return {"n": args.n, "cone": args.cone}, cone.to_json(), lines


def _decomposition(n):
    dec = chambers.decomposition_for(n)
    region_index = {c: idx for idx, region in enumerate(dec.regions) for c in region.chambers}
    chams = [{"rays": [list(r) for r in ch.rays], "forced": sorted(ch.forced),
              "region": region_index[i]} for i, ch in enumerate(dec.chambers)]
    regions = [{"forced": sorted(region.labels), "chambers": list(region.chambers),
                "base_locus": describe_signature(region.signature)} for region in dec.regions]
    return {"n": n, "chambers": chams, "regions": regions}


def cmd_gkz(args):
    note = ("toric refinement (coincidence with the Mori chambers unverified)" if args.n > 8
            else "Mori chamber decomposition")
    payload = _decomposition(args.n)
    payload["note"] = note
    lines = [f"chamber decomposition of Eff(A({args.n})): "
             f"{len(payload['chambers'])} chambers ({note})"]
    lines += [f"  #{i} region {ch['region']} forced {ch['forced'] or '[]'} "
              f"rays {' '.join(map(_vec, ch['rays']))}" for i, ch in enumerate(payload["chambers"])]
    return {"n": args.n}, payload, lines


def cmd_sbl(args):
    payload = _decomposition(args.n)
    lines = [f"stable base locus decomposition of Eff(A({args.n})): "
             f"{len(payload['regions'])} regions"]
    lines += [f"  region {i}: chambers {region['chambers']} B = {region['base_locus']}"
              for i, region in enumerate(payload["regions"])]
    return {"n": args.n}, payload, lines


def cmd_blowup1(args):
    rows = []
    for iv in chambers.first_blowup_intervals(args.n):
        left = "[" if iv["closed_left"] else "("
        right = "]" if iv["closed_right"] else ")"
        rows.append({"interval": f"{left}{_vec(iv['left'])}, {_vec(iv['right'])}{right}",
                     "forced": sorted(iv["forced"]),
                     "base_locus": describe_signature(iv["signature"])})
    lines = [f"decomposition of Eff(A({args.n})_1), walls at (k+1)H - kE_1:"]
    lines += [f"  {r['interval']:<24} B = {r['base_locus']}" for r in rows]
    return {"n": args.n}, {"n": args.n, "chambers": rows}, lines


def cmd_sample(args):
    z = pfaffian.secant_sample(args.n, args.h, bound=args.bound, seed=args.seed)
    config = {"n": args.n, "h": args.h, "bound": args.bound, "seed": args.seed}
    rank = 2 * args.h  # secant_sample returns only a point of this rank
    lines = [f"rank-{rank} point of the h={args.h} locus, size {z.size}:"]
    lines += ["  [" + " ".join(str(x) for x in row) + "]" for row in z.to_rows()]
    return config, {"matrix": z.to_json(), "rank": rank}, lines


def cmd_multiplicity(args):
    if args.k is not None:
        got = pfaffian.multiplicity_estimate(args.n, args.k, args.h, trials=args.trials,
                                             seed=args.seed, bound=args.bound)
        rows = [(args.n, args.k, args.h, got, max(args.k - args.h + 1, 0))]
    elif args.n < 2:
        raise ValueError("n must be at least 2")
    else:
        rows = verify.multiplicity_grid([args.n], args.trials, args.seed, args.bound)
    config = {"n": args.n, "k": args.k, "h": args.h, "trials": args.trials,
              "seed": args.seed, "bound": args.bound}
    results = [{"n": n, "k": k, "h": h, "order": got, "expected": want}
               for n, k, h, got, want in rows]
    lines = ["n k h order expected"]
    lines += [f"{r['n']} {r['k']} {r['h']} {r['order']}     {r['expected']}" for r in results]
    return config, results, lines


def cmd_secant(args):
    if args.n < 3:  # the dimension formula needs 1 <= h < (n + 1) // 2
        raise ValueError("n must be at least 3")
    hs = list(range(1, (args.n + 1) // 2)) if args.h is None else [args.h]
    bits = max(1, args.bound.bit_length() / 7) ** 1.4  # see MAX_BOUND
    # one elimination per attempt answers every h up to the last, so a listing costs that h
    if bits * pfaffian.terracini_work(args.n, hs[-1]) > pfaffian.MAX_TERRACINI_WORK:
        raise ValueError(f"secant dimensions at n={args.n} exceed the elimination budget")
    dims = pfaffian.terracini_dims(args.n, hs[-1], bound=args.bound, seed=args.seed)
    rows = [{"h": h, "dim": pfaffian.dim_secant(args.n, h),
             "codim": pfaffian.codim_secant(args.n, h), "terracini": t}
            for h, t in zip(hs, dims[-len(hs):])]
    config = {"n": args.n, "h": args.h, "bound": args.bound, "seed": args.seed}
    lines = ["h dim codim terracini"]
    lines += [f"{r['h']} {r['dim']}   {r['codim']}     {r['terracini']}" for r in rows]
    return config, rows, lines


def point(text):
    """Parse comma-separated integer coefficients; a ValueError is a usage error."""
    return tuple(int(x) for x in text.split(","))


def cmd_chamber(args):
    w = args.point
    chambers.check_rank("chamber queries", geometry.picard_rank(args.n))
    ch = chambers.chamber_of(chambers.configuration_for(args.n), w)
    results = {"rays": [list(r) for r in ch.rays],
               "maximal": ch.is_maximal(),
               "forced": sorted(ch.forced),
               "base_locus": describe_signature(ch.signature)}
    kind = "maximal chamber" if ch.is_maximal() else "lower-dimensional face"
    lines = [f"class {_vec(w)} lies in a {kind}",
             "rays: " + " ".join(map(_vec, ch.rays)),
             f"forced: {sorted(ch.forced)}",
             f"stable base locus: {results['base_locus']}"]
    return {"n": args.n, "point": list(w)}, results, lines


def _add_common(p, *, seed=False, bound=False, trials=False):
    if seed:
        p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    if bound:
        p.add_argument("--bound", type=int, default=100,
                       help="integer sampling bound (default 100)")
    if trials:
        p.add_argument("--trials", type=int, default=5,
                       help="independent samples per estimate (default 5)")
    p.add_argument("--json", action="store_true", help="emit a JSON report")


# Other budgets hold at the defaults; time grows with --trials and with the bound
# (fresh, 2 vCPUs, CPython 3.11.7): `multiplicity --n 10` takes 1.0-1.1 s at 5 trials
# and, with its grid budget lifted, 2.9-3.0 s at 20.  At 10^6 one h costs 3.7-6.6 times
# its time at bound 100 ((46, 1) 1.8 -> 6.8 s, (22, 3) 2.2 -> 11.1 s, (19, 4) 2.1 ->
# 13.3 s), so `secant` scales its work by (bits / 7)^1.4, 4.35 at 10^6.  The edges at
# 10^6 then take 3.5-6.9 s with --json ((42, 1), (26, 2), (20, 3), (17, 4), (15, 5),
# (14, 6) and the listing at n = 14), and those at 10^3-10^5 4.4-7.1 s.
MAX_TRIALS, MAX_BOUND = 20, 10 ** 6


def build_parser():
    parser = argparse.ArgumentParser(
        prog="skewmori",
        description="Exact birational-geometry invariants of the moduli "
                    "spaces A(n) of complete skew-forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="replay the full acceptance suite")
    p.add_argument("--only", choices=verify.SUITES, help="run a single sub-suite")
    p.add_argument("--n", type=int, help="restrict n where applicable")
    _add_common(p, seed=True, bound=True, trials=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("pfaffian", help="symbolic sub-Pfaffian of the generic matrix")
    p.add_argument("--size", type=int, required=True, help="size of the skew matrix")
    p.add_argument("--minor", help="comma-separated row/column indices, e.g. 0,1,2,3")
    _add_common(p)
    p.set_defaults(fn=cmd_pfaffian)

    p = sub.add_parser("classes", help="divisor classes, -K and Cox generator degrees")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_classes)

    p = sub.add_parser("cones", help="effective/nef/movable/Mori/moving-curve cones")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cone", choices=sorted(_CONE_BUILDERS), required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_cones)

    p = sub.add_parser("gkz", help="chamber decomposition of the effective cone")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_gkz)

    p = sub.add_parser("sbl", help="stable base locus regions")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_sbl)

    p = sub.add_parser("blowup1", help="rank-two decomposition of the single blow-up")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_blowup1)

    p = sub.add_parser("sample", help="random rational point of fixed even rank")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=int, required=True, help="rank/2 of the sample")
    _add_common(p, seed=True, bound=True)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("multiplicity", help="vanishing orders of sub-Pfaffians")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, help="sub-Pfaffian size parameter (size 2k+2)")
    p.add_argument("--h", type=int, help="rank/2 of the sampled points")
    _add_common(p, seed=True, bound=True, trials=True)
    p.set_defaults(fn=cmd_multiplicity)

    p = sub.add_parser("secant", help="dimensions of the degeneracy loci")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=int)
    _add_common(p, seed=True, bound=True)
    p.set_defaults(fn=cmd_secant)

    p = sub.add_parser("chamber", help="chamber of a given divisor class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--point", type=point, required=True, help="comma-separated coefficients")
    _add_common(p)
    p.set_defaults(fn=cmd_chamber)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "multiplicity" and (args.k is None) != (args.h is None):
        parser.error("--k and --h must be given together")
    try:
        if getattr(args, "trials", 0) > MAX_TRIALS or getattr(args, "bound", 0) > MAX_BOUND:
            raise ValueError(f"--trials is supported up to {MAX_TRIALS}, --bound up to {MAX_BOUND}")
        config, results, lines, *code = args.fn(args)
        if args.json:
            # json.dumps joins every chunk at once (5x the peak memory); json.dump
            # writes each chunk alone (2-3x the time); batches of chunks cost neither
            report = {"command": args.command, "config": config, "results": results}
            chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(report)
            while batch := "".join(islice(chunks, 8192)):
                sys.stdout.write(batch)
        else:
            sys.stdout.write("\n".join(lines))
        sys.stdout.write("\n")
    except (ValueError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return code[0] if code else 0


if __name__ == "__main__":
    sys.exit(main())
