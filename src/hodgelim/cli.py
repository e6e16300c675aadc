"""Command-line front end.

Subcommands: ``verify`` (hs/mhs/pmhs/orbit/ivi data files), ``wfilt``
(weight filtration of a nilpotent matrix), ``deligne`` (canonical
bigrading of a mixed structure), ``integrate`` (family -> period map
with integrability verdict), ``build`` (stock constructions), ``bound``
(dimension formulas), ``catalog`` (the weight-2 classification table),
and ``search`` (randomized maximal-abelian-family search).

Reports go to standard output as key-sorted JSON.  Exit codes: 0 when
all checks pass, 1 when a verification fails, 2 on malformed input.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import cache

from . import io
from .builders import (build_max_ivi_k2, carlson_toledo_bound, cktm_bound_k2,
                       diagonal_cone_orbit, hodge_tate_orbit,
                       max_dim_symmetric, symmetric_family_ivi,
                       table1_catalog)
from .errors import FormatError, VerificationError
from .filtrations import verify_phs, weight_filtration
from .mixed import deligne_bigrading, verify_mhs, verify_pmhs
from .orbits import (IVI, check_integrability, integrate_ivi, verify_ivi,
                     verify_orbit)
from .search import SearchConfig, greedy_max_abelian


def _write(data, path: str | None = None) -> None:
    text = io.dump_text(data)
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    payload = io.load_file(args.file)
    if args.kind == "hs":
        weight, q, f = io.hs_from_json(payload)
        rep = verify_phs(f, weight, q)
    elif args.kind == "mhs":
        w, f = io.mhs_from_json(payload)
        rep = verify_mhs(w, f)
    elif args.kind == "pmhs":
        rep = verify_pmhs(*io.pmhs_from_json(payload))
    elif args.kind == "orbit":
        rep = verify_orbit(io.orbit_from_json(payload))
    else:
        rep = verify_ivi(io.ivi_from_json(payload))
    _write(rep.to_dict())
    return 0 if rep.ok else 1


def _cmd_wfilt(args) -> int:
    payload = io.load_file(args.file)
    if isinstance(payload, dict):
        if "N" not in payload:
            raise FormatError('wfilt input needs an "N" matrix')
        n = io.matrix_from_json(payload["N"])
    else:
        n = io.matrix_from_json(payload)
    if not n.is_square():
        raise FormatError(f"wfilt needs a square N, not {n.nrows}x{n.ncols}")
    try:
        w = weight_filtration(n)
    except ValueError as exc:
        _write({"ok": False, "error": str(exc)})
        return 1
    _write({"ok": True,
            "W": io.inc_filtration_to_json(w),
            "dims": {str(j): w.at(j).dim for j in w.support()}})
    return 0


def _cmd_deligne(args) -> int:
    w, f = io.mhs_from_json(io.load_file(args.file))
    try:
        bigr = deligne_bigrading(w, f)
    except VerificationError as exc:
        _write({"ok": False, "error": str(exc)})
        return 1
    _write({"ok": True,
            "dims": {f"{p},{q}": d for (p, q), d in bigr.dims().items()},
            "bases": io.bigrading_to_json(bigr)})
    return 0


def _cmd_integrate(args) -> int:
    ivi = io.ivi_from_json(io.load_file(args.file))
    pm = integrate_ivi(ivi)
    rep = check_integrability(pm)
    if args.out is None:
        _write({"period_map": io.polymap_to_json(pm),
                "integrability": rep.to_dict()})
    else:
        _write(io.polymap_to_json(pm), args.out)
        _write(rep.to_dict())
    return 0 if rep.ok else 1


def _cmd_build(args) -> int:
    if args.what == "cktm":
        data = io.ivi_to_json(build_max_ivi_k2(args.h20, args.h11))
    elif args.what == "hodge-tate":
        data = io.orbit_to_json(hodge_tate_orbit(args.k, args.n))
    elif args.what == "sym-family":
        data = io.ivi_to_json(symmetric_family_ivi(args.d))
    else:
        data = io.orbit_to_json(diagonal_cone_orbit(args.d))
    _write(data, args.out)
    return 0


def _cmd_bound(args) -> int:
    if args.what == "cktm":
        value = cktm_bound_k2(args.h20, args.h11)
    elif args.what == "symmetric":
        value = max_dim_symmetric(args.n)
    else:
        value = carlson_toledo_bound(args.n)
    print(value)
    return 0


def _cmd_catalog(args) -> int:
    cfg = SearchConfig(restarts=args.restarts, seed=args.seed)
    ok = True
    rows_out = []
    for row in table1_catalog():
        rep = verify_ivi(row.witness)
        row_ok = rep.ok and rep.data["dim"] == row.expected_max
        entry = {
            "label": row.label,
            "dims": {f"{p},{q}": d for (p, q), d
                     in sorted(row.table.complete().entries.items())},
            "expected_max": row.expected_max,
            "witness_dim": rep.data["dim"],
            "witness_ok": rep.ok,
            "cone_ranks": [c.r for c in row.cones],
        }
        if args.search:
            searches = []
            for cone in row.cones:
                res = greedy_max_abelian(replace(row.orbit, cone=cone), cfg)
                exceeds = res.best_dim > row.expected_max
                searches.append({"cone_rank": cone.r,
                                 "dim": res.best_dim,
                                 "certified": res.certified,
                                 "exceeds": exceeds})
                row_ok = row_ok and not exceeds
            entry["search"] = searches
        rows_out.append(entry)
        ok = ok and row_ok
    _write({"ok": ok, "rows": rows_out})
    return 0 if ok else 1


def _cmd_search(args) -> int:
    payload = io.load_file(args.file)
    if isinstance(payload, dict) and "abelian_basis" in payload:
        start = io.ivi_from_json(payload)
        orbit = start.orbit
    else:
        start = orbit = io.orbit_from_json(payload)
    cfg = SearchConfig(restarts=args.restarts, seed=args.seed,
                       max_steps=args.max_steps)
    res = greedy_max_abelian(start, cfg)
    rep = verify_ivi(IVI(orbit, tuple(res.best)))
    _write({"best_dim": res.best_dim,
            "certified": res.certified,
            "restart_dims": res.restart_dims,
            "abelian_basis": [io.matrix_to_json(m) for m in res.best],
            "family_ok": rep.ok})
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once and shared by every call: parsing leaves no
    state in it, and callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="hodgelim",
        description="Exact verification and construction of limiting "
                    "Hodge-theoretic data.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify a data file")
    v.add_argument("kind", choices=["hs", "mhs", "pmhs", "orbit", "ivi"])
    v.add_argument("file")
    v.set_defaults(func=_cmd_verify)

    wf = sub.add_parser("wfilt",
                        help="weight filtration of a nilpotent matrix")
    wf.add_argument("file")
    wf.set_defaults(func=_cmd_wfilt)

    dl = sub.add_parser("deligne",
                        help="canonical bigrading of a mixed structure")
    dl.add_argument("file")
    dl.set_defaults(func=_cmd_deligne)

    ig = sub.add_parser("integrate",
                        help="integrate a family to a period map")
    ig.add_argument("file")
    ig.add_argument("--out", help="write the period map here")
    ig.set_defaults(func=_cmd_integrate)

    b = sub.add_parser("build", help="construct a stock example")
    bsub = b.add_subparsers(dest="what", required=True)
    bc = bsub.add_parser("cktm", help="maximal weight-2 family")
    bc.add_argument("--h20", type=int, required=True)
    bc.add_argument("--h11", type=int, required=True)
    bh = bsub.add_parser("hodge-tate", help="n independent full strings")
    bh.add_argument("--k", type=int, required=True)
    bh.add_argument("--n", type=int, required=True)
    bs = bsub.add_parser("sym-family", help="symmetric family on 2d strings")
    bs.add_argument("--d", type=int, required=True)
    bd = bsub.add_parser("diag-cone", help="diagonal cone on 2d strings")
    bd.add_argument("--d", type=int, required=True)
    for p in (bc, bh, bs, bd):
        p.add_argument("--out", help="write the object here")
        p.set_defaults(func=_cmd_build)

    bo = sub.add_parser("bound", help="print a dimension bound")
    bosub = bo.add_subparsers(dest="what", required=True)
    b1 = bosub.add_parser("cktm", help="weight-2 family bound")
    b1.add_argument("--h20", type=int, required=True)
    b1.add_argument("--h11", type=int, required=True)
    b2 = bosub.add_parser("symmetric", help="best family over n strings")
    b2.add_argument("--n", type=int, required=True)
    b3 = bosub.add_parser("ct", help="commuting symmetric-system rank bound")
    b3.add_argument("--n", type=int, required=True)
    for p in (b1, b2, b3):
        p.set_defaults(func=_cmd_bound)

    c = sub.add_parser("catalog", help="reproduce the weight-2 table")
    c.add_argument("which", choices=["table1"])
    c.add_argument("--search", action="store_true",
                   help="also run the randomized search on every cone")
    c.add_argument("--restarts", type=int, default=200)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=_cmd_catalog)

    s = sub.add_parser("search", help="randomized abelian-family search")
    s.add_argument("file")
    s.add_argument("--restarts", type=int, default=200)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--max-steps", type=int, default=None, dest="max_steps")
    s.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
