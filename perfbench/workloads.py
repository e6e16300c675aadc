"""The benchmark's three workloads: inputs, jobs and output checks.

Every job is a real user job: an in-process ``hodgelim.cli.main([...])``
call on a JSON file written during set-up, or one public API call where the
command line has no subcommand.  ``prepare(seed, workdir)`` builds the
inputs with ``hodgelim.builders`` and ``hodgelim.io``, writes them, and
returns the job list of one pass.  Job names do not depend on the seed, so
the reference outputs of one seed and the canonical-coordinate invariants
can be looked up by name for any other seed.

``seed=None`` means canonical coordinates: the objects exactly as the
builders return them.  A seed moves them by a seeded change of basis g
(a signed permutation for ``certify``, a dense rational matrix for
``dense``); ``search`` keeps its inputs and passes the seed to the
program's own ``--seed``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from hodgelim import builders, cli, forms, io, orbits
from hodgelim.filtrations import DecFiltration, IncFiltration
from hodgelim.forms import BilForm
from hodgelim.matrices import Mat
from hodgelim.orbits import IVI, NilpotentCone, NilpotentOrbit
from hodgelim.scalars import GR, I
from hodgelim.subspaces import Subspace

REFERENCE_SEED = 0


@dataclass(frozen=True)
class Job:
    name: str  # stable across seeds
    kind: str  # warm-up runs one job of every kind
    run: Callable[[], tuple[int, str]]  # -> (exit code, stdout)


def cli_job(name: str, kind: str, argv: list[str]) -> Job:
    def run() -> tuple[int, str]:
        out, err = _stdio.StringIO(), _stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue()
    return Job(name, kind, run)


def maximality_job(name: str, path: str) -> Job:
    def run() -> tuple[int, str]:
        # looked up at call time, so the tracer's wrapper is seen
        rep = orbits.verify_maximality(io.ivi_from_json(io.load_file(path)))
        return (0 if rep.ok else 1), io.dump_text(rep.to_dict())
    return Job(name, "maximality", run)


def signature_job(name: str, path: str) -> Job:
    def run() -> tuple[int, str]:
        _, q, _, _, _ = io.pmhs_from_json(io.load_file(path))
        return 0, io.dump_text({"dim": q.dim,
                                "signature": forms.signature(q.matrix)})
    return Job(name, "signature", run)


def _write(workdir: str, name: str, data) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(io.dump_text(data))
    return path


def _shuffled(jobs: list[Job], seed) -> list[Job]:
    random.Random(f"order:{seed}").shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# change of basis
# ---------------------------------------------------------------------------

class Basis:
    """Coordinates x' = g x: operators go to g N g^-1, vectors to g v, and
    the form matrix M to g^-T M g^-1, so Q'(g u, g v) = Q(u, v)."""

    def __init__(self, g: Mat):
        self.g = g
        self.gi = g.inverse()

    def op(self, m: Mat) -> Mat:
        return self.g @ m @ self.gi

    def form(self, q: BilForm) -> BilForm:
        return BilForm(self.gi.transpose() @ q.matrix @ self.gi, q.parity)

    def inc(self, w: IncFiltration) -> IncFiltration:
        return IncFiltration({k: w.at(k).map_by(self.g) for k in w.support()})

    def dec(self, f: DecFiltration) -> DecFiltration:
        return f.map_by(self.g)

    def orbit(self, o: NilpotentOrbit) -> NilpotentOrbit:
        return NilpotentOrbit(o.weight, self.form(o.form), self.dec(o.filtration),
                              NilpotentCone(tuple(self.op(x)
                                                  for x in o.cone.generators)))

    def ivi(self, ivi: IVI) -> IVI:
        return IVI(self.orbit(ivi.orbit), tuple(self.op(x) for x in ivi.family))


def signed_permutation(n: int, rng: random.Random) -> Basis:
    perm = list(range(n))
    rng.shuffle(perm)
    return Basis(Mat([[rng.choice((1, -1)) if j == perm[i] else 0
                       for j in range(n)] for i in range(n)]))


def dense_rational(n: int, rng: random.Random) -> Basis:
    pool = (GR(-2), GR(-1), GR(0), GR(1), GR(2), GR(1) / 2, GR(-1) / 2)
    while True:
        g = Mat([[rng.choice(pool) for _ in range(n)] for _ in range(n)])
        try:
            return Basis(g)
        except ZeroDivisionError:
            continue


# ---------------------------------------------------------------------------
# search: centralizer solves on very sparse operator spaces
# ---------------------------------------------------------------------------

CATALOG_RESTARTS = 20
CATALOG_SEEDS_PER_CONE = 3
# (strings n, jobs per pass); restarts are few because the fixed cost of a
# Hodge-Tate job (limit context, verification) already dominates
HODGE_TATE = ((5, 5), (6, 5), (7, 3))
HODGE_TATE_RESTARTS = 3


def search_cones() -> list[tuple[str, NilpotentOrbit]]:
    """The 13 cones of the table-1 catalog, each as an orbit of its row."""
    out = []
    for i, row in enumerate(builders.table1_catalog()):
        o = row.orbit
        for j, cone in enumerate(row.cones):
            out.append((f"row{i}.cone{j}",
                        NilpotentOrbit(o.weight, o.form, o.filtration, cone)))
    return out


def prepare_search(seed, workdir: str) -> list[Job]:
    base = 0 if seed is None else seed * 1000
    jobs = []
    for label, orbit in search_cones():
        path = _write(workdir, label, io.orbit_to_json(orbit))
        for r in range(CATALOG_SEEDS_PER_CONE):
            jobs.append(cli_job(
                f"search/{label}/{r}", "search-catalog",
                ["search", path, "--restarts", str(CATALOG_RESTARTS),
                 "--seed", str(base + r)]))
    for n, count in HODGE_TATE:
        path = _write(workdir, f"ht{n}", io.orbit_to_json(
            builders.hodge_tate_orbit(2, n)))
        for r in range(count):
            jobs.append(cli_job(
                f"search/ht{n}/{r}", "search-ht",
                ["search", path, "--restarts", str(HODGE_TATE_RESTARTS),
                 "--seed", str(base + r)]))
    return _shuffled(jobs, seed)


# ---------------------------------------------------------------------------
# certify: limit contexts of the named families
# ---------------------------------------------------------------------------

def certify_families() -> list[tuple[str, IVI]]:
    fams = [(f"cktm{h20}.{h11}", builders.build_max_ivi_k2(h20, h11))
            for h20 in range(1, 5) for h11 in range(1, 7)]
    fams += [(f"catalog{i}", row.witness)
             for i, row in enumerate(builders.table1_catalog())]
    fams += [(f"sym{d}", builders.symmetric_family_ivi(d)) for d in (1, 2, 3)]
    return fams


CERTIFY_VARIANTS = 3  # signed permutations per family and pass


def prepare_certify(seed, workdir: str) -> list[Job]:
    rng = random.Random(f"certify:{seed}")
    jobs = []
    for label, ivi in certify_families():
        for v in range(CERTIFY_VARIANTS):
            moved = ivi if seed is None else signed_permutation(
                ivi.orbit.ambient, rng).ivi(ivi)
            path = _write(workdir, f"{label}.{v}", io.ivi_to_json(moved))
            jobs.append(cli_job(f"verify-ivi/{label}/{v}", "verify-ivi",
                                ["verify", "ivi", path]))
            jobs.append(cli_job(f"integrate/{label}/{v}", "integrate",
                                ["integrate", path]))
            jobs.append(maximality_job(f"maximality/{label}/{v}", path))
    jobs.append(cli_job("catalog/table1", "catalog", ["catalog", "table1"]))
    return _shuffled(jobs, seed)


# ---------------------------------------------------------------------------
# dense: the same kinds of object, small, in a dense rational basis
# ---------------------------------------------------------------------------

# Jordan types of the nilpotent matrices given to wfilt, dims 4 to 10
JORDAN_TYPES = ((4,), (2, 2), (3, 2), (5,), (3, 3), (4, 2, 1), (2, 2, 2, 1),
                (6, 2), (3, 3, 2, 1), (4, 3, 3), (5, 3, 2))
# Hodge types of split mixed structures, real dims 2 to 8; (p, q) with
# p != q brings its conjugate (q, p) along
SPLIT_TYPES = (((1, 0),), ((0, 0), (1, 1)), ((1, 1), (2, 0)),
               ((2, 1), (0, 0)), ((1, 0), (2, 2), (0, 0)),
               ((2, 0), (1, 0), (1, 1)), ((3, 1), (2, 0), (1, 1), (0, 0)),
               ((3, 2), (2, 1), (1, 0)), ((3, 2), (2, 1), (2, 0), (1, 0)))
# CKTM families with ambient <= 7 and a nonempty cone; a conjugated
# ambient of 10 already costs seconds per family.  The two of ambient 6
# are left out: their verify-ivi jobs sat right at the 90th percentile,
# whose value then jumped between cost clusters from run to run.
DENSE_CKTM = ((1, 2), (1, 3), (1, 5), (2, 1), (2, 3), (3, 1))
DENSE_VARIANTS = 3  # bases per object and pass, to average over g


def jordan_nilpotent(parts) -> Mat:
    n = sum(parts)
    rows = [[0] * n for _ in range(n)]
    start = 0
    for p in parts:
        for i in range(p - 1):
            rows[start + i + 1][start + i] = 1
        start += p
    return Mat(rows)


def split_mhs(types) -> tuple[IncFiltration, DecFiltration]:
    """A mixed structure that is the direct sum of its Hodge pieces."""
    n = sum(1 if p == q else 2 for p, q in types)

    def e(i):
        return tuple(GR(1) if j == i else GR(0) for j in range(n))

    vectors: list[tuple[int, int, tuple]] = []
    idx = 0
    for p, q in types:
        if p == q:
            vectors.append((p, q, e(idx)))
            idx += 1
        else:
            x, y = e(idx), e(idx + 1)
            vectors.append((p, q, tuple(a + I * b for a, b in zip(x, y))))
            vectors.append((q, p, tuple(a - I * b for a, b in zip(x, y))))
            idx += 2
    w = IncFiltration({l: Subspace.span(
        [v for p, q, v in vectors if p + q <= l], n)
        for l in sorted({p + q for p, q, _ in vectors})})
    f = DecFiltration({a: Subspace.span(
        [v for p, q, v in vectors if p >= a], n)
        for a in range(0, max(p for p, _, _ in vectors) + 2)})
    return w, f


def prepare_dense(seed, workdir: str) -> list[Job]:
    rng = random.Random(f"dense:{seed}")

    def basis(n):
        return Basis(Mat.identity(n)) if seed is None else dense_rational(n, rng)

    jobs = []
    for v in range(DENSE_VARIANTS):
        for parts in JORDAN_TYPES:
            label = "jordan" + "-".join(map(str, parts))
            b = basis(sum(parts))
            path = _write(workdir, f"{label}.{v}",
                          {"N": io.matrix_to_json(b.op(jordan_nilpotent(parts)))})
            jobs.append(cli_job(f"wfilt/{label}/{v}", "wfilt", ["wfilt", path]))
        for k, types in enumerate(SPLIT_TYPES):
            w, f = split_mhs(types)
            b = basis(w.ambient)
            path = _write(workdir, f"mhs{k}.{v}",
                          io.mhs_to_json(b.inc(w), b.dec(f)))
            jobs.append(cli_job(f"deligne/mhs{k}/{v}", "deligne",
                                ["deligne", path]))
            jobs.append(cli_job(f"verify-mhs/mhs{k}/{v}", "verify-mhs",
                                ["verify", "mhs", path]))
        for h20, h11 in DENSE_CKTM:
            label = f"cktm{h20}.{h11}"
            ivi = builders.build_max_ivi_k2(h20, h11)
            o = ivi.orbit
            b = basis(o.ambient)
            moved = b.ivi(ivi)
            mo = moved.orbit
            pmhs = io.pmhs_to_json(mo.weight, mo.form,
                                   b.inc(o.limit_weight_filtration()),
                                   mo.filtration, mo.cone.barycenter())
            path = _write(workdir, f"{label}.pmhs.{v}", pmhs)
            jobs.append(cli_job(f"verify-pmhs/{label}/{v}", "verify-pmhs",
                                ["verify", "pmhs", path]))
            jobs.append(signature_job(f"signature/{label}/{v}", path))
            path = _write(workdir, f"{label}.ivi.{v}", io.ivi_to_json(moved))
            jobs.append(cli_job(f"verify-ivi/{label}/{v}", "verify-ivi",
                                ["verify", "ivi", path]))
    return _shuffled(jobs, seed)


PREPARE = {"search": prepare_search, "certify": prepare_certify,
           "dense": prepare_dense}


def warmup_jobs(jobs: list[Job]) -> list[Job]:
    """The first job of every kind in name order, so that warm-up does the
    same work whatever the seed's job order."""
    seen, out = set(), []
    for job in sorted(jobs, key=lambda j: j.name):
        if job.kind not in seen:
            seen.add(job.kind)
            out.append(job)
    return out


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def invariants(obj):
    """The coordinate-free part of a report: ok flags, check verdicts, a
    signature, and every field whose name mentions a dimension."""
    if not isinstance(obj, dict):
        return None
    out = {}
    for key, value in obj.items():
        if key in ("ok", "certified", "family_ok", "signature") \
                or "dim" in key:
            out[key] = value
        elif key == "checks":
            out[key] = [[c["name"], c["ok"]] for c in value]
        elif isinstance(value, dict):
            sub = invariants(value)
            if sub:
                out[key] = sub
    return out


class Checker:
    """Decides whether one job's exit code and stdout are correct.

    At the reference seed both must match the recorded reference exactly
    (exit code and SHA-256 of stdout).  At any other seed a search job must
    report a certified family that verifies, and every other job must give
    the exit code and the invariants recorded for the same object in
    canonical coordinates.
    """

    def __init__(self, reference: dict, workload: str, seed: int):
        self.expected = reference["workloads"][workload]
        self.exact = seed == reference["seed"]
        self.workload = workload

    def ok(self, name: str, rc, out: str) -> bool:
        exp = self.expected.get(name)
        if exp is None or rc != exp["rc"]:
            return False
        if self.exact:
            return digest(out) == exp["sha256"]
        try:
            data = json.loads(out)
        except ValueError:
            return False
        if self.workload == "search":
            return data.get("certified") is True and data.get("family_ok") is True
        return invariants(data) == exp["invariants"]
