"""Span tracing of hodgelim's layer boundaries, installed from outside.

The tracer replaces chosen public functions and methods of the ``hodgelim``
modules by wrappers that record one span per call: name, start, end, parent
span and job id.  Spans live in flat arrays while the run lasts and are
written out at its end.  A name bound into another module by
``from .x import y`` is a second reference to the same function object, so
:meth:`Tracer.install` rebinds every reference it finds in every loaded
``hodgelim`` module; otherwise such calls would go unseen.

Self time of a span is its duration minus the part of that interval covered
by its child spans (and minus the tracer's own bookkeeping for those
children).  Scalar arithmetic is far too fine-grained to wrap; it shows up
in the self time of its callers.
"""
from __future__ import annotations

import json
import os
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter


# ---------------------------------------------------------------------------
# targets: (module, attribute or "Class.method", span name, hooks)
# ---------------------------------------------------------------------------

def _nnz_entries(rows) -> tuple[int, int, int]:
    """Nonzero count, entry count and largest bit length of triple rows."""
    nnz = entries = bits = 0
    for row in rows:
        entries += len(row)
        for a, b, d in row:
            if a or b:
                nnz += 1
                bits = max(bits, abs(a).bit_length(), abs(b).bit_length(),
                           d.bit_length())
    return nnz, entries, bits


def _solve_stats(tr: "Tracer", args, kwargs) -> None:
    tr.counters["endo.solve_in_span.unknowns"] += args[0].dim


def _rref_stats(tr: "Tracer", args, kwargs) -> None:
    nnz, entries, bits = _nnz_entries(args[0])
    c = tr.counters
    c["matrices.t_rref.nnz"] += nnz
    c["matrices.t_rref.entries"] += entries
    c["matrices.t_rref.max_bits"] = max(c["matrices.t_rref.max_bits"], bits)


def _kernel_stats(tr: "Tracer", args, kwargs) -> None:
    # the condition matrix of a solve is the one solve_in_span hands to t_kernel
    if tr.stack and tr.names[tr.name_of[tr.stack[-1]]] == "endo.solve_in_span":
        nnz, entries, _ = _nnz_entries(args[0])
        c = tr.counters
        c["endo.solve_in_span.cond_rows"] += len(args[0])
        c["endo.solve_in_span.nnz"] += nnz
        c["endo.solve_in_span.entries"] += entries


def _load_stats(tr: "Tracer", args, kwargs) -> None:
    tr.counters["io.load_file.bytes"] += os.path.getsize(args[0])


def _dump_after(tr: "Tracer", args, kwargs, result) -> None:
    tr.counters["io.dump_text.bytes"] += len(result)


def _exit_after(tr: "Tracer", args, kwargs, result) -> None:
    tr.counters[f"cli.exit_{result}"] += 1


def _search_before(tr: "Tracer", args, kwargs) -> None:
    orbit_like = args[0]
    orbit = getattr(orbit_like, "orbit", orbit_like)
    tr.search_base.append(orbit.cone.span(orbit.ambient).dim)


def _search_after(tr: "Tracer", args, kwargs, result) -> None:
    base = tr.search_base.pop()
    c = tr.counters
    c["search.restarts"] += len(result.restart_dims)
    c["search.steps"] += sum(d - base for d in result.restart_dims)
    c["search.useful"] += sum(d == result.best_dim for d in result.restart_dims)


def _builders_targets():
    import hodgelim.builders as b
    return [("builders", name, "builders", None, None)
            for name, obj in vars(b).items()
            if isinstance(obj, types.FunctionType) and not name.startswith("_")
            and obj.__module__ == b.__name__]


IO_READERS = ("matrix_from_json", "hs_from_json", "mhs_from_json",
              "pmhs_from_json", "orbit_from_json", "ivi_from_json",
              "polymap_from_json")

TARGETS = [
    ("endo", "solve_in_span", "endo.solve_in_span", _solve_stats, None),
    ("endo", "centralizer_in", "endo.centralizer_in", None, None),
    ("endo", "isometry_algebra", "endo.isometry_algebra", None, None),
    ("matrices", "Mat.__add__", "matrices.mat_add", None, None),
    ("matrices", "Mat.__sub__", "matrices.mat_add", None, None),
    ("matrices", "Mat.__mul__", "matrices.mat_scale", None, None),
    ("matrices", "t_rref", "matrices.t_rref", _rref_stats, None),
    ("matrices", "t_kernel", "matrices.t_kernel", _kernel_stats, None),
    ("matrices", "t_matmul", "matrices.t_matmul", None, None),
    ("subspaces", "Subspace.span", "subspaces.span", None, None),
    ("subspaces", "Subspace.__add__", "subspaces.sum", None, None),
    ("subspaces", "Subspace.__and__", "subspaces.intersect", None, None),
    ("subspaces", "Subspace.__le__", "subspaces.le", None, None),
    ("subspaces", "Subspace.complement_in", "subspaces.complement_in",
     None, None),
    ("subspaces", "Subspace.map_by", "subspaces.map_by", None, None),
    ("filtrations", "weight_filtration", "filtrations.weight_filtration",
     None, None),
    ("filtrations", "verify_phs", "filtrations.verify_phs", None, None),
    ("mixed", "deligne_bigrading", "mixed.deligne_bigrading", None, None),
    ("mixed", "verify_mhs", "mixed.verify_mhs", None, None),
    ("mixed", "verify_pmhs", "mixed.verify_pmhs", None, None),
    ("mixed", "filtration_lowering", "mixed.filtration_lowering", None, None),
    ("forms", "signature", "forms.signature", None, None),
    ("forms", "hermitian_positive_definite",
     "forms.hermitian_positive_definite", None, None),
    ("orbits", "limit_context", "orbits.limit_context", None, None),
    ("orbits", "verify_orbit", "orbits.verify_orbit", None, None),
    ("orbits", "verify_ivi", "orbits.verify_ivi", None, None),
    ("orbits", "verify_maximality", "orbits.verify_maximality", None, None),
    ("orbits", "integrate_ivi", "orbits.integrate_ivi", None, None),
    ("orbits", "check_integrability", "orbits.check_integrability",
     None, None),
    ("search", "greedy_max_abelian", "search.greedy_max_abelian",
     _search_before, _search_after),
    ("io", "load_file", "io.load_file", _load_stats, None),
    ("io", "dump_text", "io.dump_text", None, _dump_after),
    *[("io", name, "io.from_json", None, None) for name in IO_READERS],
    ("cli", "main", "cli.main", None, _exit_after),
]

# spans whose call count and self time are reported; "io.from_json" and the
# "builders" spans of _builders_targets gather several functions and report
# self time only
COUNTED_SPANS = sorted({t[2] for t in TARGETS} - {"io.from_json"})
# spans whose time including callees is also reported, as the outermost
# occurrence of the name on each call path
INCLUSIVE_SPANS = ("endo.solve_in_span", "orbits.limit_context", "cli.main")


class Tracer:
    """Records spans of the wrapped hodgelim functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.jobs: list[str] = []
        self._job_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.job_of = array("I")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.bookkeeping = array("d")  # tracer time spent inside the span
        self.stack: list[int] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.search_base: list[int] = []
        self.paused = False
        self._job = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def set_job(self, job: str) -> None:
        if job not in self._job_ids:
            self._job_ids[job] = len(self.jobs)
            self.jobs.append(job)
        self._job = self._job_ids[job]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, before=None, after=None):
        tr = self
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            if tr.paused:
                return fn(*args, **kwargs)
            stack = tr.stack
            parent = stack[-1] if stack else -1
            if before is not None:
                t0 = perf_counter()
                tr.paused = True
                try:
                    before(tr, args, kwargs)
                finally:
                    tr.paused = False
                if parent >= 0:
                    tr.bookkeeping[parent] += perf_counter() - t0
            idx = len(tr.start)
            tr.name_of.append(nid)
            tr.job_of.append(tr._job)
            tr.parent.append(parent)
            tr.bookkeeping.append(0.0)
            tr.end.append(0.0)
            stack.append(idx)
            tr.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                t0 = perf_counter()
                after(tr, args, kwargs, result)
                if parent >= 0:
                    tr.bookkeeping[parent] += perf_counter() - t0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind every module-level reference to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "hodgelim"
                                         or k.startswith("hodgelim."))]
        for mod_name, attr, name, before, after in TARGETS + _builders_targets():
            module = sys.modules[f"hodgelim.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__,
                                                    before, after))
                else:
                    wrapped = self.wrap(name, raw, before, after)
                # aliases such as ``__rmul__ = __mul__`` share the object
                for key, value in list(cls.__dict__.items()):
                    if value is raw:
                        self._patch(cls, key, wrapped)
            else:
                raw = getattr(module, attr)
                wrapped = self.wrap(name, raw, before, after)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._patch(mod, key, wrapped)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus child coverage minus bookkeeping."""
        return self_times(self.start, self.end, self.parent, self.bookkeeping)

    def inclusive_time(self, name: str, skip_jobs=()) -> float:
        """Summed duration of the outermost spans called ``name``."""
        nid = self._name_ids.get(name)
        skip = {self._job_ids[j] for j in skip_jobs if j in self._job_ids}
        total = 0.0
        for i in range(len(self.start)):
            if self.name_of[i] != nid or self.job_of[i] in skip:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != nid:
                p = self.parent[p]
            if p < 0:
                total += self.end[i] - self.start[i]
        return total

    def write_spans(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name_of[i]],
                                     round(self.start[i], 7),
                                     round(self.end[i], 7), self.parent[i],
                                     self.jobs[self.job_of[i]]]) + "\n")


def self_times(start, end, parent, bookkeeping=None) -> list[float]:
    """Self time of each span from flat start/end/parent arrays.

    Child intervals are clipped to their parent and merged before they are
    subtracted, so overlapping or out-of-range children never count twice.
    """
    children: defaultdict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        s, e = start[i], end[i]
        covered = 0.0
        cur_s = cur_e = None
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            cs, ce = max(start[c], s), min(end[c], e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        extra = bookkeeping[i] if bookkeeping is not None else 0.0
        out.append(max(0.0, e - s - covered - extra))
    return out
