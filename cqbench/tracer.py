"""Outside-in tracer: spans around cqic's public functions, no edits to src/.

``install`` rebinds every public function of every loaded ``cqic`` module,
in every ``cqic`` module that holds a reference to it (``cqic.regions.
feasible_point``, ``cqic.states.eig_hermitian``, ``cqic.mcsim.
random_nested_code``, ...), to a wrapper that records a span while the
tracer is active.  ``uninstall`` puts every original binding back and
checks that it did.

A span is ``(span_id, parent_id, name, job_id, start, end)``.  Stacks are
per thread, so spans opened in a worker thread of ``run_ex1_sim`` are roots
of that thread; the caller's span then counts its wait for the pool as
self time.  Self time is span time minus the time of its child spans.

A few spans take a finer name or add a count, from arguments or results
seen at the boundary (eigensolves by dimension, LP cells, scan
evaluations, ...).  ``config.active_tolerances`` runs on every numeric call
and is only counted.

Code draws are judged by what happens to them: a simulator draw
(``random_nested_code`` or ``random_code_pair`` outside
``soft_covering_tv``) counts as accepted once ``codeword`` encodes with one
of its codes, matched by generator matrices.  ``soft_covering_tv`` uses its
codes without a public call, so its draws are left out of the yield.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

COUNT_ONLY = frozenset({"config.active_tolerances"})

#: spans kept per thread for the span file; tallies count every span
SPAN_CAP = 200_000


def _dim_bucket(d: int) -> str:
    for cap in (2, 4, 8, 16):
        if d <= cap:
            return f"d{cap}"
    return "d32p"


def _eig_name(args, kwargs, add):
    m = args[0] if args else kwargs["m"]
    return f"linalg.eig_hermitian.{_dim_bucket(len(getattr(m, 'mat', m)))}"


def _lp_name(args, kwargs, add):
    a = args[0] if args else kwargs["a_ub"]
    shape = getattr(a, "shape", ())
    add("lp.feasible_point.cells",
        int(shape[0]) * int(shape[1]) if len(shape) == 2 else 0)
    return "lp.feasible_point"


def _sim_name(args, kwargs, add):
    threads = args[1] if len(args) > 1 else kwargs.get("threads", 1)
    return f"mcsim.run_ex1_sim.t{1 if threads == 1 else 2}"


_NAMERS = {
    "linalg.eig_hermitian": _eig_name,
    "lp.feasible_point": _lp_name,
    "mcsim.run_ex1_sim": _sim_name,
}


def _post_report(result, add):
    add("regions.records", len(result.records))


def _post_scan(result, add):
    add("regions.max_r1_scan.evaluations", result.evaluations)


def _post_sim(result, add):
    add("mcsim.trials", result.config.trials)
    add("mcsim.bias_retries", result.bias_retries)


_POSTS = {
    "regions.thm1_check": _post_report,
    "regions.unstructured_3to1_check": _post_report,
    "regions.thm2_feasible": _post_report,
    "regions.thm3_feasible": _post_report,
    "regions.max_r1_scan": _post_scan,
    "mcsim.run_ex1_sim": _post_sim,
}

_DRAWS = ("gfcoset.random_nested_code", "gfcoset.random_code_pair")


def _code_key(code):
    return tuple((g.shape, g.tobytes())
                 for g in (np.asarray(code.g_i), np.asarray(code.g_oi)))


class _ThreadState:
    def __init__(self):
        self.stack = []                   # [name, start, child_time, id]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self.drawn = {}                   # code key -> id of its draw span
        self.accepted = set()

    def add(self, name: str, n: int) -> None:
        self.counts[name] += n

    def drew(self, result, draw_id: int) -> None:
        self.counts["gfcoset.draw_attempts"] += 1
        for code in (getattr(result, "code2", result),
                     getattr(result, "code3", result)):
            self.drawn[_code_key(code)] = draw_id

    def encoded(self, code) -> None:
        draw_id = self.drawn.pop(_code_key(code), None)
        if draw_id is not None and draw_id not in self.accepted:
            self.accepted.add(draw_id)
            self.counts["gfcoset.draw_accepted"] += 1


class Tracer:
    """Rebinds cqic's public functions to span-recording wrappers."""

    def __init__(self):
        self.active = False
        self.job_id = None
        self.record_spans = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._bindings = []

    # -- binding -----------------------------------------------------------

    @staticmethod
    def _cqic_modules():
        return [m for name, m in sorted(sys.modules.items())
                if (name == "cqic" or name.startswith("cqic.")) and m is not None]

    def install(self) -> None:
        wrappers = {}
        for mod in self._cqic_modules():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or not obj.__module__.startswith("cqic") \
                        or obj.__name__.startswith("_"):
                    continue
                if id(obj) not in wrappers:
                    owner = obj.__module__.rsplit(".", 1)[-1]
                    wrappers[id(obj)] = self._wrap(obj, f"{owner}.{obj.__name__}")
                setattr(mod, attr, wrappers[id(obj)])
                self._bindings.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in self._bindings:
            setattr(mod, attr, obj)
        stale = [f"{mod.__name__}.{attr}" for mod, attr, obj in self._bindings
                 if getattr(mod, attr) is not obj]
        self._bindings = []
        if stale:
            raise RuntimeError(f"bindings not restored: {stale}")

    # -- recording -----------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, fn, key: str):
        tracer = self
        namer = _NAMERS.get(key)
        post = _POSTS.get(key)
        count_only = key in COUNT_ONLY
        is_draw = key in _DRAWS
        is_slice = key == "regions.boundary_slice"
        is_cli = key == "cli.main"
        is_encode = key == "gfcoset.codeword"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            st = tracer._state()
            add = st.add
            if count_only:
                st.calls[key] += 1
                return fn(*args, **kwargs)
            name = namer(args, kwargs, add) if namer else key
            if is_slice:
                args = (_count_probes(args[0], add),) + args[1:]
            span_id = next(tracer._ids)
            parent = st.stack[-1][3] if st.stack else 0
            frame = [name, perf_counter(), 0.0, span_id]
            st.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                st.stack.pop()
                dur = end - frame[1]
                st.calls[name] += 1
                st.self_s[name] += dur - frame[2]
                if st.stack:
                    st.stack[-1][2] += dur
                if tracer.record_spans and len(st.spans) < SPAN_CAP:
                    st.spans.append((span_id, parent, name, tracer.job_id,
                                     frame[1], end))
            if post is not None:
                post(result, add)
            if is_draw and not (st.stack and st.stack[-1][0]
                                == "mcsim.soft_covering_tv"):
                st.drew(result, span_id)
            if is_encode:
                st.encoded(args[0] if args else kwargs["code"])
            if is_cli:
                add("cli.bytes_written", _bytes_written(args, kwargs))
            return result
        return wrapper

    def collect(self) -> dict:
        """Merge and reset the per-thread tallies."""
        calls, self_s, counts, spans = (defaultdict(int), defaultdict(float),
                                        defaultdict(int), [])
        with self._lock:
            states, self._states = self._states, []
        self._local = threading.local()
        for st in states:
            for k, v in st.calls.items():
                calls[k] += v
            for k, v in st.self_s.items():
                self_s[k] += v
            for k, v in st.counts.items():
                counts[k] += v
            spans += st.spans
        return {"calls": dict(calls), "self_s": dict(self_s),
                "counts": dict(counts), "spans": spans}


def _count_probes(fn, add):
    def probe(rates):
        add("regions.boundary_slice.probes", 1)
        return fn(rates)
    return probe


def _bytes_written(args, kwargs) -> int:
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if "--out" not in argv:
        return 0
    out = Path(argv[argv.index("--out") + 1])
    return sum(f.stat().st_size for f in out.iterdir() if f.is_file()) \
        if out.is_dir() else 0


def write_spans(path: Path, spans) -> None:
    """One JSON object per span, gzip-compressed, in start order."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for sid, parent, name, job, start, end in sorted(spans,
                                                         key=lambda s: s[4]):
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "job_id": job, "start": start,
                                 "end": end}) + "\n")
