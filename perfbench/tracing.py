"""Spans and counters recorded from outside the package.

``Tracer.install`` wraps every public module-level function of the package
and patches the wrapper into each module namespace that holds the original,
so a call made through ``cli.shabat_for_derivation`` and one made through
``belyi_numeric.shabat_for_derivation`` are both seen.  Every wrapped call
adds its self time (its duration minus the time of the wrapped calls inside
it) to its function's total.  Calls of the functions in ``SPANS`` are also
kept as spans (id, parent id, name, start, end, call id); the rest are too
frequent to keep one by one.  Counters are read from arguments, results and
``cache_info()``.  State is kept per thread and merged at the end, because
the CLI's thread pool calls wrapped functions from worker threads.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict

SPANS = frozenset(
    {
        "cli.main",
        "surface_counts.bound_table",
        "surface_counts.constructions_up_to",
        "surface_counts.find_construction",
        "surface_counts.count_Anu",
        "surface_counts.seed_grid",
        "surface_counts.build_surface",
        "surface_counts.build_nodal_surface",
        "surface_counts.singular_census_3d",
        "word_engine.enumerate_LE",
        "word_engine.paper_word_families",
        "tree_realization.derive_tree",
        "tree_realization.realize_profile",
        "belyi_numeric.shabat_for_derivation",
        "belyi_numeric.shabat_solve",
        "belyi_numeric.critical_census_uni",
        "arrangement_jd.build_Jd",
        "arrangement_jd.build_Jhat",
        "arrangement_jd.verify_Jd_dual_path",
        "arrangement_jd.jd_census",
        "arrangement_jd.census_with_retries",
        "arrangement_jd.critical_census_2d",
    }
)


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.span: int | None = None
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.distinct: set = set()
        self.spans: list[tuple] = []


def _argument(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _observers(mods: dict) -> dict:
    """Counter updates per function: f(state, fn, args, kwargs, result, exc).

    Plain call counts need no observer; they come from the call tally.
    """
    we, bn = mods["word_engine"], mods["belyi_numeric"]

    def apply_letter(st, fn, args, kwargs, result, exc):
        if exc is None:
            st.counts["letters_applied"] += 1
            # Letters are enum singletons, so their ids identify them and
            # hash far faster than the members themselves.
            st.distinct.add((result.seed, tuple(map(id, result.word))))
        elif isinstance(exc, we.LetterNotApplicableError):
            st.counts["letters_rejected"] += 1

    def shabat_solve(st, fn, args, kwargs, result, exc):
        if exc is None:
            st.counts["restarts"] += result.restarts_used + 1
            return
        st.counts["solve_failures"] += 1
        if isinstance(exc, bn.NoConvergenceError):
            st.counts["restarts"] += _argument(fn, args, kwargs, "max_restarts")

    def critical_census_2d(st, fn, args, kwargs, result, exc):
        if exc is None:
            grid = _argument(fn, args, kwargs, "grid")
            st.counts["census2d_starts"] += grid * grid + len(
                _argument(fn, args, kwargs, "extra_starts")
            )
            st.counts["census2d_points"] += result.total

    def on_success(**amounts):
        def observe(st, fn, args, kwargs, result, exc):
            if exc is None:
                for counter, amount in amounts.items():
                    st.counts[counter] += amount(result)

        return observe

    return {
        "word_engine.apply_letter": apply_letter,
        "word_engine.enumerate_LE": on_success(words_enumerated=len),
        "profile_core.condition_E": on_success(admissibility_passes=bool),
        "surface_counts.singular_census_3d": on_success(pairs_verified=lambda r: r.total),
        "belyi_numeric.shabat_solve": shabat_solve,
        "belyi_numeric.critical_census_uni": on_success(census_unreliable=lambda r: not r.reliable),
        "belyi_numeric.census_matches_profile": on_success(census_mismatches=lambda r: not r),
        "arrangement_jd.census_with_retries": on_success(census2d_incomplete=lambda r: not r.complete),
        "arrangement_jd.critical_census_2d": critical_census_2d,
        "cli.main": on_success(cli_nonzero_exits=lambda r: r != 0),
    }


class Tracer:
    def __init__(self, mods: dict) -> None:
        self._mods = mods
        self._observers = _observers(mods)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._states: list[_ThreadState] = []
        self._patches: list[tuple] = []
        self.call_id: int | None = None

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, key: str, fn):
        observer = self._observers.get(key)
        keep_span = key in SPANS
        cache_info = getattr(fn, "cache_info", None)
        state, ids, clock = self._state, self._ids, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            st = state()
            if keep_span:
                sid, parent = next(ids), st.span
                st.span = sid
            if cache_info is not None:
                before = cache_info()
            frame = [0.0]
            st.stack.append(frame)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                st.stack.pop()
                dt = t1 - t0
                if st.stack:
                    st.stack[-1][0] += dt
                st.self_s[key] += dt - frame[0]
                st.calls[key] += 1
                if keep_span:
                    st.span = parent
                    st.spans.append((sid, parent, key, t0, t1, tracer.call_id))
                if cache_info is not None:
                    after = cache_info()
                    st.counts[key + ".hits"] += after.hits - before.hits
                    st.counts[key + ".misses"] += after.misses - before.misses
                if observer is not None:
                    observer(st, fn, args, kwargs, result, exc)

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Patch a wrapper over each public function into every namespace."""
        wrappers = {}
        for mod in self._mods.values():
            short = mod.__name__.removeprefix("belyi_forge.")
            for name, obj in vars(mod).items():
                if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    wrappers[id(obj)] = self._wrap(f"{short}.{name}", obj)
        for mod in self._mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patches):
            setattr(mod, name, obj)
        self._patches.clear()

    def reset(self) -> None:
        with self._lock:
            for st in self._states:
                st.self_s.clear()
                st.calls.clear()
                st.counts.clear()
                st.distinct.clear()
                st.spans.clear()

    def collect(self) -> dict:
        """Merge the per-thread state recorded since the last reset."""
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        counts: defaultdict[str, int] = defaultdict(int)
        distinct: set = set()
        spans: list[tuple] = []
        with self._lock:
            for st in self._states:
                for k, v in st.self_s.items():
                    self_s[k] += v
                for k, v in st.calls.items():
                    calls[k] += v
                for k, v in st.counts.items():
                    counts[k] += v
                distinct |= st.distinct
                spans.extend(st.spans)
        counts["distinct_states"] = len(distinct)
        spans.sort(key=lambda s: s[3])
        return {"self_s": dict(self_s), "calls": dict(calls), "counts": dict(counts), "spans": spans}


def layer_metrics(rec: dict) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    counts, calls, self_s = rec["counts"], rec["calls"], rec["self_s"]

    def n(name):
        return counts.get(name, calls.get(name, 0))

    def t(*names):
        return sum(self_s.get(name, 0.0) for name in names)

    def layer(module):
        return sum(v for k, v in self_s.items() if k.startswith(module + "."))

    def ratio(a, b):
        return a / b if b else 0.0

    applied = n("letters_applied")
    we_self = layer("word_engine")
    hits = n("surface_counts.constructions_up_to.hits")
    builds = n("surface_counts.constructions_up_to.misses")
    census2d = n("arrangement_jd.census_with_retries")
    starts = n("census2d_starts")
    tests = n("profile_core.condition_E")
    solves = n("belyi_numeric.shabat_solve")
    return {
        "word_engine.letters_applied": (applied, "count"),
        "word_engine.letters_rejected": (n("letters_rejected"), "count"),
        "word_engine.distinct_states": (n("distinct_states"), "count"),
        "word_engine.useful_letter_ratio": (ratio(n("distinct_states"), applied), "ratio"),
        "word_engine.words_enumerated": (n("words_enumerated"), "count"),
        "word_engine.self_s": (we_self, "s"),
        "word_engine.letters_per_s": (ratio(applied, we_self), "1/s"),
        "profile_core.admissibility_tests": (tests, "count"),
        "profile_core.admissibility_pass_ratio": (ratio(n("admissibility_passes"), tests), "ratio"),
        "profile_core.self_s": (layer("profile_core"), "s"),
        "seed_families.seeds_validated": (n("seed_families.validate_seed"), "count"),
        "seed_families.self_s": (layer("seed_families"), "s"),
        "surface_counts.catalogue_builds": (builds, "count"),
        "surface_counts.catalogue_hit_ratio": (ratio(hits, hits + builds), "ratio"),
        "surface_counts.catalogue_self_s": (t("surface_counts.constructions_up_to"), "s"),
        "surface_counts.lookups": (n("surface_counts.find_construction"), "count"),
        "surface_counts.table_self_s": (t("surface_counts.bound_table"), "s"),
        "surface_counts.census3d_calls": (n("surface_counts.singular_census_3d"), "count"),
        "surface_counts.census3d_self_s": (t("surface_counts.singular_census_3d"), "s"),
        "surface_counts.pairs_verified": (n("pairs_verified"), "count"),
        "tree_realization.trees_built": (n("tree_realization.realize_profile"), "count"),
        "tree_realization.surgeries": (n("tree_realization.apply_letter_tree"), "count"),
        "tree_realization.self_s": (layer("tree_realization"), "s"),
        "belyi_numeric.solves": (solves, "count"),
        "belyi_numeric.solves_per_derivation": (
            ratio(solves, n("belyi_numeric.shabat_for_derivation")), "ratio"),
        "belyi_numeric.restarts": (n("restarts"), "count"),
        "belyi_numeric.solve_failures": (n("solve_failures"), "count"),
        "belyi_numeric.solve_self_s": (
            t("belyi_numeric.shabat_solve", "belyi_numeric.shabat_for_derivation"), "s"),
        "belyi_numeric.census_calls": (n("belyi_numeric.critical_census_uni"), "count"),
        "belyi_numeric.census_self_s": (t("belyi_numeric.critical_census_uni"), "s"),
        "belyi_numeric.census_unreliable": (n("census_unreliable"), "count"),
        "belyi_numeric.census_mismatches": (n("census_mismatches"), "count"),
        "arrangement_jd.builds": (n("arrangement_jd.build_Jd"), "count"),
        "arrangement_jd.build_self_s": (t("arrangement_jd.build_Jd", "arrangement_jd.build_Jhat"), "s"),
        "arrangement_jd.dual_check_s": (t("arrangement_jd.verify_Jd_dual_path"), "s"),
        "arrangement_jd.census2d_calls": (census2d, "count"),
        "arrangement_jd.census2d_rounds_per_census": (
            ratio(n("arrangement_jd.critical_census_2d"), census2d), "ratio"),
        "arrangement_jd.census2d_starts": (starts, "count"),
        "arrangement_jd.census2d_useful_ratio": (ratio(n("census2d_points"), starts), "ratio"),
        "arrangement_jd.census2d_incomplete": (n("census2d_incomplete"), "count"),
        "arrangement_jd.census2d_self_s": (
            t("arrangement_jd.critical_census_2d", "arrangement_jd.census_with_retries"), "s"),
        "cli.calls": (n("cli.main"), "count"),
        "cli.nonzero_exits": (n("cli_nonzero_exits"), "count"),
        "cli.self_s": (layer("cli"), "s"),
    }
