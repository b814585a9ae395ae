"""Workload definitions: the fixed list of calls each workload makes, the
warm-up calls of its set-up, and the check applied to every call's output.

A call is plain data (a tuple whose first item names its kind), so the same
seed and pass number always yield the same list.  They fix the order of the
calls, never which calls are made.  Every call goes through the package's
public functions or ``belyi_forge.cli.main``, and it looks each function up
on its module at call time, so the wrappers that the traced run patches into
those modules see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
import time
import warnings
from pathlib import Path

NAMES = ("catalogue", "enumerate", "solve", "surface")
MODULES = (
    "profile_core",
    "seed_families",
    "word_engine",
    "tree_realization",
    "belyi_numeric",
    "arrangement_jd",
    "surface_counts",
    "cli",
)

# The constructions of degree <= 18 in the package's catalogue.
SOLVE_CONSTRUCTIONS = (
    ("F2:1,0,0,0", ""),
    ("F1:0,1", ""),
    ("F1:0,1", "a"),
    ("F1:0,1", "ab"),
    ("F1:0,1", "aba"),
    ("F2:1,1,0,0", ""),
    ("F2:1,2,0,0", ""),
    ("F3:1,1,0,1,0", ""),
)
SOLVE_MAX_DEGREE = 18
# Every pass solves each construction once per rng_seed here.  The set is
# fixed, not drawn from the workload seed: whether the degree-18 solve
# converges depends on the rng_seed, and a failure costs 32 restarts, so
# drawn rng_seeds would make the work of a run depend on its seed.
SOLVE_RNG_SEEDS = (0, 1)

# Smallest inputs, one per kind of call a workload makes.  They run before
# timing in every process; caches are cleared after them.
WARM_UPS = {
    "catalogue": (("cli", ("table", "--max-degree", "3")), ("count_Anu", 3, 3)),
    "enumerate": (
        ("enumerate_LE", "F2:1,0,0,1", 1),
        ("cli", ("seeds", "--max-degree", "9")),
        ("cli", ("families", "--seed", "F2:1,0,0,1")),
        ("max_h", "F1:0,1"),
        ("enumerate_LE", "F1:0,1", 1),
    ),
    "solve": (
        ("solve", "F2:1,0,0,0", "", 0),
        ("cli", ("shabat", "--seed", "F2:1,0,0,0")),
    ),
    "surface": (
        ("cli", ("jd-verify", "--degree", "3")),
        ("cli", ("surface-verify", "--degree", "3", "--nodal")),
    ),
}


class PackageMissing(RuntimeError):
    """The checkout has no belyi_forge sources to benchmark."""


def load_package(root: Path) -> dict:
    """Import belyi_forge from ``root/src`` and return its modules by name."""
    src = (root / "src").resolve()
    if not (src / "belyi_forge" / "__init__.py").is_file():
        raise PackageMissing(f"no belyi_forge package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("belyi_forge")
    if Path(pkg.__file__).resolve().parent != src / "belyi_forge":
        raise PackageMissing(f"belyi_forge was imported from {pkg.__file__}")
    mods = {name: importlib.import_module(f"belyi_forge.{name}") for name in MODULES}
    mods["belyi_forge"] = pkg
    return mods


def _seed_names(mods: dict, d_max: int, five_letter: bool) -> list[str]:
    sf = mods["seed_families"]
    return [
        sf.format_seed(s)
        for s in mods["surface_counts"].seed_grid(d_max)
        if isinstance(s, sf.F2) == five_letter
    ]


def build_calls(
    name: str, seed: int, mods: dict, smoke: bool = False, pass_index: int = 0
) -> list[tuple]:
    """The workload's list of calls for one pass, ordered by seed and pass."""
    rng = random.Random(f"{name}:{seed}:{pass_index}")
    if name == "catalogue":
        d_top, nus, table = (18, [3, 4, 5], "30") if smoke else (90, list(range(3, 12)), "200")
        # One round per nu, each visiting every degree once in shuffled order:
        # a degree recurs only after about 30 others, more than the catalogue
        # cache holds, and the seed moves the order but not the amount of work.
        rng.shuffle(nus)
        sweep = []
        for nu in nus:
            degrees = list(range(3, d_top + 1, 3))
            rng.shuffle(degrees)
            sweep += [("count_Anu", d, nu) for d in degrees]
        return [("cli", ("table", "--max-degree", table))] + sweep
    if name == "enumerate":
        d_max, length = (20, 6) if smoke else (60, 12)
        calls = [
            ("enumerate_LE", "F2:1,2,2,2", 5 if smoke else 9),
            ("enumerate_LE", "F2:0,2,2,2", 5 if smoke else 10),
            ("cli", ("seeds", "--max-degree", str(d_max))),
        ]
        calls += [("cli", ("families", "--seed", s)) for s in _seed_names(mods, d_max, True)]
        for s in _seed_names(mods, d_max, False):
            calls += [("max_h", s), ("enumerate_LE", s, length)]
    elif name == "solve":
        cons = [c for c in SOLVE_CONSTRUCTIONS if len(c[1]) <= 1] if smoke else SOLVE_CONSTRUCTIONS
        rng_seeds = SOLVE_RNG_SEEDS[:1] if smoke else SOLVE_RNG_SEEDS
        calls = [("solve", s, w, r) for r in rng_seeds for s, w in cons]
        calls += [
            ("cli", ("shabat", "--seed", "F1:0,1", "--rng-seed", "0")),
            ("cli", ("shabat", "--seed", "F1:0,1", "--word", "a")),
        ]
    elif name == "surface":
        degrees = range(3, 5) if smoke else range(3, 10)
        calls = []
        for d in degrees:
            calls += [
                ("cli", ("jd-verify", "--degree", str(d))),
                ("cli", ("surface-verify", "--degree", str(d), "--nodal")),
            ]
        calls.append(("cli", ("surface-verify", "--degree", "3")))
        if not smoke:
            calls += [
                ("cli", ("surface-verify", "--degree", "9", "--seed", "F1:0,1")),
                ("cli", ("jd-verify", "--degree", "6", "--grid", "64")),
            ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(calls)
    return calls


def label(call: tuple) -> str:
    """Stable name of a call; keys the reference outputs and the failures."""
    kind, *args = call
    if kind == "cli":
        return "cli " + " ".join(args[0])
    return kind + " " + " ".join(str(a) if a != "" else "''" for a in args)


def reset_caches(mods: dict) -> None:
    """Clear every functools cache in the package, as in a fresh process."""
    for mod in mods.values():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", "").startswith(
                "belyi_forge"
            ):
                obj.cache_clear()


def execute(call: tuple, mods: dict) -> tuple[float, str | None, object]:
    """Run one call; return (seconds, failure reason or None, output digest).

    Only the call itself is timed.  An exception fails the call, with its
    type as the reason.  The digest is what the reference outputs record for
    the call; for a solver call it is True, as the census check passed.
    """
    kind, *args = call
    run = {
        "cli": _run_cli,
        "count_Anu": _count_Anu,
        "enumerate_LE": _enumerate_LE,
        "max_h": _max_h,
        "solve": _solve,
    }[kind]
    t0 = time.perf_counter()
    try:
        dt, reason, digest = run(mods, *args)
    except Exception as exc:  # a failed call, not a failed benchmark
        return time.perf_counter() - t0, f"exception:{type(exc).__name__}", None
    return dt, reason, digest


def _count_Anu(mods, d, nu):
    sc = mods["surface_counts"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        value = sc.count_Anu(d, nu)
        dt = time.perf_counter() - t0
    warned = any(issubclass(w.category, sc.ExistenceUnverifiedWarning) for w in caught)
    return dt, None, [value, warned]


def _enumerate_LE(mods, text, length):
    seed = mods["seed_families"].parse_seed(text)
    t0 = time.perf_counter()
    words = mods["word_engine"].enumerate_LE(seed, length)
    return time.perf_counter() - t0, None, len(words)


def _max_h(mods, text):
    seed = mods["seed_families"].parse_seed(text)
    t0 = time.perf_counter()
    value = mods["word_engine"].max_h(seed)
    return time.perf_counter() - t0, None, str(value)


def _solve(mods, text, word_text, rng_seed):
    sf, we, bn = mods["seed_families"], mods["word_engine"], mods["belyi_numeric"]
    t0 = time.perf_counter()
    seed = sf.parse_seed(text)
    word = we.word_from_str(word_text, seed)
    sol = bn.shabat_for_derivation(seed, word, max_degree=SOLVE_MAX_DEGREE, rng_seed=rng_seed)
    census = bn.critical_census_uni(sol.polynomial())
    match = bn.census_matches_profile(census, we.trajectory(seed, word)[-1].profile)
    dt = time.perf_counter() - t0
    if not match:
        return dt, "census_mismatch", None
    return dt, None, True


def _run_cli(mods, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = mods["cli"].main(list(argv))
        except SystemExit as exc:  # argparse usage errors exit this way
            code = exc.code
        dt = time.perf_counter() - t0
    if code != 0:
        return dt, f"exit:{code}{_error_type(err.getvalue())}", None
    return dt, None, _cli_digest(argv[0], out.getvalue())


def _error_type(stderr: str) -> str:
    """':<type>' of the JSON error object the CLI printed, if it printed one."""
    for line in reversed(stderr.splitlines()):
        try:
            return ":" + json.loads(line)["error"]["type"]
        except (ValueError, KeyError, TypeError):
            continue
    return ""


def _cli_digest(sub: str, stdout: str):
    """The part of a successful CLI output that must not change."""
    if sub in ("table", "seeds", "families"):
        return hashlib.sha256(stdout.encode()).hexdigest()
    payload = json.loads(stdout)
    if sub == "jd-verify":
        return {"counts": payload["census"]["counts"], "match": payload["match"]}
    if sub == "surface-verify":
        return {"by_type": payload["census"]["by_type"], "match": payload["match"]}
    if sub == "shabat":
        return {"degree": payload["degree"], "match": payload["census_matches_profile"]}
    raise ValueError(f"no digest defined for the {sub} subcommand")


def check(call: tuple, reason: str | None, digest, reference: dict) -> str | None:
    """Failure reason of a call after comparing it with its reference output.

    A reference of None means the call failed when the references were
    recorded: it may fail again, and if it passes now, its output has
    nothing to be compared with.  A call that passed then must pass now
    with the same digest; otherwise its reason starts with ``reference_``
    and the run is not correct.
    """
    key = label(call)
    if key not in reference:
        return "reference_missing"
    expected = reference[key]
    if expected is None:
        return reason
    if reason is not None:
        return f"reference_failed:{reason}"
    if expected != digest:
        return "reference_mismatch"
    return None
