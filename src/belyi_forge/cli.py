"""Command-line front end.

Every pipeline stage is a subcommand with reproducible, scriptable output:
JSON (or CSV/DOT where noted) on stdout, machine-readable JSON error
objects on stderr, and exit codes 0 (success), 1 (verification mismatch
or numerical failure), 2 (usage error).

Word strings use single-letter codes resolved by the seed's family:
a, b for the two-letter rewriting alphabet and A, B, g, d, D for the
five-letter one (alpha, beta, gamma, delta, delta-bar).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .arrangement_jd import (
    census_matches_jstats,
    jd_census,
    jstats,
    verify_Jd_dual_path,
)
from .belyi_numeric import (
    DEFAULT_TOL,
    DEGREE_GUARD,
    DegreeGuardError,
    NoConvergenceError,
    shabat_for_derivation,
    solution_to_json,
    tree_for_derivation,
    winding_census,
)
from .profile_core import profile_satisfies_E, profile_to_json
from .seed_families import (
    SeedDomainError,
    format_seed,
    parse_seed,
    seed_start,
    seed_to_json,
)
from .surface_counts import (
    BoundTable,
    bound_table,
    lowest_nu_construction,
    nodal_surface_count,
    seed_grid,
    singular_census_3d,
    spectrum,
)
from .tree_realization import RealizationError, export_dot, export_json_adjacency
from .word_engine import (
    AlphabetMismatchError,
    LetterNotApplicableError,
    NoFamilyRecordedError,
    admissible_ends,
    enumerate_LE,
    paper_word_families,
    trajectory,
    word_from_str,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures emit JSON on stderr."""

    def error(self, message: str):
        _emit_error("usage", message)
        raise SystemExit(EXIT_USAGE)


def _emit_error(kind: str, message: str, **extra) -> None:
    payload = {"error": {"type": kind, "message": message, **extra}}
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stderr.flush()


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_seeds(args) -> int:
    rows = []
    all_ok = True
    for seed in seed_grid(args.max_degree):
        name = format_seed(seed)
        if args.family != "all" and not name.startswith(args.family + ":"):
            continue
        # seed_start raises SeedDomainError on an invalid profile, so every
        # listed profile is valid.
        tri, prof = seed_start(seed)
        ok_e = profile_satisfies_E(prof, tri.nu)
        all_ok = all_ok and ok_e
        rows.append(
            {
                "seed": name,
                "spec": seed_to_json(seed),
                "d0": tri.d0,
                "nu": tri.nu,
                "eps": tri.eps,
                "profile_valid": True,
                "satisfies_E": ok_e,
            }
        )
    _write_output(
        _dumps({"count": len(rows), "all_valid": all_ok, "seeds": rows}), args.output
    )
    return EXIT_OK if all_ok else EXIT_MISMATCH


def cmd_derive(args) -> int:
    seed = parse_seed(args.seed)
    word = word_from_str(args.word, seed)
    states = trajectory(seed, word)
    lines = []
    all_e = True
    for i, st in enumerate(states):
        s = st.stats()
        ok = st.satisfies_E()
        all_e = all_e and ok
        lines.append(
            json.dumps(
                {
                    "step": i,
                    "word": st.word,
                    "degree": st.profile.degree,
                    "nu": s.nu,
                    "n_minus1": s.n_minus1,
                    "n_plus1": s.n_plus1,
                    "satisfies_E": ok,
                    "profile": profile_to_json(st.profile),
                },
                sort_keys=True,
            )
        )
    _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK if all_e else EXIT_MISMATCH


def cmd_enumerate(args) -> int:
    seed = parse_seed(args.seed)
    words = enumerate_LE(seed, args.max_len)
    payload = {
        "seed": format_seed(seed),
        "max_len": args.max_len,
        "count": len(words),
        "words": words,
    }
    _write_output(_dumps(payload), args.output)
    return EXIT_OK


def cmd_families(args) -> int:
    seed = parse_seed(args.seed)
    words = paper_word_families(seed, limit=args.limit)
    rows = []
    all_ok = True
    for w, end in zip(words, admissible_ends(seed, words)):
        all_ok = all_ok and end is not None
        rows.append(
            {
                "word": w,
                "admissible": end is not None,
                "degree": end.profile.degree if end else None,
            }
        )
    payload = {
        "seed": format_seed(seed),
        "count": len(rows),
        "all_admissible": all_ok,
        "words": rows,
    }
    _write_output(_dumps(payload), args.output)
    return EXIT_OK if all_ok else EXIT_MISMATCH


def cmd_shabat(args) -> int:
    seed = parse_seed(args.seed)
    word = word_from_str(args.word, seed)
    sol = shabat_for_derivation(
        seed,
        word,
        tol=args.tol,
        max_restarts=args.restarts,
        rng_seed=args.rng_seed,
        max_degree=args.max_degree,
    )
    census = winding_census(sol)
    prof = trajectory(seed, word)[-1].profile
    match = census.matches and sol.profile == prof
    payload = {
        "seed": format_seed(seed),
        "word": word,
        "degree": prof.degree,
        "solution": solution_to_json(sol),
        "census": census.as_dict(),
        "census_matches_profile": match,
    }
    _write_output(_dumps(payload), args.output)
    return EXIT_OK if (sol.converged and match) else EXIT_MISMATCH


def cmd_jd_verify(args) -> int:
    # The counts refuse d < 3 and the census holds the degree guard, so both
    # run before the dual-path check reads J_d exactly and in fixed point.
    st = jstats(args.degree)
    census = jd_census(args.degree)
    dual = verify_Jd_dual_path(args.degree)
    match = census_matches_jstats(census, st)
    dual_ok = dual < 1e-20
    payload = {
        "degree": args.degree,
        "expected": st.as_dict(),
        "census": census.as_dict(),
        "dual_path_max_diff": dual,
        "dual_path_ok": dual_ok,
        "match": match,
    }
    _write_output(_dumps(payload), args.output)
    return EXIT_OK if (match and dual_ok) else EXIT_MISMATCH


def cmd_table(args) -> int:
    if args.nu is not None and args.nu < 1:
        raise ValueError(f"--nu must be >= 1, got {args.nu}")
    tbl = bound_table(args.max_degree)
    rows = tbl.rows
    if args.nu is not None:
        rows = tuple(r for r in rows if r.nu == args.nu)
    tbl = BoundTable(rows=rows)
    if args.format == "csv":
        _write_output(tbl.to_csv(), args.output)
    else:
        _write_output(_dumps(tbl.to_json()), args.output)
    return EXIT_OK


def cmd_surface_verify(args) -> int:
    flags = ("seed", "word", "tol", "restarts", "rng_seed")
    given = [f"--{f.replace('_', '-')}" for f in flags if getattr(args, f) is not None]
    if args.nodal and given:
        raise ValueError(f"--nodal builds its own surface and solves nothing; it takes no "
                         f"{' or '.join(given)}")
    if args.word is not None and args.seed is None:
        raise ValueError("--word needs the --seed it applies to")
    d = args.degree
    # The counts refuse d < 3, and the 2D census holds its degree guard, so
    # a paired surface runs it before it reads its construction or solves;
    # the census is cached, and the 3D census reads it from the cache.  The
    # construction is read once: the state the word reaches from the seed,
    # the catalogue's state of lowest nu at d, or None for the nodal surface
    # (also when nothing is catalogued at d).
    counts = jstats(d)
    if args.nodal:
        end = None
    else:
        jd_census(d)
        if args.seed is None:
            end = lowest_nu_construction(d)
        else:
            seed = parse_seed(args.seed)
            end = trajectory(seed, word_from_str(args.word or "", seed))[-1]
    if end is None:
        expected = {1: nodal_surface_count(d)}
        provenance = "nodal"
        sol = None
    else:
        if end.profile.degree != d:
            raise ValueError(
                f"word reaches degree {end.profile.degree}, arrangement degree is {d}"
            )
        expected = spectrum(counts, end.profile)
        provenance = f"{format_seed(end.seed)} {end.word or '(empty)'}"
        solver = {"tol": args.tol, "max_restarts": args.restarts, "rng_seed": args.rng_seed}
        solver = {name: value for name, value in solver.items() if value is not None}
        sol = shabat_for_derivation(end.seed, end.word, max_degree=d, **solver)
    census = singular_census_3d(d, sol)
    match = census.by_type == expected and census.verified
    payload = {
        "degree": d,
        "construction": provenance,
        "expected_by_type": {f"A{k}": v for k, v in sorted(expected.items())},
        "expected_total": sum(expected.values()),
        "census": census.as_dict(),
        "match": match,
    }
    _write_output(_dumps(payload), args.output)
    return EXIT_OK if match else EXIT_MISMATCH


def cmd_export(args) -> int:
    seed = parse_seed(args.seed)
    word = word_from_str(args.word, seed)
    tree = tree_for_derivation(seed, word)
    if args.format == "dot":
        _write_output(export_dot(tree), args.output)
    else:
        _write_output(_dumps(export_json_adjacency(tree)), args.output)
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", default=None, help="write output to a file (UTF-8)")


def _add_seed_word(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--seed", required=True, help="seed flags, e.g. F1:1,1 or F2:0,1,2,2"
    )
    p.add_argument("--word", default="", help="letter string over the seed's alphabet")


def _add_solver(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOL,
        help="bound on the solution's residual, its largest vertex defect: "
        "|l*prod(v-u)^deg(u) -/+ 2| at each vertex v over the other colour's "
        f"vertices u (default {DEFAULT_TOL})",
    )
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--rng-seed", type=int, default=0)


@cache
def build_parser() -> _Parser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    root = _Parser(prog="belyi-forge", description=__doc__)
    sub = root.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("seeds", help="list and validate seed triples over grids")
    p.add_argument("--family", choices=["F1", "F2", "F3", "all"], default="all")
    p.add_argument("--max-degree", type=int, default=60)
    _add_common(p)
    p.set_defaults(func=cmd_seeds)

    p = sub.add_parser("derive", help="apply a word, print the state trajectory")
    _add_seed_word(p)
    _add_common(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("enumerate", help="list admissible words up to a length")
    p.add_argument("--seed", required=True)
    p.add_argument("--max-len", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("families", help="catalogued word families plus subset check")
    p.add_argument("--seed", required=True)
    p.add_argument("--limit", type=int, default=20)
    _add_common(p)
    p.set_defaults(func=cmd_families)

    p = sub.add_parser(
        "shabat",
        help="solve vertex positions and census the critical points",
        description="Solve the derived tree's vertex positions, then count p's critical "
        "points by winding number around each white vertex of multiplicity m >= 1 "
        "(S = sum over black vertices a of (m_a + 1)/(w - a), p' = (p + 1)*S). "
        "The census proves the critical points and their multiplicities given the "
        "float positions; it does not prove that an exact Shabat polynomial lies "
        "nearby, nor which plane tree of the passport p draws.",
    )
    _add_seed_word(p)
    _add_solver(p)
    p.add_argument("--max-degree", type=int, default=DEGREE_GUARD)
    _add_common(p)
    p.set_defaults(func=cmd_shabat)

    p = sub.add_parser(
        "jd-verify", help="census J_d's critical points and check its lines against the exact J_d"
    )
    p.add_argument("--degree", type=int, required=True)
    # The 2D census reads its points from the folding lattice, not a grid;
    # the flag is still accepted (and ignored) so existing scripts keep working.
    # It stays while the benchmark's surface workload passes `--grid 64`:
    # removing it waits for a change that also edits perfbench/.
    p.add_argument("--grid", type=int, help=argparse.SUPPRESS)
    _add_common(p)
    p.set_defaults(func=cmd_jd_verify)

    p = sub.add_parser("table", help="lower-bound table over catalogued constructions")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--nu", type=int, default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("surface-verify", help="trivariate singular-point census")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--seed", default=None)
    p.add_argument("--word", default=None)
    p.add_argument("--nodal", action="store_true", help="use the all-nodes surface")
    # A paired surface is refused past the 2D census's guard before it
    # solves, so its solve takes max_degree=d and has no guard flag.  None
    # marks a solver flag left out: the nodal surface refuses a given one,
    # and a paired solve keeps shabat_solve's defaults, which are shabat's.
    _add_solver(p)
    p.set_defaults(tol=None, restarts=None, rng_seed=None)
    _add_common(p)
    p.set_defaults(func=cmd_surface_verify)

    p = sub.add_parser("export", help="export the derived tree as DOT or JSON")
    _add_seed_word(p)
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    _add_common(p)
    p.set_defaults(func=cmd_export)

    return root


_USAGE_ERRORS = (SeedDomainError, AlphabetMismatchError, DegreeGuardError)
_MISMATCH_ERRORS = (
    NoConvergenceError,
    NoFamilyRecordedError,
    LetterNotApplicableError,
    RealizationError,
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_USAGE
    except _MISMATCH_ERRORS as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_MISMATCH
    except ValueError as exc:
        _emit_error("ValueError", str(exc))
        return EXIT_USAGE
    except OSError as exc:
        # An --output path that cannot be opened.
        _emit_error("OSError", str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
