"""Command-line interface: output shapes, exit codes, determinism."""

import argparse
import hashlib
import json
import math

import pytest

from belyi_forge import F2, arrangement_jd, belyi_numeric, cli, format_seed, word_engine
from belyi_forge.arrangement_jd import jd_census
from belyi_forge.belyi_numeric import DEGREE_GUARD
from belyi_forge.cli import build_parser, main
from belyi_forge.surface_counts import lowest_nu_construction, nodal_surface_count, seed_grid
from belyi_forge.tree_realization import parse_dot


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seeds_validates_grid(capsys):
    code, out, err = run(capsys, "seeds", "--max-degree", "30")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_valid"] is True
    assert obj["count"] == len(obj["seeds"]) > 0
    first = obj["seeds"][0]
    assert {"seed", "d0", "nu", "eps", "profile_valid", "satisfies_E"} <= set(first)


def test_seeds_family_filter(capsys):
    code, out, err = run(capsys, "seeds", "--max-degree", "40", "--family", "F1")
    assert code == 0
    obj = json.loads(out)
    assert all(row["seed"].startswith("F1:") for row in obj["seeds"])


def test_derive_emits_state_per_step(capsys):
    code, out, err = run(capsys, "derive", "--seed", "F1:1,1", "--word", "ab")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 3
    assert [row["degree"] for row in lines] == [21, 27, 33]
    assert [row["n_minus1"] for row in lines] == [3, 4, 5]
    assert all(row["satisfies_E"] for row in lines)
    assert lines[-1]["word"] == "ab"


def test_enumerate_lists_language(capsys):
    code, out, err = run(capsys, "enumerate", "--seed", "F1:0,1", "--max-len", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["words"] == ["", "a", "ab", "aba", "abab"]


@pytest.mark.parametrize("max_len", ["-1", "65"])
def test_enumerate_length_outside_the_guard_is_usage_error(capsys, max_len):
    code, out, err = run(capsys, "enumerate", "--seed", "F1:0,1", "--max-len", max_len)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_families_reports_subset(capsys):
    code, out, err = run(capsys, "families", "--seed", "F2:0,2,1,1", "--limit", "10")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_admissible"] is True
    assert obj["count"] == len(obj["words"]) > 0
    assert all(row["admissible"] for row in obj["words"])


def test_families_without_a_catalogue_entry_is_mismatch(capsys):
    code, out, err = run(capsys, "families", "--seed", "F2:1,1,0,0")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["type"] == "NoFamilyRecordedError"


# sha256 of the stdout of `families --seed S`, and its exit code, for every
# second-family seed of seed_grid(60), recorded while each family word was
# still replayed from the seed.  The digests cover the admissible and degree
# fields as well as the words; the seeds with no catalogue entry print
# nothing and exit 1.
_NO_FAMILY = ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1)
FAMILIES_STDOUT_SHA256 = {
    "F2:0,1,1,1": ("697ca7280e6a6bed6858beadaf6ddb2a9efce73edacbaa467ca032efb12d6833", 0),
    "F2:0,2,1,1": ("ea380e41f540470ac25f757fc71ed584337beeb73218484e4241a2571154e6d5", 0),
    "F2:0,3,1,1": ("88a347b5b85b810394de08f12301cd144443462955228b644984f1f6d242bb32", 0),
    "F2:1,0,0,0": _NO_FAMILY,
    "F2:1,0,0,1": ("2d73488d065a6fc1fcabce5b7de9a432a964e52513491542549f9de9c824820c", 0),
    "F2:1,0,0,2": ("e9484a4cae98bab8fbc29e46e5a6cc0c8650abe30a0ddcc873e70c37e115a3e0", 0),
    "F2:1,0,1,1": ("1c400f8d150f245884c8df48712e86fd89dab2cf189904aa145f17978e376c21", 0),
    "F2:1,0,1,2": ("d02947843dd0b9603d44380527dfcffaad1bd0e73ead0bc8a1e6ea04cdef4159", 0),
    "F2:1,1,0,0": _NO_FAMILY,
    "F2:1,1,0,1": ("3eaa1acc259c76950cccf989b82e09a032e727d3e4e675e521f83f19a2e86d5b", 0),
    "F2:1,1,1,1": ("daf12053fcc405ca7d840db15d06c38c41596d0343454cc485aa1d1677ed4bbb", 0),
    "F2:1,2,0,0": _NO_FAMILY,
    "F2:1,2,0,1": ("2af3e4875cb3b0ae4d776fc41b7fab4c5ae3fddee2760618d9f79ab6d99e4386", 0),
    "F2:1,2,1,1": ("900787d91a0536ec7c43f8a7b9401fcfd89a5fa17991b721c2a6d3b2d8fc8de1", 0),
    "F2:1,3,0,0": _NO_FAMILY,
    "F2:1,4,0,0": _NO_FAMILY,
    "F2:1,5,0,0": _NO_FAMILY,
    "F2:1,6,0,0": _NO_FAMILY,
    "F2:1,7,0,0": _NO_FAMILY,
    "F2:1,8,0,0": _NO_FAMILY,
    "F2:1,9,0,0": _NO_FAMILY,
}


def test_families_pins_every_second_family_seed():
    seeds = [format_seed(s) for s in seed_grid(60) if isinstance(s, F2)]
    assert seeds == list(FAMILIES_STDOUT_SHA256)


@pytest.mark.parametrize("seed", list(FAMILIES_STDOUT_SHA256))
def test_families_stdout_is_pinned(capsys, seed):
    code, out, err = run(capsys, "families", "--seed", seed)
    assert (_sha256(out), code) == FAMILIES_STDOUT_SHA256[seed]


# The same pins for the first- and third-family seeds of seed_grid(60),
# whose family is the alternating words up to max_h (20 letters for F1:0,1,
# where max_h is infinite), recorded before the catalogue's walk moved into
# the word engine.
TWO_LETTER_FAMILIES_STDOUT_SHA256 = {
    "F1:0,1": ("8ff487516bdbec74c6ae02e69fc2ff67a4aa41d18f1761121dde4a4721fdf715", 0),
    "F1:0,2": ("1799a3a9ee9f4b699767620b5d07463fb2b9221eb84676e23f07cd8163d9cad6", 0),
    "F1:1,1": ("457759e5870ef0529be21acf14c6e97d036bb35f533ec32e12b5155d9b67de88", 0),
    "F1:1,2": ("e5c95e46f80260fe75d76d7b30ab03b9ccbb2bf4afada15bdd674d8c21bb4a89", 0),
    "F1:2,1": ("2507afa7d80e5e24ede8fb211f6952a01717f8c88fc1dfac47c6f2a51b6d7885", 0),
    "F1:3,1": ("e6318dc8398c8ce1c6a7f64824599a002633b9f924eae31d750b8ddfda8ece4e", 0),
    "F1:4,1": ("6f9011885c71401868e68e8359ec324c260af212069883225962b93643a82678", 0),
    "F3:1,-1,0,2,0": ("1d85800ec20b5383d1728a1354ca43555275778f640430d0a62955c5510fbedb", 0),
    "F3:1,-1,1,2,0": ("a7d98226c0f77cfd0f592180b4b1a97909a49a5a4957a96ae1a834852c17502d", 0),
    "F3:1,-1,2,2,0": ("5ac945bb2b429901232cc618c9aea8b20efbbe04838b5522e9526a5088d0bee6", 0),
    "F3:1,0,0,2,0": ("a4af628f47043fbdfe16328e926755f8a90eb97b8ba2986e1b82d0fe9bec348d", 0),
    "F3:1,0,1,2,0": ("2d292b24bcba1e407d27b5086634a0c6bd5b7eecde5b8d075e07456800faf8a6", 0),
    "F3:1,1,0,1,0": ("ad2b4d704beeb809c3f161486009cfb4ff0289493ba04b3dd7655f41297b3a9e", 0),
    "F3:1,1,0,2,0": ("7d3883d061a9f4d2932f9e87fbb04140df62aab29f86cdfde4e35a60cfc5d8da", 0),
    "F3:1,1,1,1,0": ("c877fbd57e423f8b71b83bff2bfbbb41dff59340c8ae91a6c41f9e8e546dda0f", 0),
    "F3:1,1,2,1,0": ("b688f614731a84453980769d7cd1e0236d940344299d00386a950e913a6387f7", 0),
    "F3:1,1,3,1,0": ("f9dc7a8b89cec14a958f2b7d09e59fb1539d8db41effc661f126a6ae354e06df", 0),
    "F3:2,-1,0,2,0": ("40d5e218a15c7889b1f35c53bb978e968df65fb1ff4f784195754b2279e66bd9", 0),
    "F3:2,-1,1,2,0": ("b5bedeb3089348b895e8075e9ca70488fba645644fb2055df0a3006c33f0685a", 0),
    "F3:2,0,0,2,0": ("6cc9cb971db6948725e053b25e921ed10d2797499320ca75f4558c174aa4cdd7", 0),
    "F3:2,1,0,1,0": ("330eba5be74ddedb58335c0ad51cbfa4aa70415630449b0aae2a4f94f926c96e", 0),
    "F3:2,1,0,2,0": ("6b71e4ae739a78f407d302efcddfa1d4db0426bd79b412cc7e7bbf3bb9c2fe81", 0),
    "F3:2,1,1,1,0": ("08057109f49f06e377278a4dd8f655121a7ac5f8100d9e347ce701e21bb8054f", 0),
    "F3:2,1,2,1,0": ("2eabaeb845f74e44d130d2382278f7b3a1159827eb90f4c9c83aa3e9bcab7ae0", 0),
    "F3:2,1,3,1,0": ("66d1c6fbcda13b483c3b95e22eeae8bdbbe16d07f50d7bd6552548a32113b637", 0),
    "F3:3,-1,0,2,0": ("36cc2e05ce57c271d6d36ecf00ccef68be1b691e9b9b23fe9e8107119481e6b6", 0),
    "F3:3,-1,1,2,0": ("68cf108e5f79b190def7985310a16354df419e511c41d5d8c25cef0dbb1c896c", 0),
    "F3:3,0,0,2,0": ("da52882a4c8d8eb9776e5af5a37b274e4e4cf81540c207a2554bf6d71bda30a3", 0),
    "F3:3,1,0,1,0": ("6db9af24b9ebd547914d93702709265820b3591eb529741e3a9bb1e08ec76fdf", 0),
    "F3:3,1,1,1,0": ("0dfe6d067b83d2020e6475618824be0ec50af1a4fc1f7796a451bdc7e37b71e7", 0),
    "F3:3,1,2,1,0": ("8dcfd547995500356ff5ce09596fa68c3236f471ee01e8ee156dace16ea0eef8", 0),
}


def test_families_pins_every_two_letter_seed():
    seeds = [format_seed(s) for s in seed_grid(60) if not isinstance(s, F2)]
    assert seeds == list(TWO_LETTER_FAMILIES_STDOUT_SHA256)


@pytest.mark.parametrize("seed", list(TWO_LETTER_FAMILIES_STDOUT_SHA256))
def test_two_letter_families_stdout_is_pinned(capsys, seed):
    code, out, err = run(capsys, "families", "--seed", seed)
    assert (_sha256(out), code) == TWO_LETTER_FAMILIES_STDOUT_SHA256[seed]


# sha256 of the stdout of `families --seed F1:0,1 --limit N`; nu = 2, so the
# limit is what ends the family.
FAMILIES_LIMIT_STDOUT_SHA256 = {
    "0": "3c6c70f459e03b9185e1ccb24d868bff94198e4cb0352571fc3ac496dbd19330",
    "7": "15dd8288efa648b13129b0088878e2299ed020cdd84fcaeacfb884f03d7a62f7",
    "64": "aa1a69d8bdc9a486d23390d402d325f01143750375afdfbd038cb5dbed4d6cd0",
}


@pytest.mark.parametrize("limit", list(FAMILIES_LIMIT_STDOUT_SHA256))
def test_families_limit_within_the_guard_is_pinned(capsys, limit):
    code, out, err = run(capsys, "families", "--seed", "F1:0,1", "--limit", limit)
    assert (_sha256(out), code) == (FAMILIES_LIMIT_STDOUT_SHA256[limit], 0)


@pytest.mark.parametrize("limit", ["-1", "65"])
def test_families_limit_outside_the_guard_is_usage_error(capsys, monkeypatch, limit):
    built = []
    alternating_word = word_engine.alternating_word

    def counting(length):
        built.append(length)
        return alternating_word(length)

    monkeypatch.setattr(word_engine, "alternating_word", counting)
    code, out, err = run(capsys, "families", "--seed", "F1:0,1", "--limit", limit)
    assert (code, out, built) == (2, "", [])
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_families_applies_each_distinct_prefix_once(capsys, monkeypatch):
    # The 63 words of F2:0,3,1,1 have 63 distinct nonempty prefixes; reading
    # each word from the seed applied 846 letters.
    applied = []
    step = word_engine._step

    def counting(profile, nu, letter, d_max):
        applied.append(letter)
        return step(profile, nu, letter, d_max)

    monkeypatch.setattr(word_engine, "_step", counting)
    code, out, err = run(capsys, "families", "--seed", "F2:0,3,1,1")
    assert code == 0
    assert json.loads(out)["count"] == 63
    assert len(applied) == 63


def test_shabat_solves_and_censuses(capsys):
    code, out, err = run(capsys, "shabat", "--seed", "F1:0,1", "--word", "")
    assert code == 0
    obj = json.loads(out)
    assert obj["solution"]["converged"] is True
    assert obj["solution"]["residual"] < 1e-8
    assert obj["census_matches_profile"] is True


def test_jd_verify_small_degree(capsys):
    code, out, err = run(capsys, "jd-verify", "--degree", "3", "--grid", "40")
    assert code == 0
    obj = json.loads(out)
    assert obj["match"] is True
    assert obj["dual_path_ok"] is True
    assert obj["census"]["counts"] == {"0.0": 3, "8.0": 0, "-1.0": 1}


def test_jd_verify_refuses_a_degree_past_the_guard_before_building_jd(capsys, monkeypatch):
    # The census holds the degree guard and runs first; the dual-path check's
    # exact values must not be read before the guard fires.
    def exact_values(d, points):
        raise AssertionError("the exact values were read")

    monkeypatch.setattr(arrangement_jd, "jd_exact_values", exact_values)
    code, out, err = run(capsys, "jd-verify", "--degree", "300")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "DegreeGuardError"


@pytest.mark.parametrize("subcommand", ["jd-verify", "surface-verify"])
@pytest.mark.parametrize("flag", ["--precision", "--den-bound"])
def test_build_precision_flags_are_gone(capsys, subcommand, flag):
    # J_d is exact by construction; nothing about its build can be set.
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--degree", "3", flag, "256"])
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "usage"


@pytest.mark.parametrize(
    "argv",
    [
        ("jd-verify", "--degree", "5", "--tol", "1e-6"),
        ("surface-verify", "--degree", "3", "--nodal", "--census-tol", "1e-6"),
    ],
    ids=" ".join,
)
def test_census_tolerance_flags_are_gone(capsys, argv):
    # Every census compares values within the one fixed VALUE_TOL.
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "usage"


@pytest.mark.parametrize(
    "flag, value",
    [("--tol", v) for v in ("nan", "inf", "0", "-1")]
    + [("--cluster-tol", v) for v in ("nan", "inf", "0", "-1")]
    + [("--restarts", v) for v in ("0", "-3")],
)
def test_solver_input_out_of_range_is_usage_error(capsys, monkeypatch, flag, value):
    steps = []
    linear_factors = belyi_numeric._linear_factors

    def counting(*args):
        steps.append(1)
        return linear_factors(*args)

    monkeypatch.setattr(belyi_numeric, "_linear_factors", counting)
    # A cached restart 0 would count no steps even if the refusal came late.
    belyi_numeric._tree_system.cache_clear()
    # F1:0,1 derives a degree-9 tree that is not a star, so its solve runs
    # Newton, and its inputs are refused before the first step.  The census
    # no longer clusters, so argparse refuses --cluster-tol as it refuses any
    # flag it does not know.
    try:
        code, out, err = run(capsys, "shabat", "--seed", "F1:0,1", flag, value)
    except SystemExit as exc:
        code, (out, err) = exc.code, capsys.readouterr()
    assert (code, out) == (2, "")
    expected = "usage" if flag == "--cluster-tol" else "ValueError"
    assert json.loads(err)["error"]["type"] == expected
    assert steps == []


@pytest.mark.parametrize(
    "argv",
    [
        ("shabat", "--seed", "F1:0,1"),
        ("shabat", "--seed", "F3:1,1,0,1,0", "--word", "ab", "--max-degree", "28"),
        ("surface-verify", "--degree", "15"),
    ],
    ids=" ".join,
)
def test_negative_rng_seed_is_usage_error_before_any_restart(capsys, monkeypatch, argv):
    # The first and third solves land at restart 0, which draws no random
    # numbers, so they once exited 0; the second needs restart 2 and once
    # exited 2 only when numpy refused the seed there.
    steps = []
    linear_factors = belyi_numeric._linear_factors

    def counting(*args):
        steps.append(1)
        return linear_factors(*args)

    monkeypatch.setattr(belyi_numeric, "_linear_factors", counting)
    # A cached restart 0 would count no steps even if the refusal came late.
    belyi_numeric._tree_system.cache_clear()
    code, out, err = run(capsys, *argv, "--rng-seed", "-1")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "type": "ValueError", "message": "rng_seed must be >= 0, got -1"
    }
    assert steps == []


@pytest.mark.parametrize(
    "flag, value",
    [("--tol", "-1"), ("--restarts", "0"), ("--rng-seed", "-1"),
     ("--tol", "1e-10"), ("--restarts", "32"), ("--rng-seed", "0")],
)
def test_nodal_surface_refuses_every_solver_flag(capsys, flag, value):
    # The nodal surface solves nothing, so a solver flag is refused whatever
    # its value, its default included; it was once accepted and ignored.
    code, out, err = run(capsys, "surface-verify", "--degree", "9", "--nodal", flag, value)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "type": "ValueError",
        "message": f"--nodal builds its own surface and solves nothing; it takes no {flag}",
    }


def test_paired_surface_solver_flags_keep_their_defaults(capsys):
    plain = run(capsys, "surface-verify", "--degree", "9")
    explicit = run(
        capsys, "surface-verify", "--degree", "9", "--tol", "1e-10", "--restarts", "32",
        "--rng-seed", "0",
    )
    assert explicit == plain and plain[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("--seed", "F2:1,3,0,0", "--max-degree", "21"),
        ("--seed", "F1:0,1", "--word", "aba", "--max-degree", "18"),
        ("--seed", "F1:0,1", "--word", "ab"),
    ],
    ids=" ".join,
)
def test_shabat_converges_where_the_clustered_census_splits(capsys, argv):
    # Each solve converges at the default tol.  The clustered census split
    # the two 10-fold white vertices at degree 21, and some of p's double
    # critical points at degree 18 (every black degree is 3, so it solves
    # for g = (p + 1)^(1/3)), and shabat exited 1; the winding count holds
    # each multiplicity in its circle.
    code, out, err = run(capsys, "shabat", *argv)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    solution, census = payload["solution"], payload["census"]
    assert solution["converged"] and solution["residual"] <= 1e-10
    assert payload["census_matches_profile"] and census["matches"]
    assert "failed_tests" not in census
    assert census["total"] == census["expected_total"] == len(solution["black"]) - 1


# The clustered census's measured limits, which README §4 listed, as
# (exit code, census_matches_profile, the census's counts per circle): at
# its default cluster tolerance it split the double point of F1:0,1 `a` and
# counted the 4-fold white vertex of F2:1,1,0,0 as four simple points, and
# it matched only at the looser tolerance given.  The winding census matches
# both with default flags, and the tolerance is a usage error.
README_CENSUS_LIMITS = {
    ("--seed", "F1:0,1", "--word", "a"): (0, True, [2, 1]),
    ("--seed", "F1:0,1", "--word", "a", "--cluster-tol", "1e-4"): (2, None, None),
    ("--seed", "F2:1,1,0,0"): (0, True, [4]),
    ("--seed", "F2:1,1,0,0", "--cluster-tol", "1e-3"): (2, None, None),
}


@pytest.mark.parametrize("argv", list(README_CENSUS_LIMITS), ids=" ".join)
def test_readme_census_limits_hold(capsys, argv):
    if "--cluster-tol" in argv:
        with pytest.raises(SystemExit) as exc:
            main(["shabat", *argv])
        assert (exc.value.code, None, None) == README_CENSUS_LIMITS[argv]
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "usage"
        return
    code, out, err = run(capsys, "shabat", *argv)
    obj = json.loads(out)
    counts = [circle["count"] for circle in obj["census"]["circles"]]
    assert (code, obj["census_matches_profile"], counts) == README_CENSUS_LIMITS[argv]
    assert err == "" and obj["solution"]["converged"]


def _surface_verify_refuses(capsys, *argv):
    # argv ends with the flag and value that surface-verify does not take.
    with pytest.raises(SystemExit) as exc:
        main(["surface-verify", "--degree", "3", *argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "usage", "message": "unrecognized arguments: " + " ".join(argv[-2:])
    }


def test_surface_verify_takes_no_cluster_tolerance(capsys):
    # Neither U census clusters, so the flag is shabat's only.
    _surface_verify_refuses(capsys, "--nodal", "--cluster-tol", "1e-6")


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_nodal_surface_refuses_a_cluster_tolerance_out_of_range(capsys, value):
    # The flag is gone from surface-verify, so an out-of-range value is
    # refused as a usage error before anything is solved.
    _surface_verify_refuses(capsys, "--nodal", "--cluster-tol", value)


@pytest.mark.parametrize("subcommand", ["jd-verify"])
def test_grid_is_still_accepted_and_ignored(capsys, subcommand):
    code, out, err = run(capsys, subcommand, "--degree", "3", "--grid", "64")
    assert code == 0
    assert out == run(capsys, subcommand, "--degree", "3")[1]


def test_surface_verify_refuses_grid(capsys):
    # Only jd-verify keeps the hidden flag.
    _surface_verify_refuses(capsys, "--grid", "64")


def test_jd_verify_up_to_the_census_guard(capsys):
    # At d=200 the largest |J| at the dual-path points is near 2^430, so the
    # check reads it past 256 bits and still holds its absolute 1e-20.
    code, out, err = run(capsys, "jd-verify", "--degree", "200")
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True and payload["census"]["complete"] is True
    assert payload["dual_path_max_diff"] < 1e-20
    code, out, err = run(capsys, "jd-verify", "--degree", "201")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "DegreeGuardError"


@pytest.mark.parametrize("d", [25, 48, 99, 200])
def test_nodal_surface_verifies_past_the_old_guard(capsys, d):
    code, out, err = run(capsys, "surface-verify", "--degree", str(d), "--nodal")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["match"] is True and payload["census"]["verified"] is True
    assert payload["census"]["total"] == payload["expected_total"] == nodal_surface_count(d)


@pytest.mark.parametrize("d", [0, 1, 2])
def test_jd_verify_refuses_a_small_degree_before_the_census(capsys, monkeypatch, d):
    def refuse(*args, **kwargs):
        raise AssertionError("jd-verify ran a check at a degree it refuses")

    monkeypatch.setattr(cli, "jd_census", refuse)
    monkeypatch.setattr(cli, "verify_Jd_dual_path", refuse)
    code, out, err = run(capsys, "jd-verify", "--degree", str(d))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "type": "ValueError", "message": "counts are defined for d >= 3"
    }

def test_table_csv_rows(capsys):
    code, out, err = run(capsys, "table", "--max-degree", "15", "--nu", "2")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[0] == ["d", "nu", "bound", "seed", "word"]
    bounds = {int(r[0]): int(r[2]) for r in rows[1:]}
    assert bounds == {9: 127, 12: 301, 15: 647}


@pytest.mark.parametrize("nu", ["0", "-1"])
def test_table_nu_below_one_is_usage_error(capsys, monkeypatch, nu):
    # No row has nu < 1, so such a filter would print an empty table; it is
    # refused before the table is built.
    built = []
    monkeypatch.setattr(cli, "bound_table", lambda d_max: built.append(d_max))
    code, out, err = run(capsys, "table", "--max-degree", "9", "--nu", nu)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert "--nu" in error["message"]
    assert built == []


def test_table_json_is_pinned(capsys):
    code, out, err = run(capsys, "table", "--max-degree", "60", "--format", "json")
    assert code == 0
    assert _sha256(out) == "e92030e0ad9a9d1a01250d1c8573276b7daefe37ae0285f6cd0b60d0badf0900"


def test_surface_verify_nodal(capsys):
    code, out, err = run(capsys, "surface-verify", "--degree", "3", "--nodal")
    assert code == 0
    obj = json.loads(out)
    assert obj["match"] is True
    assert obj["expected_total"] == 4
    assert obj["census"]["total"] == 4
    assert obj["census"]["by_type"] == {"A1": 4}


def test_surface_verify_word_needs_a_seed(capsys):
    code, out, err = run(capsys, "surface-verify", "--degree", "3", "--word", "zz")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ValueError"


@pytest.mark.parametrize(
    "construction", [["--seed", "F1:0,1", "--word", "a"], ["--seed", "F1:0,1"], ["--word", "a"]]
)
def test_surface_verify_nodal_takes_no_construction(capsys, construction):
    code, out, err = run(capsys, "surface-verify", "--degree", "4", "--nodal", *construction)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ValueError"


@pytest.mark.parametrize(
    "argv, error",
    [
        (
            ("--degree", "12", "--seed", "F1:0,1"),
            {"type": "ValueError", "message": "word reaches degree 9, arrangement degree is 12"},
        ),
        # The word reaches degree 201, which the 2D census refuses, so the
        # solve is not run.
        (
            ("--degree", "201", "--seed", "F2:0,10,1,1", "--word", "Bg"),
            {"type": "DegreeGuardError", "message": "degree 201 exceeds census guard 200"},
        ),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else v["type"],
)
def test_surface_verify_refuses_before_solving(capsys, monkeypatch, argv, error):
    def refuse(*args, **kwargs):
        raise AssertionError("surface-verify solved a surface it refuses")

    monkeypatch.setattr(belyi_numeric, "shabat_solve", refuse)
    code, out, err = run(capsys, "surface-verify", *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == error


def test_surface_verify_refuses_a_degree_before_reading_its_construction(capsys, monkeypatch):
    # The census guard is checked first, so neither the catalogue nor a
    # word is read at a degree it refuses.
    def refuse(*args, **kwargs):
        raise AssertionError("surface-verify read a construction at a refused degree")

    monkeypatch.setattr(cli, "lowest_nu_construction", refuse)
    monkeypatch.setattr(cli, "trajectory", refuse)
    for argv in (("--degree", "201"), ("--degree", "201", "--seed", "F1:0,1", "--word", "ab")):
        code, out, err = run(capsys, "surface-verify", *argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {
            "type": "DegreeGuardError", "message": "degree 201 exceeds census guard 200"
        }


def test_surface_verify_takes_no_solver_guard(capsys):
    # It solves with max_degree=d, and d has already passed the census guard.
    _surface_verify_refuses(capsys, "--max-degree", "9")


def test_solver_guard_defaults_per_subcommand():
    # shabat keeps the solver's guard; surface-verify has none of its own.
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sub.choices["shabat"].get_default("max_degree") == DEGREE_GUARD == 16
    assert sub.choices["surface-verify"].get_default("max_degree") is None


def test_surface_verify_at_degree_18_verifies_with_default_flags(capsys):
    # The catalogue's construction of lowest nu at d=18 is F1:0,1 aba, past
    # the solver's guard of 16 and within the census's guard of 200.
    code, out, err = run(capsys, "surface-verify", "--degree", "18")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["construction"] == "F1:0,1 aba"
    assert payload["match"] and payload["census"]["verified"]
    assert payload["census"]["by_type"] == payload["expected_by_type"] == {"A1": 91, "A2": 1100}
    assert payload["census"]["winding_census"]["matches"]
    payload = _without_floats(payload)
    assert _sha256(_dumps(payload)) == (
        "ddba4df721b7b04da1d518ad7bab7671d2b4d4b46c7076b8fba36cd1b55e8d1f"
    )
    # The pin the payload had before the winding census joined it.
    del payload["census"]["winding_census"]
    assert _sha256(_dumps(payload)) == (
        "06ed6d7e70a0a0304e86c3ee81581b8bfd9b90e87f9a84e91bb8c19986a6d230"
    )


@pytest.mark.parametrize("d", [3, 9, 12])
def test_surface_verify_catalogue_and_explicit_construction_agree(capsys, d):
    # With no --seed, surface-verify reads the catalogue's construction of
    # lowest nu; naming that construction prints the same bytes.
    end = lowest_nu_construction(d)
    catalogue = run(capsys, "surface-verify", "--degree", str(d))
    explicit = run(
        capsys, "surface-verify", "--degree", str(d), "--seed", format_seed(end.seed),
        "--word", end.word,
    )
    assert catalogue == explicit
    assert catalogue[0] == 0


# sha256 of the payload of `jd-verify --degree d` without its dual-path
# difference, a rounding-level figure of the check's second route, and of the
# payload of `surface-verify --degree d --nodal` without its two reported
# defects.  Recorded with the census on dense coefficients and J_d from the
# rationalized mpmath expansion; the product-form census and the A2
# recurrence must reproduce them.  The nodal entries at d = 5, 7, 8, 10, 11
# and 12 printed "u_value": -0.0, the sign of a rounding residual; they were
# recorded again once the U pairing key folded -0.0 into 0.0, from payloads
# that equal the old ones with every zero made +0.0.
JD_VERIFY_SHA256 = {
    3: "f7b34dc5678aa995ac7cf9803a87025da88cc12fe46343a859031ae02d33431e",
    4: "d155a276671b73cf780da158aecb53676fe977519292cd49d47f840d348c8faf",
    5: "2013fda64f66e2bb9c791f6eec03dcf3e079b7b26aaaa0253ecaf19d1e318cf1",
    6: "693fc34a85232ffa8308250be0297d60d4eeae017619476d1ef4197d3e9a275b",
    7: "1506d8e82d5d3eaba4b9bc9e5383dce49f06bc6deed64f9e360d6982721a3a30",
    8: "8daa4fcf92cd7fdd10c914309e0334aa6eb634d45faeddb93586742d1df4edc2",
    9: "e6aed419714b610dcb0614676e9be383b70bb8a9013a90103bd8a9ddbe908025",
    10: "5524426e2be1e6d0766e20ea93f183d0a52114208b9e188ecd2458c52c83c23f",
    11: "dfc9a928ae9e2cdd2720e5f53e3ff7175f655f05d205c6b7436a309d14152b75",
    12: "16efa6217c3b11ed78b15ebd71a9ffd34635718b28e52a70d84125997da9cd77",
}
NODAL_SURFACE_SHA256 = {
    3: "6798894a2f7e3719fae3414bed461ae56f3a2aa55796dade906b819e775adc17",
    4: "57c750308a13d3c0853da2780728be995f9536bb563077309452faefbecc34ec",
    5: "29f054bfac165d349aa5d5f6452c296085539e4efaad0fb886655c2aafecadaf",
    6: "07e0e39b902da48670c6fe85a6ce0c793c3b477551b1137248a75be1016665fd",
    7: "703436acd248c8fbfaf27bd40c61300fcb204a5c7ceb1125b5520c93de220144",
    8: "620d8fc2a9085d71cff7e61f4e5b424bd29762fcf0a01bc2c68520b49712a6a0",
    9: "3b1df05751f2e8fa94ae66ba8bc263e6055a494922476ba5a0c3bfa4d0dbf2d9",
    10: "b0db96f1d36c38f226ea2dc31a9006c6320bca99ce96a29e56e61120a0849b8d",
    11: "dae29e68829a725bebbf1108bebb4ddda4af3302ae87592ac507e04b28040dee",
    12: "94b7d74e23ea9acd2067faff082f3cc7e5f8793f6e4211cddcbbcf98da8a8aef",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _without_floats(payload):
    """A surface-verify payload without its rounding-level floats: the 3D
    census's two defects and, on a paired surface, the winding census's
    phase step, value defect and modulus ratios."""
    census = payload["census"]
    del census["max_value_defect"], census["max_gradient_defect"]
    winding = census.get("winding_census")
    if winding is not None:
        del winding["max_phase_step"], winding["max_value_defect"]
        for circle in winding["circles"]:
            del circle["modulus_ratio"]
    return payload


@pytest.mark.parametrize("d", sorted(JD_VERIFY_SHA256))
def test_jd_verify_and_nodal_surface_outputs_are_pinned(capsys, d):
    code, out, err = run(capsys, "jd-verify", "--degree", str(d))
    assert code == 0
    payload = json.loads(out)
    assert payload.pop("dual_path_max_diff") < 1e-20
    assert _sha256(_dumps(payload)) == JD_VERIFY_SHA256[d]
    code, out, err = run(capsys, "surface-verify", "--degree", str(d), "--nodal")
    assert code == 0
    payload = json.loads(out)
    del payload["census"]["max_value_defect"], payload["census"]["max_gradient_defect"]
    assert _sha256(_dumps(payload)) == NODAL_SURFACE_SHA256[d]


# sha256 of the whole stdout of `jd-verify --degree d`, dual-path difference
# included, and of the `by_type`, `pairs` and `match` of
# `surface-verify --degree d --nodal`, the pairings recorded when each bounded
# chamber ran its own Newton ascent.  Beside them, the two nodal defects,
# recorded again when the census read its points from the folding lattice
# and J's gradient defect became the Newton step |H^-1 grad J|: they may move
# only at rounding level, here taken as less than a factor of 8.  The pairings at d = 5, 7, 8, 10-12, 14-17, 19-21 and 23
# printed "u_value": -0.0 and were recorded again, as above, when the U
# pairing key began to fold -0.0.  The jd-verify digests were recorded again
# when the line product moved from 256-bit mpmath to 256-bit integer fixed
# point: its difference from the exact values, read as integers at 256
# fractional bits, went from 2.0e-74 (d=3) to 4.3e-61 (d=24) down to 0.0,
# and to 2^-256 at d=24; the payload without that field kept its digest
# (JD_VERIFY_SHA256 above pins it at d <= 12).  The digests at d = 48, 99, 150
# and 200 were recorded while the exact values still came from the expanded
# coefficient grid, before they came from the recurrence run on each point.
JD_VERIFY_STDOUT_SHA256 = {
    3: "c3d252e2997eaf4551490173ded4f0f4a9391cbe722f22e31e7243d9cc2feafe",
    4: "d45bf1715d8de6b3c2f4af3fe9aa85a03272a1854690c51f1578ea6dc30f75bd",
    5: "e00c0336c9faf03e3d6057457206c9f872697cdbabb4ca7317bb1ac4ba8019dd",
    6: "7a09fc456eab454179a5f71e7df49609a9ad732af0d20a4c1ea98d09df032eb3",
    7: "f711d8a8a6adc25205deecfde1b458492e269073c86ccc5002c92d9bf777845f",
    8: "32fcf4c908c24485c7bba80f982cbc940a860a536afa58a8ff6d8b04b50c2cdb",
    9: "ea7de9a8bbeeb7439b08ed81782574342b87da1acf93572fcd6e501f60d3d58a",
    10: "be4f10738c06494fa49f56527c69e742842d138f4057c5db5b58f5177c953de9",
    11: "fa4d737e25083138347af5a845e38bccc99f0137619671813c0df840d2dac8de",
    12: "ffddb32b53920193e37db469e4ebe56204afc870c2f5a4e4e45e78387aad98b7",
    13: "ad28c0503201afef1d434007b37bdbca67605ee113585d19a2e2cb3c8ddb1db8",
    14: "7960bbfd33d7bb7d40aa7fb5306e0372288ef49a9ef5b6a017c3c43ae4721b26",
    15: "20d57863d773711f3842025099bd112cb68445f7a3497055b17b623890860516",
    16: "22583513e8ae6a290dac4b368aaddbf0fb7e50259a46ae259940aef9101db81a",
    17: "14fa73426860f5e1a7b598a6a83417caaea166010dd3eee341af5ebfc087a823",
    18: "c17db482646532cc5d6acfa9f825f54aa4588fd470bd074f3db6232d07f9f333",
    19: "f155ae3711bd41200d00e3c8501281b0327d875d5f8097c71f392345b3d0847e",
    20: "88e9f39a8a354d00814784e7471e96a9c0db8c683c9d4745cfbffaa21ce1880b",
    21: "8c083b16f5841befa1e3bae82eb44d18b2997744fe637ec04e8de9f2bf396960",
    22: "50f1af94c7fa9d8793315d4132c51d5fa2246ec4cc0b9801d0b1698e585062d1",
    23: "14d457753962ad9f67985b68eece5385a89cd0e759870c1b90731241fb9d5538",
    24: "be33bf8240f5f478e72c31cd4b5c0210c939af5b845f817f0c3f780e6cd06e87",
    48: "dd76c6073e3aa67d150899b79cb92de9da4fda6d586e2f0db8ec52c3bd52abdd",
    99: "287f8dde861fefc9c02aaba93d50e25c619531098c3d7012015d9ebd12681d3d",
    150: "426a7895408caa744a86ebb15b0a912301bb8b2a81af06c6532e4ed387b8d935",
    200: "1780a69871482247c99d23e0900f7e30c84b1e9767a27ea20fc6ab9aee541ef7",
}
NODAL_PAIRING_SHA256 = {
    3: "e5ac3c4686dc05eeb383f53fcdbe726342824ede07e53c8c7ccffd791cb31e97",
    4: "c2ad0c30fd1441eedec247c1cf02267b90085ab37521aa40d282854eb0258571",
    5: "f79251ae05884d5162b30b0af67a8131b99572fb4c1bfcf3645417a8f5078733",
    6: "bd4cf580794d72e35e59c8b495bf6c75f1f4785a5dfd2118c7e253acca43b112",
    7: "b530d64537c8fde457feb7de549fecf8216c2d7552efa96210348d84f465c576",
    8: "ce7ec3b89e1a7291d8fbd63ac4fbc5bc1ada76b0c472c73260aa7dcf41a3a4a1",
    9: "6d7e9ccee9cda3a329d4d123200f5cc0e09b2d680dc1d29829ce30d411b80649",
    10: "b01b039cf6b4597bf8bc2aad8a4149e24deaf1d300f7d8966c1710e01c641241",
    11: "46e180e2124921bd7090a22355a12421116f8af34904f25aec96bbb9e1c627e7",
    12: "7650884bc5133a993ee69205f1e595c8a523dcbcfe6bb50317a6a10735dbe576",
    13: "b36fa4aa71ae4fe4d435ae1c422594534007b78ffd5491f5efb812632f944ff6",
    14: "2fad4903bfdd5bad639ac2637ad796d591d1e70b0f1538df1a71f2c5305cd5f2",
    15: "ee30e7ea310213929138a373adfcf47db8b768c8d53ec60c9ac8ecdf6df0be23",
    16: "66f8777a74b65696187a520071cc0928aaf5c311b6bf481b45e0890b3dd4c786",
    17: "feba75d12a87dc706543510f1289761cf4cb6eef82a503a4285137833c871b48",
    18: "c3bcf6f4aaa66294d73bcdab5ff14ec55636ce804d20981429bb306924c30895",
    19: "7ed4d03e5704e9767f4cf3fb6b5a06f87d20cd0d883322be5e4807a352118a1b",
    20: "60ac2d62fcf2b54cb1e3b98fce1db9f1683dfaa2f8707073233d472778f8f7fa",
    21: "f36b292a210e3c92060d46c579f3021ab5e272e26b3fae5a816d802664fd2b4d",
    22: "b8c69a42ab129b4a95973f2cb7d07e0faa6c16e0039ac32036df428f717d90b4",
    23: "5213670e00494e8f883560c231f867cb1d691404b3a9a962ac977078f4acadb0",
    24: "2cf76dfa999d7772b5ed57401a94cecef388f06b7df3705e0f0cb51e4adbafe9",
}
NODAL_DEFECTS = {
    3: (2e-15, 1.57e-15),
    4: (3.66e-15, 2.47e-15),
    5: (2.66e-15, 2.66e-15),
    6: (4e-15, 7.99e-15),
    7: (5.77e-15, 1.15e-14),
    8: (1.02e-14, 4.77e-15),
    9: (5.77e-15, 1.51e-14),
    10: (1.25e-14, 2.14e-14),
    11: (1.23e-14, 2.49e-14),
    12: (2.56e-14, 9.95e-14),
    13: (1.57e-14, 1.31e-13),
    14: (3.06e-14, 2.77e-13),
    15: (3.31e-14, 1.47e-13),
    16: (3.28e-14, 6.13e-14),
    17: (4.57e-14, 1.07e-13),
    18: (3.02e-14, 2.5e-13),
    19: (4.37e-14, 4.16e-13),
    20: (3.2e-14, 4.83e-13),
    21: (4.44e-14, 3.2e-13),
    22: (6.62e-14, 5.13e-13),
    23: (6.41e-14, 1.39e-12),
    24: (1.47e-13, 5.84e-13),
}


@pytest.mark.parametrize("d", sorted(NODAL_PAIRING_SHA256))
def test_jd_verify_stdout_and_nodal_pairing_are_pinned_to_the_guard(capsys, d):
    code, out, err = run(capsys, "jd-verify", "--degree", str(d))
    assert code == 0
    assert _sha256(out) == JD_VERIFY_STDOUT_SHA256[d]
    code, out, err = run(capsys, "surface-verify", "--degree", str(d), "--nodal")
    assert code == 0
    payload = json.loads(out)
    census = payload["census"]
    pairing = {"by_type": census["by_type"], "pairs": census["pairs"], "match": payload["match"]}
    assert _sha256(_dumps(pairing)) == NODAL_PAIRING_SHA256[d]
    value_defect, gradient_defect = NODAL_DEFECTS[d]
    assert census["max_value_defect"] <= 8 * value_defect
    assert census["max_gradient_defect"] <= 8 * gradient_defect


@pytest.mark.parametrize("d", [d for d in sorted(JD_VERIFY_STDOUT_SHA256) if d > 24])
def test_jd_verify_stdout_is_pinned_past_the_old_guard(capsys, d):
    code, out, err = run(capsys, "jd-verify", "--degree", str(d))
    assert code == 0
    assert _sha256(out) == JD_VERIFY_STDOUT_SHA256[d]


# The outputs the CI workflow once pinned on the installed entry point and
# no other tier-1 test holds, run here through cli.main: the sha256 of each
# command's stdout, a surface-verify payload taken without its floats
# (_without_floats).  The paired entries were recorded again when the winding
# census joined the payload; PRE_WINDING_SHA256 keeps their earlier pins.
CI_STDOUT_SHA256 = {
    "surface-verify --degree 24 --nodal":
        "bb38132e1d088deee0f958d41378614e4be03ba9e659f6912aaed9d2a3066959",
    "surface-verify --degree 200 --nodal":
        "b23d2e8fe225dc0de8f97b2768eadb2b2aaf8e38b35c558a4f5f1a0acffff39d",
    "surface-verify --degree 48 --nodal":
        "fb89c4e89ac22f06d2c1a7f18a73c5eb81b1ba1428837aabd405dbb3292814c0",
    "surface-verify --degree 3": "c19b6137c5d81afff41a287295aa1a80fc1db97807a5983e6d354372f18b1073",
    "surface-verify --degree 9": "a33c5dddeda7561b2651e8044b036a4df4ef91e79d443f480f3e4ebb3e6513c8",
    "surface-verify --degree 12": "6c0b2c6d45a9f5b2458f1d139b2c1af5b3eff8d39f316abb9202b0dddbe22456",
    "surface-verify --degree 15": "bbc9d31b0519b1eb9950b4c0270148fdd400713df1a29e932f5d8a807f2bb911",
    "surface-verify --degree 21": "98d5cd12e7255b44b556e71e3f99ff41546bf2733dc10af0c1655e50003fcd89",
    "surface-verify --degree 24": "08393d8bd163211a44d92116a98c0db819abef94d87196333ff1eca2a881a2fa",
    "surface-verify --degree 28": "3fd951f599518eab05c644dc068732090b35706fa365ecc90374f743ae85edcf",
    "surface-verify --degree 9 --seed F2:1,1,0,0":
        "588f35e1836982964103fdc403e1a9f115e856e41655bb886a442f405d9234a2",
    "surface-verify --degree 15 --seed F2:1,2,0,0":
        "1fc8a15c19ad745b161e1e1baa285902bf8355bc4b1425c82bc5f92603703d0d",
    "table --max-degree 200 --format json":
        "8abd0262841d4545805303dc534ce69f967aa1e73847dfc32818ac1d03a25845",
    "seeds --max-degree 200": "0ec3c3ee52f0fcab3c65aca41be5954a77039daed00633ca6398a8705f55566e",
    "enumerate --seed F2:0,2,2,2 --max-len 8":
        "19f87ba0be0c83078d06f6cb8a8e519e43291fc8a2559440da237c531304a1ce",
    "enumerate --seed F2:1,2,2,2 --max-len 9":
        "ac6ca9185c308a259832680c2afec41825114bc8e5ca32c3ca34b11c0d205ab5",
    "enumerate --seed F1:0,1 --max-len 4":
        "8b7e9208f7721fee2281cf43fb76aa3717110174df7cec1a685f111bb3a3a67c",
    "derive --seed F2:0,2,1,1 --word BggDg":
        "f6787a4d24a8d6030f9a554617688ae7f28da1b0320bb12b424ed9873d210574",
    "derive --seed F1:1,1 --word abab":
        "e392897d68055dbbb62a84dff6d06bdee0baacf364c892645609d2908c309857",
    "derive --seed F1:1,1 --word ab":
        "ae6a8fceb9920ecccd3fcc21478215f3319d1ebab9b6797c4d5645f96b86733e",
    "export --seed F1:0,1 --word ab --format dot":
        "0fd45f06ee8718ac8b24471da85ace99897d0df482ecb756b7fa98fcce036f0d",
    "export --seed F1:0,1 --word ab --format json":
        "e91bb46cad265cbfae3e23511007271a69518abbe475151e3120b57d853377d6",
}


# The paired entries of CI_STDOUT_SHA256 before the winding census joined
# the payload: each payload must still give its old pin without that key.
PRE_WINDING_SHA256 = {
    "surface-verify --degree 3":
        "f5267a09742fb19d219d47f9cf2943bbac744abc737dfe3142db8303e1d031d0",
    "surface-verify --degree 9":
        "24c61d51981d3ff73960209db1c2f662b347ae6e0348f198c1c3012852aa1908",
    "surface-verify --degree 12":
        "60eb4b0a23ec52e14fa99ea5d6c20da50a0dc056173a93e0edcb846ad6d9acf3",
    "surface-verify --degree 15":
        "db02610f63e42b934f9b11b0b0d958f4f591eab517d891f2a18a90c1e7c9519d",
    "surface-verify --degree 21":
        "9aacad1c85a12a56a5ef1d8cd553c6083d9a246471544793144c113514aca2f4",
    "surface-verify --degree 24":
        "3ea216c40506c85a1523c36793c29a3530d26c4007aae3a8681d2d666ef0032b",
    "surface-verify --degree 28":
        "8dff1a19f8db8025baf781c0c72c87b285900fb3270ea157e556ff0ae84d49ae",
    "surface-verify --degree 9 --seed F2:1,1,0,0":
        "60f8506fa2744ae36afa04f861297b29739a44b0c1f2b837ac1b95807cf44643",
    "surface-verify --degree 15 --seed F2:1,2,0,0":
        "b7b711fc19cb0d673dfbf977a21f7193bc90a94ca129f2c73619e20114c3a16e",
}


@pytest.mark.parametrize("command", list(CI_STDOUT_SHA256))
def test_ci_console_script_pins_hold(capsys, command):
    argv = command.split()
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if argv[0] == "surface-verify":
        out = _dumps(_without_floats(json.loads(out)))
    assert _sha256(out) == CI_STDOUT_SHA256[command]


@pytest.mark.parametrize("command", list(PRE_WINDING_SHA256))
def test_paired_pins_differ_only_by_the_winding_census(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    payload = _without_floats(json.loads(out))
    assert payload["census"].pop("winding_census")["matches"]
    assert _sha256(_dumps(payload)) == PRE_WINDING_SHA256[command]


NO_NEGATIVE_ZERO_CALLS = [
    *(("surface-verify", "--degree", str(d), "--nodal") for d in range(3, 25)),
    ("surface-verify", "--degree", "3"),
    ("surface-verify", "--degree", "9"),
    ("surface-verify", "--degree", "9", "--seed", "F1:0,1"),
]


@pytest.mark.parametrize("argv", NO_NEGATIVE_ZERO_CALLS, ids=" ".join)
def test_surface_reports_carry_no_negative_zero(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert "-0.0" not in out


@pytest.mark.parametrize("d", [7, 24])
def test_jd_verify_and_nodal_surface_share_one_census(capsys, d):
    jd_census.cache_clear()
    together = [run(capsys, "jd-verify", "--degree", str(d))]
    together.append(run(capsys, "surface-verify", "--degree", str(d), "--nodal"))
    info = jd_census.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    apart = []
    for argv in (("jd-verify",), ("surface-verify", "--nodal")):
        jd_census.cache_clear()
        apart.append(run(capsys, argv[0], "--degree", str(d), *argv[1:]))
    assert together == apart
    assert all(code == 0 for code, _, _ in together)


def test_export_dot_round_trips(capsys):
    code, out, err = run(capsys, "export", "--seed", "F1:0,1", "--word", "a")
    assert code == 0
    tree = parse_dot(out)
    assert tree.edge_count == 12


def test_export_json(capsys):
    code, out, err = run(capsys, "export", "--seed", "F1:0,1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["colors"]) == 10


def test_output_file_is_utf8(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _, _ = run(capsys, "enumerate", "--seed", "F1:0,1", "--max-len", "2",
                  "--output", str(target))
    assert code == 0
    obj = json.loads(target.read_text(encoding="utf-8"))
    assert obj["words"] == ["", "a", "ab"]


@pytest.mark.parametrize(
    "argv", [["seeds", "--max-degree", "9"], ["enumerate", "--seed", "F1:0,1", "--max-len", "2"]]
)
def test_output_path_that_cannot_be_opened_is_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "OSError"
    assert str(target) in error["message"]
    assert not target.parent.exists()


def test_reruns_byte_identical(capsys):
    outputs = set()
    for _ in range(2):
        code, out, err = run(capsys, "shabat", "--seed", "F1:0,1", "--word", "a",
                        "--rng-seed", "3")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    for _ in range(2):
        code, out, err = run(capsys, "families", "--seed", "F2:0,1,1,1")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 2


def test_bad_seed_is_usage_error(capsys):
    code, out, err = run(capsys, "derive", "--seed", "F1:0,0", "--word", "")
    assert code == 2
    obj = json.loads(err)
    assert obj["error"]["type"] == "SeedDomainError"


def test_wrong_alphabet_is_usage_error(capsys):
    code, out, err = run(capsys, "derive", "--seed", "F1:0,1", "--word", "Bg")
    assert code == 2
    obj = json.loads(err)
    assert obj["error"]["type"] == "AlphabetMismatchError"


def test_degree_guard_is_usage_error(capsys):
    code, out, err = run(capsys, "shabat", "--seed", "F1:1,1", "--word", "")
    assert code == 2
    obj = json.loads(err)
    assert obj["error"]["type"] == "DegreeGuardError"


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["seeds", "--definitely-not-a-flag"])
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_parser_is_built_once_per_process(capsys):
    build_parser.cache_clear()
    run(capsys, "seeds", "--max-degree", "9")
    run(capsys, "seeds", "--max-degree", "9", "--family", "F1")
    assert build_parser.cache_info().misses == 1


def test_usage_error_leaves_the_cached_parser_intact(capsys):
    build_parser.cache_clear()
    fresh = run(capsys, "seeds", "--max-degree", "9")
    with pytest.raises(SystemExit) as exc:
        main(["seeds", "--max-degree", "nine"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "seeds", "--max-degree", "9") == fresh
    assert build_parser.cache_info().misses == 1


# Every option string of each subcommand, in the order the parser lists
# them, -h and --help left out: a settable value changes only on purpose.
SUBCOMMAND_OPTIONS = {
    "seeds": ["--family", "--max-degree", "--output"],
    "derive": ["--seed", "--word", "--output"],
    "enumerate": ["--seed", "--max-len", "--output"],
    "families": ["--seed", "--limit", "--output"],
    "shabat": [
        "--seed", "--word", "--tol", "--restarts", "--rng-seed", "--max-degree", "--output",
    ],
    "jd-verify": ["--degree", "--grid", "--output"],
    "table": ["--max-degree", "--nu", "--format", "--output"],
    "surface-verify": [
        "--degree", "--seed", "--word", "--nodal", "--tol", "--restarts", "--rng-seed",
        "--output",
    ],
    "export": ["--seed", "--word", "--format", "--output"],
}


def test_subcommand_options_are_pinned():
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
        for name, p in sub.choices.items()
    }
    assert options == SUBCOMMAND_OPTIONS


def test_inadmissible_word_is_mismatch(capsys):
    code, out, err = run(capsys, "derive", "--seed", "F1:1,1", "--word", "ababab")
    assert code == 1


def test_documented_defaults():
    from belyi_forge.arrangement_jd import CENSUS_DEGREE_GUARD, DUAL_PATH_PRECISION
    from belyi_forge.belyi_numeric import (
        _MAX_PHASE_STEP,
        _WINDING_RADIUS,
        _WINDING_SAMPLES,
        DEFAULT_TOL,
        DEGREE_GUARD,
        VALUE_TOL,
    )

    assert DEFAULT_TOL == 1e-10
    # The winding census's fixed settings, which replaced shabat's
    # --cluster-tol (default 1e-6).
    assert (_WINDING_SAMPLES, _WINDING_RADIUS, _MAX_PHASE_STEP) == (256, 0.4, math.pi / 2)
    assert VALUE_TOL == 1e-6
    assert DEGREE_GUARD == 16
    assert DUAL_PATH_PRECISION == 256
    assert CENSUS_DEGREE_GUARD == 200
