"""Command-line interface: output shapes, exit codes, determinism."""

import hashlib
import json

import pytest

from belyi_forge.arrangement_jd import build_Jd
from belyi_forge.cli import build_parser, main
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


def test_jd_verify_builds_jd_once(capsys):
    build_Jd.cache_clear()
    code, out, err = run(capsys, "jd-verify", "--degree", "5")
    assert code == 0
    assert build_Jd.cache_info().misses == 1


@pytest.mark.parametrize("subcommand", ["jd-verify", "surface-verify"])
@pytest.mark.parametrize("flag", ["--precision", "--den-bound"])
def test_build_precision_flags_are_gone(capsys, subcommand, flag):
    # J_d is exact by construction; nothing about its build can be set.
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--degree", "3", flag, "256"])
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "usage"


@pytest.mark.parametrize("subcommand", ["jd-verify", "surface-verify"])
def test_grid_is_still_accepted_and_ignored(capsys, subcommand):
    code, out, err = run(capsys, subcommand, "--degree", "3", "--grid", "64")
    assert code == 0
    assert out == run(capsys, subcommand, "--degree", "3")[1]


def test_jd_verify_up_to_the_census_guard(capsys):
    code, out, err = run(capsys, "jd-verify", "--degree", "24")
    assert code == 0
    assert json.loads(out)["match"] is True
    code, out, err = run(capsys, "jd-verify", "--degree", "25")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "DegreeGuardError"

def test_table_csv_rows(capsys):
    code, out, err = run(capsys, "table", "--max-degree", "15", "--nu", "2")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[0] == ["d", "nu", "bound", "seed", "word"]
    bounds = {int(r[0]): int(r[2]) for r in rows[1:]}
    assert bounds == {9: 127, 12: 301, 15: 647}


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


# sha256 of the payload of `jd-verify --degree d` without its dual-path
# difference, a rounding-level figure of the check's second route, and of the
# payload of `surface-verify --degree d --nodal` without its two reported
# defects.  Recorded with the census on dense coefficients and J_d from the
# rationalized mpmath expansion; the product-form census and the A2
# recurrence must reproduce them.
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
    5: "dbd8d2ad85964f1e59163efec6ba1d204bf6fce5b123551c9a86380f3a730fc4",
    6: "07e0e39b902da48670c6fe85a6ce0c793c3b477551b1137248a75be1016665fd",
    7: "b27956056b06a474a02cd6082a55e99042fa2a6356f68b27e93c958e50e8bc13",
    8: "17e4e1d1467d466737179a72878db630e424b8cb61de16ee4be46e7f5ebe74c2",
    9: "3b1df05751f2e8fa94ae66ba8bc263e6055a494922476ba5a0c3bfa4d0dbf2d9",
    10: "678e7bf25cae34000d6ce4b2a05ac5604b46dc6bdb4ad435a83a3cc48f247190",
    11: "14773ca4dfa583aab10a1400b97f11f2936f8203eed7add3751029594451b841",
    12: "4ea39ae5cd92923afc4a8214fa11e83f94daf05a6955198f083bf505a22389c5",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


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


def test_reruns_byte_identical(capsys):
    outputs = set()
    for _ in range(2):
        code, out, err = run(capsys, "shabat", "--seed", "F1:0,1", "--word", "a",
                        "--rng-seed", "3", "--cluster-tol", "1e-4")
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


def test_inadmissible_word_is_mismatch(capsys):
    code, out, err = run(capsys, "derive", "--seed", "F1:1,1", "--word", "ababab")
    assert code == 1


def test_documented_defaults():
    from belyi_forge.arrangement_jd import CENSUS_DEGREE_GUARD, DUAL_PATH_PRECISION
    from belyi_forge.belyi_numeric import (
        DEFAULT_CLUSTER_TOL,
        DEFAULT_TOL,
        DEGREE_GUARD,
    )

    assert DEFAULT_TOL == 1e-10
    assert DEFAULT_CLUSTER_TOL == 1e-6
    assert DEGREE_GUARD == 16
    assert DUAL_PATH_PRECISION == 256
    assert CENSUS_DEGREE_GUARD == 24
