"""Command-line interface: output shapes, exit codes, determinism."""

import json

import pytest

from belyi_forge.arrangement_jd import build_Jd
from belyi_forge.cli import main
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


def test_jd_verify_checks_a_custom_den_bound(capsys):
    code, out, err = run(capsys, "jd-verify", "--degree", "6", "--den-bound", "2")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "RationalizationError"


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


def test_inadmissible_word_is_mismatch(capsys):
    code, out, err = run(capsys, "derive", "--seed", "F1:1,1", "--word", "ababab")
    assert code == 1


def test_documented_defaults():
    from belyi_forge.arrangement_jd import DEFAULT_DEN_BOUND, DEFAULT_PRECISION
    from belyi_forge.belyi_numeric import (
        DEFAULT_CLUSTER_TOL,
        DEFAULT_TOL,
        DEGREE_GUARD,
    )

    assert DEFAULT_TOL == 1e-10
    assert DEFAULT_CLUSTER_TOL == 1e-6
    assert DEGREE_GUARD == 16
    assert DEFAULT_PRECISION == 256
    assert DEFAULT_DEN_BOUND == 10**12
