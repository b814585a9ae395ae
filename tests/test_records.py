"""The package's records: immutable NamedTuples, and the two census classes
that hold numpy arrays and compare by identity.  Every one survives
copy.deepcopy and a pickle round trip with its type and its fields."""

import copy
import pickle

import numpy as np
import pytest

from belyi_forge import (
    F1,
    Census2D,
    CriticalProfile,
    UCensus,
    arrangement_jd,
    belyi_numeric,
    bound_table,
    critical_census_uni,
    jd_census,
    jstats,
    parse_seed,
    profile_core,
    seed_families,
    seed_triple,
    shabat_for_derivation,
    singular_census_3d,
    surface_counts,
    top_stats,
    trajectory,
    tree_for_derivation,
    tree_realization,
    validate_profile,
    verify_coincidences,
    vertex_u_census,
    word_engine,
)

MODULES = (
    profile_core, seed_families, word_engine, tree_realization, belyi_numeric,
    arrangement_jd, surface_counts,
)
ARRAY_RECORDS = (Census2D, UCensus)


def public_record_types():
    return {
        obj
        for mod in MODULES
        for name, obj in vars(mod).items()
        if isinstance(obj, type) and obj.__module__ == mod.__name__
        and not name.startswith("_") and (hasattr(obj, "_fields") or obj in ARRAY_RECORDS)
    }


def one_of_each():
    state = trajectory(F1(0, 1), "ab")[-1]
    sol = shabat_for_derivation(F1(0, 1), "")
    census = critical_census_uni(sol.polynomial())
    coincidences = verify_coincidences(1, 1)
    table = bound_table(9)
    surface = singular_census_3d(3)
    return [
        state.profile, top_stats(state.profile, state.nu), validate_profile(state.profile),
        state.seed, parse_seed("F2:1,0,0,1"), parse_seed("F3:1,1,0,1,0"),
        seed_triple(state.seed), coincidences.pairs[0], coincidences, state,
        tree_for_derivation(F1(0, 1), "ab"), sol, vertex_u_census(sol),
        census.entries[0], census, jstats(6), jd_census(4), table.rows[0], table,
        surface.pairs[0], surface,
    ]


RECORDS = one_of_each()


def same_fields(a, b) -> bool:
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in ((getattr(a, n), getattr(b, n)) for n in type(a).__slots__)
    )


def test_one_of_each_covers_every_public_record():
    assert {type(r) for r in RECORDS} == public_record_types()
    assert len(RECORDS) == len(public_record_types()) == 21


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
@pytest.mark.parametrize("round_trip", [copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["deepcopy", "pickle"])
def test_a_record_survives_a_round_trip(record, round_trip):
    back = round_trip(record)
    assert type(back) is type(record)
    if isinstance(record, ARRAY_RECORDS):
        assert back != record and same_fields(back, record)
    else:
        assert back == record and repr(back) == repr(record)


def test_records_are_tuples_and_array_records_compare_by_identity():
    seed = F1(0, 1)
    assert seed == (0, 1) and seed._replace(m=2) == F1(0, 2)
    assert seed_families.seed_to_json(seed) == {"family": "F1", **seed._asdict()}
    census = jd_census(4)
    assert census == census and census != census._replace()
    assert same_fields(census._replace(), census)
    with pytest.raises(TypeError):
        census.counts[0.0] = 1


def test_a_profile_copy_sorts_and_recounts():
    p = CriticalProfile((1, 3), (2,), 1, 0)
    q = p._replace(black_mults=(1, 1, 5))
    assert q == CriticalProfile((5, 1, 1), (2,), 1, 0)
    assert (q.black_mults, q.degree) == ((5, 1, 1), 11)
    assert copy.copy(p) == p and copy.copy(p).degree == p.degree == 7
    assert "degree" not in repr(pickle.loads(pickle.dumps(p)))
