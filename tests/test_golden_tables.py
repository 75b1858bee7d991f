"""Golden digests of every registered experiment's quick table.

Each experiment runs in quick mode and its strict-JSON table is hashed
with :func:`repro.harness.serialize.content_hash`.  The digest must
equal the literal pinned below, so any change to any number, column,
title or note of any quick table fails here.  This is the oracle for
refactors: a change that claims to keep behaviour keeps every digest.

Machine-dependent columns are nulled by name before hashing.  Only
``rounds/s`` (in-worker wall clock, t17 and t18) is masked, and the
mask test below fails if any other table grows that column.

Re-pinning: run the failing test, copy the ``got`` digest into
``GOLDEN`` and say in CHANGES.md which table changed and why.
"""

import pytest

from repro.harness import serialize
from repro.harness.registry import REGISTRY, run_experiment

MASKED_COLUMN = "rounds/s"
MASKED_IDS = {"t17", "t18"}

GOLDEN = {
    "t01": "4ee99545a62c158b03b94e467e3ed76784f0f745",
    "t02": "d9cb1d91ddd567f397857edd26f79881499e37ca",
    "t03": "349829c5d79df8457a1e2d067bf5ba6214aa619d",
    "t04": "425cf733006a90ac872def5c650f47f85d241b81",
    "t05": "d4ae2fd07ac5d4c9fad57c4f3e58b253a33ec472",
    "t06": "f87c45414d1a1b3e9ae61ea49cc0c3c49f9e75f9",
    "t07": "7fdb424b9fb4dadbb20910bd5c07f3522e289bf0",
    "t08": "312544e24ae58fe00912ec4839763439905f2646",
    "t09": "502cf6e4faab3ab07e2013de5576fb9cb955b639",
    "t10": "09527eede2a409b6f90de956859f21e8a06d5e70",
    "t11": "acbf0589986092a080ec51c22656065c6d67ddd7",
    "t12": "c98f96fdae5f94ce7c88579db62d98058bc5df30",
    "t13": "c2a3970fde361cfdded4587f3ca40a29ad91ea0b",
    "t14": "532eab28a3f52e0efb42c341d34f046b0aad2b73",
    "t15": "c5b1b2b99724074b37b460d6a0853d753b0c7297",
    "t16": "adb11efe5714b0b7a0d015d34781f101fcb4f2bf",
    "t17": "16bc001b35c3766e8fa9ca790a997bf4841c2d9f",
    "t18": "fb3ae4bc4f339ea0e73e63bf149abc16444893ff",
}

_tables = {}


def quick_table(exp_id):
    """The quick table's strict-JSON dict, computed once per session."""
    if exp_id not in _tables:
        table = run_experiment(exp_id, quick=True)
        _tables[exp_id] = table.to_dict(json_safe=True)
    return _tables[exp_id]


def table_digest(data):
    """Content hash of a table dict with the masked column nulled."""
    columns = data["columns"]
    if MASKED_COLUMN in columns:
        index = columns.index(MASKED_COLUMN)
        rows = [row[:index] + [None] + row[index + 1:]
                for row in data["rows"]]
        data = dict(data, rows=rows)
    return serialize.content_hash(data)


def test_every_registered_experiment_is_pinned():
    assert sorted(GOLDEN) == REGISTRY.ids()


@pytest.mark.parametrize("exp_id", sorted(GOLDEN))
def test_quick_table_digest(exp_id):
    got = table_digest(quick_table(exp_id))
    assert got == GOLDEN[exp_id], f"{exp_id}: got {got}"


def test_mask_covers_only_wall_clock_tables():
    masked = {exp_id for exp_id in sorted(GOLDEN)
              if MASKED_COLUMN in quick_table(exp_id)["columns"]}
    assert masked == MASKED_IDS
