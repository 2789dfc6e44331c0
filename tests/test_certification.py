"""The status order and the record rule: no verdict record is certified
better than its rows or than the statuses its outcome rests on."""

from __future__ import annotations

import pytest

from pertlab.catalog import CATALOG
from pertlab.certify import (EXACT, TWO_LEVEL, UNCERTIFIED, plateau,
                             two_level_value, weakest)
from pertlab.cli import VERIFY_CLAIMS, run_manifest
from pertlab.harness import (ExperimentConfig, build_workspace,
                             sample_in_power)
from pertlab.rings import build_ring
from pertlab.verifiers import check_surjection_monotonicity

# Rank by weakness, written out here rather than read from the code under
# test.
RANK = {EXACT: 0, TWO_LEVEL: 1, UNCERTIFIED: 2}


@pytest.mark.parametrize("statuses, expected", [
    ((), EXACT),
    ((EXACT,), EXACT),
    ((TWO_LEVEL,), TWO_LEVEL),
    ((EXACT, TWO_LEVEL, EXACT), TWO_LEVEL),
    ((TWO_LEVEL, UNCERTIFIED), UNCERTIFIED),
    ((UNCERTIFIED, EXACT), UNCERTIFIED),
])
def test_weakest(statuses, expected):
    assert weakest(statuses) == expected
    assert weakest(iter(statuses)) == expected


def test_weakest_rejects_unknown_status():
    with pytest.raises(ValueError):
        weakest((EXACT, "exakt"))


@pytest.mark.parametrize("profile, expected", [
    ([5, 5, 9], (5, False)),                 # a run of width 2
    ([5, 5, 5, 9], (5, True)),               # a run of width 3
    ([None, None, None, None, 2], (None, False)),
    ([1, 1, 1, 2, 2, 2, 7], (2, True)),      # a tie goes to the latest run
    ([1, 1, 1, 2, 2, 2], (1, True)),         # the final entry is excluded
    ([4], (4, False)),
])
def test_plateau(profile, expected):
    """The value of the longest run, resolved only when it is not None and
    its run is at least three entries wide."""
    assert plateau(profile) == expected


def _assert_not_promoted(record, *rests_on: str) -> None:
    shown = [row["certification"] for row in record.rows
             if row["certification"]]
    floor = max((RANK[s] for s in shown + list(rests_on)), default=0)
    assert RANK[record.certification] >= floor, \
        (record.claim, record.certification, shown, rests_on)


def _manifest(**task) -> str:
    lines = ["[manifest]", "format-version = 1", "", "[task]"]
    lines += [f"{key} = {value}" for key, value in task.items()]
    return "\n".join(lines) + "\n"


CASES = {
    **{f"{command}/{cid}": _manifest(command=command, catalog=cid, n_max=4,
                                     seed=0)
       for command in ("check-filter-regular", "hilbert", "ar-number",
                       "koszul")
       for cid in sorted(CATALOG)},
    **{f"verify-{claim}/{cid}": _manifest(command="verify", claim=claim,
                                          catalog=cid, n_max=4, N=2,
                                          samples=2, seed=3)
       for claim in VERIFY_CLAIMS for cid in sorted(CATALOG)},
    **{f"bound-n/{cid}": _manifest(command="bound-n", catalog=cid, n_max=4,
                                   seed=0)
       for cid in ("regular-line", "node-diagonal")},
    **{f"{command}/remark-2-4": _manifest(command=command,
                                          catalog="remark-2-4", n_max=4,
                                          N="1..2", samples=2, seed=5)
       for command in ("experiment", "find-min-n")},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_record_certified_above_its_rows(name):
    records = run_manifest(CASES[name]).records
    assert records
    for rec in records:
        # The threshold search rests on every record of its sweep.
        rests_on = [r.certification for r in records
                    if r is not rec] if rec.claim == "min-n" else []
        _assert_not_promoted(rec, *rests_on)


@pytest.mark.parametrize("cid", sorted(CATALOG))
def test_monotonicity_not_certified_above_artin_rees_number(cid):
    """The monotonicity verdict rests on the Artin-Rees number k, which no
    row shows."""
    ws = build_workspace(ExperimentConfig.from_catalog(cid, n_max=4))
    for s in range(2):
        eps = sample_in_power(ws.ring, 2, 3, len(ws.fs), spawn=(2, s))
        rec = check_surjection_monotonicity(ws, eps)
        _assert_not_promoted(rec, ws.ar_value.status)


def test_delta_zero_unresolved_is_uncertified():
    ring = build_ring(5, ("x", "y"), [], 8)
    cv = two_level_value(lambda r: (None, False), ring, 0)
    assert (cv.status, cv.value) == (UNCERTIFIED, None)
    assert cv.note == "unresolved at level 8"
