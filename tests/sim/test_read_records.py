"""The per-read records stay immutable, ordered and keyword-constructible.

Every simulated host read builds a :class:`PageReadInfo`, a
:class:`ReadServiceBreakdown`, an :class:`AccessDecision` (FlexLevel)
and a :class:`RetryOutcome`, so they are cheap tuples; this pins the
record contract their consumers rely on: field order and defaults,
keyword construction, no attribute assignment, and ``service_us``.
"""

from __future__ import annotations

import pytest

from repro.baselines.systems import ReadServiceBreakdown
from repro.core.access_eval import AccessDecision
from repro.core.level_adjust import CellMode
from repro.ftl.ssd import PageReadInfo
from repro.sim.des.retry import RetryOutcome

BREAKDOWN = dict(
    lpn=7, buffer_hit=False, mode=CellMode.REDUCED, required_levels=2,
    provisioned_levels=3, first_round_us=210.5, retry_rounds_us=(30.0, 40.0),
    post_read_us=1.25, raw_ber=4e-3, block=11, pe_cycles=6001.0, age_hours=96.5,
)
READ_INFO = dict(lpn=7, mode=CellMode.NORMAL, age_hours=12.5, pe_cycles=6000.0, block=3)
OUTCOME = dict(extra_rounds=2, extra_us=70.0, exhausted=True, final_failure_probability=0.1)
DECISION = dict(is_hlo=True, promote=True, demote_lpn=9)

CASES = [
    (ReadServiceBreakdown, BREAKDOWN, {"block": -1, "pe_cycles": 0.0, "age_hours": 0.0}),
    (PageReadInfo, READ_INFO, {"block": -1}),
    (RetryOutcome, OUTCOME, {}),
    (AccessDecision, DECISION, {"demote_lpn": None}),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, values, defaults", CASES, ids=IDS)
def test_field_order_and_defaults(cls, values, defaults):
    assert cls._fields == tuple(values)
    assert cls._field_defaults == defaults
    for name, default in defaults.items():
        assert type(default) is type(cls._field_defaults[name])


@pytest.mark.parametrize("cls, values, defaults", CASES, ids=IDS)
def test_keyword_construction_matches_positional(cls, values, defaults):
    by_keyword = cls(**values)
    assert by_keyword == cls(*values.values())
    assert [getattr(by_keyword, name) for name in values] == list(values.values())
    required = {k: v for k, v in values.items() if k not in defaults}
    shortened = cls(**required)
    for name, default in defaults.items():
        assert getattr(shortened, name) == default


@pytest.mark.parametrize("cls, values, defaults", CASES, ids=IDS)
def test_attribute_assignment_is_rejected(cls, values, defaults):
    record = cls(**values)
    first = next(iter(values))
    with pytest.raises(AttributeError):
        setattr(record, first, values[first])
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(record, first)


def test_service_us_is_first_round_plus_post_read():
    breakdown = ReadServiceBreakdown(**BREAKDOWN)
    assert breakdown.service_us == 210.5 + 1.25
    hit = ReadServiceBreakdown(
        lpn=0, buffer_hit=True, mode=None, required_levels=0, provisioned_levels=0,
        first_round_us=2.0, retry_rounds_us=(), post_read_us=0.0, raw_ber=0.0,
    )
    assert hit.service_us == 2.0
