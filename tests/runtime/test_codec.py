"""Pins the fields-driven codec behind the runtime's persisted records.

``codec_golden.json`` holds the ``to_dict()`` output of one
:class:`JobSpec`, :class:`SweepSpec`, :class:`BatchReport` and
:class:`PassMetrics` with every field set to a non-default value, as
the hand-written serializers produced it before the codec existed.
Journals, ``report.json``, ``request.json``, cache entries and worker
artifacts are all made of these dicts, so the encoding must stay
byte-identical.  The Hypothesis round trips and the merge test cover
the rest of the contract for every field, including ones added later.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.jobs import BatchReport, JobSpec
from repro.runtime.metrics import PassMetrics
from repro.runtime.sweep import SweepSpec

GOLDEN_PATH = Path(__file__).with_name("codec_golden.json")


def golden_metrics() -> PassMetrics:
    """Every counter distinct and non-zero; floats that exercise rounding."""
    metrics = PassMetrics(variant="TFD")
    for offset, spec in enumerate(dataclasses.fields(PassMetrics)):
        if spec.type in ("int", int):
            setattr(metrics, spec.name, 3 * offset + 1)
    metrics.db_hits, metrics.db_misses = 2, 1
    metrics.cuts_rejected = {"db-miss": 3, "no-gain": 7}
    metrics.sat_backend_events = {"internal:win-sat": 2, "kissat:unknown": 1}
    metrics.phase_seconds = {"enumerate": 0.1234567891, "rewrite": 1.5}
    return metrics


def golden_objects() -> dict:
    job = JobSpec(
        job_id="golden-1",
        network={"generate": "adder", "width": 6},
        script=("depth", "BF", "TFD"),
        mode="converge",
        variant="TF",
        max_passes=4,
        verify="cec",
        sat_backend="portfolio",
        time_limit=12.5,
        conflict_limit=5000,
        cut_limit=6,
        cut_size=5,
        npn_store="/stores/flows.npn5",
        mem_limit_mb=2048,
        db="/dbs/npn4.jsonl",
        output="/out/golden-1.blif",
        progress="/out/golden-1.progress.jsonl",
        payload={"host": "h1", "rep": 23},
    )
    sweep = SweepSpec(
        name="golden-sweep",
        instances=(
            {"generate": "adder", "width": 8},
            {"blif": "/in/x.blif", "slug": "x", "scripts": [["BF"]]},
        ),
        scripts=(("BF",), ("depth", "BF")),
        cut_sizes=(4, 5),
        sat_backends=("internal", "portfolio"),
        conflict_limits=(None, 2000),
        verify="cec",
        time_limit=30.0,
        mem_limit_mb=1024,
        npn_store="/stores/sweep.npn5",
    )
    report = BatchReport(
        total=5,
        done=3,
        quarantined=1,
        failed_attempts=4,
        retries=2,
        adopted=1,
        wall_seconds=12.3456789,
        interrupted=True,
        max_concurrent=2,
        jobs_per_slot={"h0/0": 2, "h1/0": 1, "h1/1": 0},
        metrics=golden_metrics(),
        jobs=[
            {"job_id": "a", "state": "done", "attempts": 1, "shard": "h0"},
            {"job_id": "b", "state": "quarantined", "attempts": 3,
             "error": "boom", "shard": "h1"},
        ],
    )
    return {
        "JobSpec": job,
        "SweepSpec": sweep,
        "BatchReport": report,
        "PassMetrics": golden_metrics(),
    }


def test_golden_objects_set_every_field():
    defaults = {
        "JobSpec": JobSpec(job_id="", network={}),
        "SweepSpec": SweepSpec(name="", instances=()),
        "BatchReport": BatchReport(),
        "PassMetrics": PassMetrics(),
    }
    for name, obj in golden_objects().items():
        default = defaults[name]
        for spec in dataclasses.fields(obj):
            assert getattr(obj, spec.name) != getattr(default, spec.name), spec.name


def test_encoding_matches_golden_bytes():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    objects = golden_objects()
    assert sorted(golden) == sorted(objects)
    for name, obj in objects.items():
        encoded = obj.to_dict()
        assert json.dumps(encoded, sort_keys=True) == json.dumps(
            golden[name], sort_keys=True
        ), name
        # Unsorted writers (benchmark records) see the same key order.
        assert list(encoded) == list(golden[name]), name


def test_golden_decodes_to_the_same_objects():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    classes = {
        "JobSpec": JobSpec,
        "SweepSpec": SweepSpec,
        "BatchReport": BatchReport,
        "PassMetrics": PassMetrics,
    }
    for name, obj in golden_objects().items():
        decoded = classes[name].from_dict(golden[name])
        assert decoded.to_dict() == obj.to_dict(), name


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------

_text = st.text(max_size=8)
_count = st.integers(min_value=0, max_value=10**9)
#: floats that to_dict's 6-digit rounding leaves unchanged
_seconds = st.integers(min_value=0, max_value=10**9).map(lambda us: us / 10**6)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_json_leaf = st.one_of(st.none(), st.booleans(), st.integers(), _text)
_json_dict = st.dictionaries(_text, _json_leaf, max_size=3)


def _optional(strategy):
    return st.one_of(st.none(), strategy)


job_specs = st.builds(
    JobSpec,
    job_id=_text,
    network=_json_dict,
    script=st.lists(_text, max_size=4).map(tuple),
    mode=_text,
    variant=_text,
    max_passes=st.integers(),
    verify=st.sampled_from(["off", "sim", "cec"]),
    sat_backend=_text,
    time_limit=_optional(_finite),
    conflict_limit=_optional(st.integers()),
    cut_limit=_optional(st.integers()),
    cut_size=_optional(st.integers()),
    npn_store=_optional(_text),
    mem_limit_mb=_optional(st.integers()),
    db=_optional(_text),
    output=_optional(_text),
    progress=_optional(_text),
    payload=_optional(_json_dict),
)

sweep_specs = st.builds(
    SweepSpec,
    name=_text,
    instances=st.lists(_json_dict, min_size=1, max_size=3).map(tuple),
    scripts=st.lists(
        st.lists(_text.filter(lambda s: "," not in s), max_size=3).map(tuple),
        max_size=3,
    ).map(tuple),
    cut_sizes=st.lists(st.integers(), max_size=3).map(tuple),
    sat_backends=st.lists(_text, max_size=3).map(tuple),
    conflict_limits=st.lists(_optional(st.integers()), max_size=3).map(tuple),
    verify=_text,
    time_limit=_optional(_finite),
    mem_limit_mb=_optional(st.integers()),
    npn_store=_optional(_text),
)


@st.composite
def pass_metrics(draw) -> PassMetrics:
    metrics = PassMetrics(variant=draw(_text))
    for spec in dataclasses.fields(PassMetrics):
        if spec.type in ("int", int):
            setattr(metrics, spec.name, draw(_count))
    metrics.cuts_rejected = draw(st.dictionaries(_text, _count, max_size=3))
    metrics.sat_backend_events = draw(st.dictionaries(_text, _count, max_size=3))
    metrics.phase_seconds = draw(st.dictionaries(_text, _seconds, max_size=3))
    return metrics


batch_reports = st.builds(
    BatchReport,
    total=_count,
    done=_count,
    quarantined=_count,
    failed_attempts=_count,
    retries=_count,
    adopted=_count,
    wall_seconds=_seconds,
    interrupted=st.booleans(),
    max_concurrent=_count,
    jobs_per_slot=st.dictionaries(_text, _count, max_size=3),
    metrics=pass_metrics(),
    jobs=st.lists(_json_dict, max_size=3),
)


def _through_json(data: dict) -> dict:
    return json.loads(json.dumps(data, sort_keys=True))


@settings(max_examples=60, deadline=None)
@given(job_specs)
def test_job_spec_round_trip(spec):
    assert JobSpec.from_dict(spec.to_dict()) == spec
    assert JobSpec.from_dict(_through_json(spec.to_dict())) == spec


@settings(max_examples=60, deadline=None)
@given(sweep_specs)
def test_sweep_spec_round_trip(spec):
    assert SweepSpec.from_dict(spec.to_dict()) == spec
    assert SweepSpec.from_dict(_through_json(spec.to_dict())) == spec


@settings(max_examples=60, deadline=None)
@given(pass_metrics())
def test_pass_metrics_round_trip(metrics):
    assert PassMetrics.from_dict(metrics.to_dict()) == metrics
    assert PassMetrics.from_dict(_through_json(metrics.to_dict())) == metrics


@settings(max_examples=60, deadline=None)
@given(batch_reports)
def test_batch_report_round_trip(report):
    assert BatchReport.from_dict(report.to_dict()) == report
    assert BatchReport.from_dict(_through_json(report.to_dict())) == report


def test_merge_sums_every_counter_field():
    """Every int and dict field is summed — a new counter cannot be
    forgotten by merge, because this test walks the dataclass fields."""
    a, b = PassMetrics(variant="BF"), PassMetrics(variant="TFD")
    expected = {}
    for offset, spec in enumerate(dataclasses.fields(PassMetrics)):
        if spec.name == "variant":
            continue
        if spec.type in ("int", int):
            setattr(a, spec.name, offset + 1)
            setattr(b, spec.name, 100 * (offset + 1))
            expected[spec.name] = 101 * (offset + 1)
        else:
            assert spec.type.startswith("dict["), spec.name
            setattr(a, spec.name, {"shared": 1, "a-only": 2})
            setattr(b, spec.name, {"shared": 10, "b-only": 20})
            expected[spec.name] = {"shared": 11, "a-only": 2, "b-only": 20}
    a.merge(b)
    assert a.variant == "BF"
    for name, value in expected.items():
        assert getattr(a, name) == value, name
    # The partner is left untouched.
    assert b.sat_conflicts != a.sat_conflicts
