"""Grammar fuzzing of the two text inputs: fault schedules and trace files.

Whatever the input, parsing either returns values of the documented
field types or raises ``ValueError`` naming the cause — never
``KeyError``, ``IndexError``, ``AttributeError`` or ``TypeError`` from
deep inside the parser.  Every counter-example hypothesis has shrunk to
is kept below as an explicit case.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import ALGORITHMS
from repro.faults.spec import FaultKind, FaultSchedule
from repro.service.request import Priority
from repro.service.trace import load_trace_file, requests_from_entries

#: A small step budget: this runs in tier-1.
FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# Fault schedules
# ----------------------------------------------------------------------

#: Grammar fragments, so generated text reaches past the kind lookup.
_FAULT_TOKENS = [kind.value for kind in FaultKind] + [
    "device", "host", "p", "probability", "factor",
    "@", ":", ",", "=", ";", " ",
    "-1", "0", "1", "3", "0.5", "1e400", "inf", "nan", "1_0", "x",
]

fault_text = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(_FAULT_TOKENS), max_size=14).map("".join),
)


def check_fault_text(text):
    try:
        schedule = FaultSchedule.parse(text)
    except ValueError:
        return
    assert schedule.specs
    for spec in schedule.specs:
        assert isinstance(spec.kind, FaultKind)
        assert type(spec.at_super_iteration) is int and spec.at_super_iteration >= 0
        for index in (spec.device, spec.host):
            assert index is None or (type(index) is int and index >= 0)
        assert spec.probability is None or 0.0 < spec.probability <= 1.0
        assert spec.factor is None or (math.isfinite(spec.factor) and spec.factor > 0.0)


@FUZZ
@given(fault_text)
def test_fault_grammar_parses_or_raises_value_error(text):
    check_fault_text(text)


@pytest.mark.parametrize(
    "text",
    [
        "interconnect-degrade:factor=inf",
        "interconnect-degrade:factor=1e400",
        "interconnect-degrade:factor=nan",
        "transfer-flaky:p=0.1,p=0.2",
        "transfer-flaky:p=0.1,probability=0.1",
        "device-loss@1_0",
        "device-loss@١",
        "memory-pressure:factor=nan",
        "host-loss:host=",
        "@",
        ":",
    ],
)
def test_fault_grammar_cases(text):
    check_fault_text(text)


# ----------------------------------------------------------------------
# Trace entries
# ----------------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=5,
)

#: Per key: values of the right JSON type, so that whole traces parse
#: often enough to check the parsed types (any JSON mixes in below).
_PLAUSIBLE = {
    "algorithm": st.sampled_from(sorted(ALGORITHMS) + ["BFS", "triangles"]),
    "source": st.integers(min_value=-2, max_value=50),
    "priority": st.sampled_from([member.name.lower() for member in Priority] + [0, 1, 2, 9]),
    "deadline_s": st.floats(allow_nan=True, allow_infinity=True) | st.integers(),
    "label": st.text(max_size=6),
    "arrival_s": st.floats(allow_nan=True, allow_infinity=True) | st.integers(),
}
_VALUES = {key: values | json_values for key, values in _PLAUSIBLE.items() if key != "algorithm"}

trace_entries = st.fixed_dictionaries({"algorithm": _PLAUSIBLE["algorithm"]}, optional=_VALUES)

#: Mostly entry-shaped traces; sometimes lists of any JSON (unknown keys,
#: non-object entries).
traces = st.lists(trace_entries, min_size=1, max_size=3) | st.lists(json_values, min_size=1, max_size=3)


def check_requests(parse, *args):
    try:
        requests = parse(*args)
    except ValueError:
        return
    assert requests
    for request in requests:
        assert type(request.algorithm) is str and request.algorithm in ALGORITHMS
        assert request.source is None or type(request.source) is int
        assert isinstance(request.priority, Priority)
        assert request.deadline_s is None or (type(request.deadline_s) is float and request.deadline_s >= 0)
        assert request.label is None or type(request.label) is str
        assert type(request.arrival_s) is float and 0.0 <= request.arrival_s < math.inf


@FUZZ
@given(traces)
def test_trace_entries_parse_or_raise_value_error(entries):
    check_requests(requests_from_entries, entries)


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz-traces")


@FUZZ
@given(traces, st.booleans())
def test_trace_files_parse_or_raise_value_error(trace_dir, entries, lines):
    path = trace_dir / "trace.jsonl"
    path.write_text("\n".join(map(json.dumps, entries)) if lines else json.dumps(entries))
    check_requests(load_trace_file, path)


@FUZZ
@given(st.text(alphabet=st.characters(min_codepoint=9, max_codepoint=126), max_size=40))
def test_trace_file_text_parses_or_raises_value_error(trace_dir, text):
    path = trace_dir / "raw.json"
    path.write_text(text)
    check_requests(load_trace_file, path)


@pytest.mark.parametrize(
    "entry",
    [
        # Shrunk by the fuzzer: an arrival just past int64 broke np.isfinite.
        {"algorithm": "bfs", "arrival_s": -9_223_372_036_854_775_809},
        # Shrunk by the fuzzer: a non-string label loaded, then broke routing.
        {"algorithm": "bfs", "label": []},
        {"algorithm": "bfs", "deadline_s": 10**400},
        {"algorithm": "bfs", "arrival_s": 10**400},
        {"algorithm": "bfs", "deadline_s": math.nan},
        {"algorithm": "sssp", "label": 7},
        {"algorithm": "bfs", "priority": [1]},
        {"algorithm": "bfs", "priority": {}},
        {"algorithm": "bfs", "priority": None},
        {"algorithm": 0},
        {"soruce": 0},
    ],
)
def test_trace_entry_cases(entry):
    check_requests(requests_from_entries, [entry])
    with pytest.raises(ValueError, match="entry #0"):
        requests_from_entries([entry])
