import csv
import io
import json
import math
import random

import pytest
from hypothesis import given, strategies as st

from neurobench import derive, load_datasets, report
from neurobench.report import MATRIX_HEADER, ScatterPoint, pareto_front

from conftest import rewrite_json


def brute_force_pareto(points):
    """O(n^2) dominance oracle."""
    out = []
    for p in points:
        if not any(q.x <= p.x and q.y <= p.y and (q.x < p.x or q.y < p.y) for q in points if q is not p):
            out.append(p)
    return sorted(out, key=lambda p: (p.x, p.y, p.label))


def pt(x, y, label="p", series="ANN"):
    return ScatterPoint(label=label, x=x, y=y, series=series)


def test_pareto_dominance_definition():
    points = [pt(1, 2, "a"), pt(2, 1, "b"), pt(2, 2, "c")]
    front = pareto_front(points)
    assert {(p.x, p.y) for p in front} == {(1, 2), (2, 1)}


def test_pareto_single_point():
    only = [pt(3, 4)]
    assert pareto_front(only) == only


def test_pareto_dominated_chain():
    # strictly improving chain: only the minimum survives
    chain = [pt(i, i, label=f"p{i}") for i in range(1, 8)]
    front = pareto_front(chain)
    assert len(front) == 1 and front[0].x == 1


def test_pareto_permutation_independent():
    rng = random.Random(7)
    points = [pt(rng.randint(1, 9), rng.randint(1, 9), label=f"p{i}") for i in range(40)]
    shuffled = points[:]
    rng.shuffle(shuffled)
    assert pareto_front(points) == pareto_front(shuffled)


@given(
    coords=st.lists(
        st.tuples(st.integers(1, 20), st.integers(1, 20)), min_size=0, max_size=40
    )
)
def test_pareto_matches_oracle(coords):
    points = [pt(x, y, label=f"p{i}") for i, (x, y) in enumerate(coords)]
    assert pareto_front(points) == brute_force_pareto(points)


@given(
    points=st.lists(
        st.builds(
            pt,
            x=st.sampled_from([1.0, 2.0, 3.0, math.inf]),
            y=st.sampled_from([1.0, 2.0, 3.0, math.inf]),
            label=st.sampled_from(["a", "b"]),
            series=st.sampled_from(["ANN", "SNN"]),
        ),
        max_size=40,
    )
)
def test_pareto_matches_oracle_with_many_ties(points):
    # few distinct coordinates and labels: equal points, shared x and shared y
    # are the rule, and points equal in (x, y, label) keep their input order
    assert pareto_front(points) == brute_force_pareto(points)


# -- matrices -------------------------------------------------------------------


def test_element_matrix_covers_every_label(registry):
    text = report.emit_matrix(registry, "elements")
    rows = text.strip().split("\n")
    assert len(rows) == 1 + 56
    assert rows[0] == ",".join(MATRIX_HEADER)
    labels = {r.split(",")[0] for r in rows[1:]}
    assert {"ANNDCSRAM", "CNNDCSRAM", "SpiDCSRAM", "OscMOSring", "OscME"} <= labels


def test_matrix_row_order_follows_dataset(registry):
    text = report.emit_matrix(registry, "elements")
    labels = [r.split(",")[0] for r in text.strip().split("\n")[1:]]
    assert labels == [t.label for t in registry.enumerate_technologies()]
    assert labels[0].startswith("ANN")
    assert labels[-1].startswith("Osc")


def test_matrix_deterministic(registry):
    assert report.emit_matrix(registry, "elements") == report.emit_matrix(registry, "elements")


def test_matrix_csv_round_trips(registry):
    text = report.emit_matrix(registry, "elements")
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == 56
    for row in parsed:
        for col in MATRIX_HEADER[1:]:
            assert float(row[col]) > 0


def test_matrix_json_round_trips(registry):
    text = report.emit_matrix(registry, "elements", fmt="json")
    doc = json.loads(text)
    assert len(doc) == 56
    assert doc[0]["technology"].startswith("ANN")


def test_workload_matrix(registry):
    text = report.emit_matrix(registry, "workload", workload="mnist_mlp")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 56
    schedules = {r["technology"]: r["schedule"] for r in rows}
    assert schedules["ANNDCCMAC"] == "time_multiplexed"  # MAC combos serialize
    assert schedules["ANNDCSRAM"] == "parallel"


def test_unknown_workload_name_rejected(registry):
    from neurobench.registry import UnknownNameError

    with pytest.raises(UnknownNameError):
        report.emit_matrix(registry, "workload", workload="does_not_exist")


def test_chips_matrix_blank_cells_for_incomputable(registry):
    text = report.emit_matrix(registry, "chips")
    rows = list(csv.DictReader(io.StringIO(text)))
    by_name = {r["chip"]: r for r in rows}
    assert by_name["TrueNorth"]["synapse_area_nm2"] != ""
    assert by_name["DYNAPSEL"]["synapse_area_nm2"] == ""  # activity unpublished
    assert by_name["Q4MobilEye"]["synapse_area_nm2"] == ""  # no area published


@pytest.mark.parametrize(
    "scope, workload, fmt, message",
    [
        ("nope", None, "xml", "unknown matrix scope 'nope'"),
        ("workload", None, "xml", "workload scope requires a workload name"),
        ("workload", "nope", "xml", "unknown workload 'nope'"),
        ("elements", None, "xml", "unknown export format 'xml'"),
    ],
)
def test_matrix_errors_name_scope_then_workload_then_format(registry, scope, workload, fmt, message):
    from neurobench.registry import UnknownNameError

    with pytest.raises(UnknownNameError, match=message):
        report.emit_matrix(registry, scope, workload=workload, fmt=fmt)


@given(st.floats(), st.integers(1, 30))
def test_the_figure_template_formats_as_format_does(x, precision):
    assert f"%.{precision}g" % x == format(x, f".{precision}g")


@pytest.mark.parametrize("precision", [1, 6, 17])
def test_json_cells_equal_csv_cells(registry, precision):
    scopes = [("elements", None), ("chips", None), *(("workload", name) for name in sorted(registry.workloads))]
    for scope, workload in scopes:
        csv_text = report.emit_matrix(registry, scope, workload=workload, precision=precision)
        json_text = report.emit_matrix(registry, scope, workload=workload, precision=precision, fmt="json")
        assert json.loads(json_text) == list(csv.DictReader(io.StringIO(csv_text, newline=""))), scope


def test_csv_quotes_dataset_names(data_copy):
    # csv.writer leaves a bare CR unquoted before Python 3.13, which splits the row for a reader
    awkward = {"TrueNorth": "True\rNorth", "Neurogrid": "Neuro\ngrid", "IFAT": "I,FAT", "ROLLS": 'R,"O"\r\nLLS'}

    def rename_chips(doc):
        for row in doc["chips"]:
            row["name"] = awkward.get(row["name"], row["name"])

    def rename_combo(doc):
        row = next(row for row in doc["combos"] if row["code"] == "DCSRAM")
        row.update(code="D,CSRAM", neuron_code="D,C")

    rewrite_json(data_copy / "chips_neuromorphic.json", rename_chips)
    rewrite_json(data_copy / "technologies.json", rename_combo)
    registry = load_datasets(data_copy)
    labels = [t.label for t in registry.enumerate_technologies()]
    assert set(awkward.values()) <= registry.chips.keys() and "ANND,CSRAM" in labels
    points = report.scatter_dataset(registry, "neuron")
    for text, names in [
        (report.emit_matrix(registry, "chips"), sorted(registry.chips)),
        (report.emit_matrix(registry, "elements"), labels),
        (report.emit_scatter(points), [p.label for p in points]),
    ]:
        header, *rows = csv.reader(io.StringIO(text, newline=""))
        assert [row[0] for row in rows] == names
        assert all(len(row) == len(header) for row in rows)


def test_scatter_points_are_plottable(registry):
    for what in ("synapse", "neuron"):
        points = report.scatter_dataset(registry, what)
        assert len(points) == 56
        assert all(p.x > 0 and p.y > 0 for p in points)
        assert {p.series for p in points} == {"ANN", "CNN", "SNN", "ONN"}


def test_scatter_emit_round_trips(registry):
    points = report.scatter_dataset(registry, "neuron")
    text = report.emit_scatter(points)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(points)
    assert float(rows[0]["x"]) > 0


def test_geometric_mean_sums_logs_left_to_right(registry):
    # with the supply voltage doubled, a compensated sum of the logs (sum() from
    # Python 3.12 on) gives other bits for some network kinds
    derived = derive(registry, {"constants.json": {("supply_voltage",): 2 * registry.constants.supply_voltage}})
    for kind in ("ANN", "ONN", "CNN", "SNN"):
        delays = [row.neuron.delay for row in report.element_matrix(derived, kind)]
        total = 0.0
        for d in delays:
            total += math.log(d)
        assert report.geometric_mean_neuron_delay(derived, kind) == math.exp(total / len(delays)), kind


def test_geometric_mean_names_a_kind_with_no_technologies(data_copy):
    rewrite_json(data_copy / "technologies.json", lambda doc: doc.update(oscillators=[]))
    registry = load_datasets(data_copy)
    assert report.geometric_mean_neuron_delay(registry, "ANN") > 0
    with pytest.raises(ValueError, match="no ONN technologies"):
        report.geometric_mean_neuron_delay(registry, "ONN")
