import csv
import io
import json
import math
import random
import sys

import pytest
from hypothesis import given, strategies as st

from neurobench import derive, load_datasets, report, topsdown
from neurobench.chip import ChipConfig
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


# csv.writer leaves a bare CR unquoted before Python 3.13, which splits the row for a reader;
# a name holding "%" is never part of a template
AWKWARD_CHIPS = {
    "TrueNorth": "True\rNorth", "Neurogrid": "Neuro\ngrid", "IFAT": "I,FAT", "ROLLS": 'R,"O"\r\nLLS',
    "HICANN": "HI%CA%sNN%%", "DYNAPSEL": "DYNAP%sSEL",
}
AWKWARD_COMBOS = {  # code -> (neuron code, synapse code)
    "DCSRAM": ("D,C", "SRAM"),
    "DCCMAC": ("D%C", "%sMAC%%"),
}


@pytest.fixture()
def awkward_registry(data_copy):
    """The shipped dataset with the chips of AWKWARD_CHIPS and the combos of AWKWARD_COMBOS renamed."""

    def rename_chips(doc):
        for row in doc["chips"]:
            row["name"] = AWKWARD_CHIPS.get(row["name"], row["name"])

    def rename_combos(doc):
        for row in doc["combos"]:
            if row["code"] in AWKWARD_COMBOS:
                neuron_code, synapse_code = AWKWARD_COMBOS[row["code"]]
                row.update(code=neuron_code + synapse_code, neuron_code=neuron_code, synapse_code=synapse_code)

    rewrite_json(data_copy / "chips_neuromorphic.json", rename_chips)
    rewrite_json(data_copy / "technologies.json", rename_combos)
    return load_datasets(data_copy)


def test_csv_quotes_dataset_names(awkward_registry):
    registry = awkward_registry
    labels = [t.label for t in registry.enumerate_technologies()]
    assert set(AWKWARD_CHIPS.values()) <= registry.chips.keys()
    assert {"ANND,CSRAM", "ANND%C%sMAC%%", "CNND%C%sMAC%%"} <= set(labels)
    points = report.scatter_dataset(registry, "neuron")
    for text, names in [
        (report.emit_matrix(registry, "chips"), sorted(registry.chips)),
        (report.emit_matrix(registry, "elements"), labels),
        (report.emit_scatter(points), [p.label for p in points]),
    ]:
        header, *rows = csv.reader(io.StringIO(text, newline=""))
        assert [row[0] for row in rows] == names
        assert all(len(row) == len(header) for row in rows)


def reference_rows(registry, scope, workload, precision):
    """The header and (template, cells) rows of an `emit_matrix` document, one row at a time."""
    figure = f"%.{precision}g"
    if scope == "elements":
        row = ",".join(["%s", *[figure] * 12]) + "\n"
        techs = registry.enumerate_technologies()
        rows = [(t.label, *report.matrix_columns(report.bench_technology(t, registry))) for t in techs]
        return MATRIX_HEADER, [(row, cells) for cells in rows]
    if scope == "workload":
        header = ("technology", "area_nm2", "delay_ps", "energy_aJ", "power_W", "inferences_per_s", "schedule")
        row = ",".join(["%s", *[figure] * 5, "%s"]) + "\n"
        rows = []
        for t in registry.enumerate_technologies():
            b = report.bench_workload(workload, t, registry)
            rows.append((row, (t.label, b.area, b.delay, b.energy, b.power_w, b.inferences_per_s, b.schedule)))
        return header, rows
    header = ("chip", "kind", "synapse_area_nm2", "neuron_area_nm2")
    header += ("synapse_delay_ps", "synapse_energy_aJ", "neuron_energy_aJ")
    rows = []
    for name in sorted(registry.chips):
        chip = registry.chips[name]
        try:
            e = topsdown.topsdown_element(chip, registry)
        except topsdown.IncomputableError:
            rows.append((",".join(["%s"] * 7) + "\n", (name, chip.kind, "", "", "", "", "")))
            continue
        figures = (e.synapse_area, e.neuron_area, e.synapse_delay, e.synapse_energy, e.neuron_energy)
        rows.append((",".join(["%s", "%s", *[figure] * 5]) + "\n", (name, chip.kind, *figures)))
    return header, rows


def reference_csv(header, rows):
    return ",".join(header) + "\n" + "".join(t % (report._text(cells[0]), *cells[1:]) for t, cells in rows)


@pytest.mark.parametrize("precision", [1, 6, 17, 767])
@pytest.mark.parametrize("which", ["registry", "awkward_registry"])
def test_each_document_equals_its_rows_formatted_one_at_a_time(request, which, precision):
    registry = request.getfixturevalue(which)
    names = sorted(registry.workloads)
    for scope, workload in [("elements", None), ("chips", None), *(("workload", name) for name in names)]:
        header, rows = reference_rows(registry, scope, workload, precision)
        csv_text = report.emit_matrix(registry, scope, workload=workload, precision=precision)
        assert csv_text == reference_csv(header, rows), (scope, workload)
        table = [{h: f % c for h, f, c in zip(header, t[:-1].split(","), cells)} for t, cells in rows]
        json_text = report.emit_matrix(registry, scope, workload=workload, precision=precision, fmt="json")
        assert json_text == json.dumps(table, indent=1, sort_keys=True) + "\n", (scope, workload)
    kinds = [("synapse", None), ("neuron", None), *((kind, name) for kind in ("workload", "power") for name in names)]
    row = f"%s,%.{precision}g,%.{precision}g,%s\n"
    for what, workload in kinds:
        points = report.scatter_dataset(registry, what, workload)
        for subset in (points, report.pareto_front(points)):
            reference = reference_csv(ScatterPoint._fields, [(row, p) for p in subset])
            assert report.emit_scatter(subset, precision) == reference, (what, workload)


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


# -- position reads against by-name references ------------------------------------


def columns_by_name(row):
    return (
        row.synapse.area, row.core_ic.area, row.neuron.area, row.chip_ic.area,
        row.synapse.delay, row.core_ic.delay, row.neuron.delay, row.chip_ic.delay,
        row.synapse.energy, row.core_ic.energy, row.neuron.energy, row.chip_ic.energy,
    )


def bit_equal(got, want):
    """`==` on float tuples, and the same bits: 0.0 and -0.0 differ."""
    return got == want and list(map(float.hex, got)) == list(map(float.hex, want))


def derived_registries(registry):
    """The shipped registry and two derived ones whose rows differ in every column."""
    volts = registry.constants.supply_voltage
    yield registry
    yield derive(registry, {"constants.json": {("supply_voltage",): 1.3 * volts, ("wire_pitch_f",): 3.0}})
    yield derive(registry, {"devices.json": {("devices", "CMOSdig", "energy"): 45.0, ("devices", "ME", "area"): 6100}})


def test_columns_read_by_position_equal_the_by_name_reference(registry):
    um2 = 1e6
    for reg in derived_registries(registry):
        for tech in reg.enumerate_technologies():
            for row in (report.bench_technology(tech, reg), report.bench_technology(tech, reg, ChipConfig(2, 3, 5))):
                want = columns_by_name(row)
                assert bit_equal(row.columns(), want), tech.label
                assert bit_equal(report.matrix_columns(row), (*(a / um2 for a in want[:4]), *want[4:])), tech.label


def scatter_by_name(registry, what):
    points = []
    for tech in registry.enumerate_technologies():
        bench = report.bench_technology(tech, registry)
        triple = bench.synapse_total if what == "synapse" else bench.neuron_total
        points.append(ScatterPoint(tech.label, triple.delay, triple.energy, tech.network_kind))
    return points


def pareto_by_name(points):
    front = []
    for p in sorted(points, key=lambda p: (p.x, p.y, p.label)):
        if not front or p.y < front[-1].y or (p.y == front[-1].y and p.x == front[-1].x):
            front.append(p)
    return front


def test_scatter_and_front_read_by_position_equal_the_by_name_reference(registry):
    for reg in derived_registries(registry):
        for what in ("synapse", "neuron"):
            points = report.scatter_dataset(reg, what)
            assert points == scatter_by_name(reg, what) and all(type(p) is ScatterPoint for p in points)
            front = pareto_front(points)
            assert front == pareto_by_name(points)
            assert all(got is want for got, want in zip(front, pareto_by_name(points)))
    synapse = report.scatter_dataset(registry, "synapse")
    assert len({(p.x, p.y) for p in synapse}) < len(synapse)  # the shipped synapse points have ties


@given(
    points=st.lists(
        st.builds(
            pt,
            x=st.sampled_from([1.0, 2.0, -0.0, 0.0, math.inf, math.nan]),
            y=st.sampled_from([1.0, 2.0, -0.0, 0.0, math.inf]),
            label=st.sampled_from(["a", "b"]),
            series=st.sampled_from(["ANN", "SNN"]),
        ),
        max_size=30,
    )
)
def test_pareto_front_equals_the_by_name_reference_with_ties(points):
    front, want = pareto_front(points), pareto_by_name(points)
    assert len(front) == len(want) and all(got is w for got, w in zip(front, want))


# -- a warm hit runs in one frame ------------------------------------------------


def python_frames(call):
    """The names of the Python functions entered while `call()` runs."""
    entered = []

    def profile(frame, event, arg):
        if event == "call":
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return entered


def test_a_warm_hit_enters_no_python_frame_but_its_own(registry):
    tech, chip, spec = registry.technology("SpiMEME"), registry.chip("Loihi"), registry.workload("lenet")
    hits = {
        "bench_technology": lambda: report.bench_technology(tech, registry),
        "bench_workload": lambda: report.bench_workload("lenet", tech, registry),
        "topsdown_element": lambda: topsdown.topsdown_element(chip, registry),
        "run_workload_on_chip": lambda: topsdown.run_workload_on_chip(chip, spec, registry),
    }
    for name, hit in hits.items():
        hit()  # warms the memo
        assert python_frames(hit) == ["<lambda>", name], name
    backfill = lambda: topsdown.backfill_derived(chip)  # noqa: E731
    backfill()  # warms the cache, whose hit runs no Python code, not even its own
    assert python_frames(backfill) == ["<lambda>"]


def test_a_warm_walk_reads_the_memo_without_calling_the_entry_points(registry):
    """The whole-table walks read the registry's rows and workload results from the memo by
    name; a key that no longer matched the entry points' would fall back to them."""
    walks = {
        "elements": lambda: report.emit_matrix(registry, "elements"),
        "workload": lambda: report.emit_matrix(registry, "workload", workload="lenet"),
        "synapse": lambda: report.scatter_dataset(registry, "synapse"),
        "neuron": lambda: report.scatter_dataset(registry, "neuron"),
    }
    for name, walk in walks.items():
        walk()  # warms the memo
        entered = python_frames(walk)
        assert "bench_technology" not in entered and "bench_workload" not in entered, name
