"""An aggregate over an inner join reads the join's matches, not its output.

When some probe row matches more than once, the join is left lazy: it
hands its reader a :class:`JoinedRows`, the probe rows that match plus a
match count for each. The aggregate finds groups and pairs on those probe
rows and repeats them. The bar is the built pair: the join built, then
``execute_aggregate``, must give the same bits, on every key kind, weight
placement and aggregate kind. A compiled plan must also record the same
cardinalities and operator rows as the recursive oracle, which builds
every join, and be charged the same bytes. Shapes that key on a build
column read the lazy join per output row.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.aggregates import (
    avg, count, count_distinct, count_if, max_, min_, sum_, sum_if,
)
from repro.algebra.builder import scan
from repro.algebra.expressions import col
from repro.algebra.logical import Aggregate
from repro.core.rewrite import WeightedAggregate
from repro.engine import operators
from repro.engine.aggregate import key_columns
from repro.engine.executor import Executor
from repro.engine.governance import GovernanceContext
from repro.engine.operators import JoinedRows, execute_aggregate, execute_join
from repro.engine.physical import compile_plan
from repro.engine.table import WEIGHT_COLUMN, Database, Table
from repro.errors import BudgetExceeded, SchemaError
from repro.obs.trace import Tracer, pop_override, push_override
from repro.parallel import ParallelOptions
from repro.service.protocol import table_digest
from tests.engine.test_compiled_equivalence import reference_run
from tests.engine.test_keys import ref_join


def assert_same_bits(got: Table, want: Table):
    assert got.column_names == want.column_names
    assert got.num_rows == want.num_rows
    for name in want.column_names:
        g, w = got.column(name), want.column(name)
        assert g.dtype == w.dtype, name
        assert g.tobytes() == w.tobytes(), name


def sides(n_left=400, n_right=120, span=60, unique=False, seed=0, weights=(), coded=True):
    """A probe side ``l`` and a build side ``r`` joined on ``lk = rk``;
    ``weights`` names the sides ("l", "r") that carry a weight column."""
    rng = np.random.default_rng(seed)
    colors = np.array(["red", "blue", "green", "plum"])
    right_keys = rng.permutation(span)[:n_right] if unique else rng.integers(0, span, n_right)
    left = {
        "lk": rng.integers(0, span, n_left),
        "g": rng.integers(0, 5, n_left),
        "h": colors[rng.integers(0, 4, n_left)],
        "x": rng.normal(3.0, 9.0, n_left),
        "c": rng.integers(0, 40, n_left),
        "f": rng.choice([0.5, 1.5, -2.0, 7.25], n_left),
    }
    right = {
        "rk": right_keys,
        "b": rng.integers(0, 3, len(right_keys)),
        "y": rng.normal(1.0, 4.0, len(right_keys)),
        "s": colors[rng.integers(0, 4, len(right_keys))],
    }
    for side, columns, key in (("l", left, "lk"), ("r", right, "rk")):
        if side in weights:
            columns[WEIGHT_COLUMN] = rng.uniform(1.0, 6.0, len(columns[key]))
    left, right = Table("l", left), Table("r", right)
    return (left.encoded(), right.encoded()) if coded else (left, right)


#: Every aggregate kind, IF forms and a measure that multiplies a probe by
#: a build column included.
ALL_KINDS = (
    sum_(col("x"), "sx"),
    count("n"),
    avg(col("x"), "ax"),
    min_(col("x"), "lo"),
    max_(col("y"), "hi"),
    sum_if(col("x"), col("y") > 0.5, "sif"),
    count_if(col("b") > 0, "cif"),
    count_distinct(col("c"), "dc"),
    sum_(col("x") * col("y"), "mixed"),
    avg(col("y"), "ay"),
)


def both(left, right, group_by, aggs, left_keys=("lk",), right_keys=("rk",), probe=True, **how):
    """The lazy step's answer, after checking it bit for bit against the
    built join then aggregate; ``probe`` says whether groups and pairs are
    expected to be found on the probe rows (no NaN in a key column)."""
    columns = left.data_column_names() + right.data_column_names()
    joined = execute_join(left, right, left_keys, right_keys, "inner", columns)
    built = ref_join(left, right, left_keys, right_keys, "inner", columns)
    assert joined.num_rows == built.num_rows
    assert joined.estimated_bytes() == built.estimated_bytes()
    assert dict(joined.dictionaries()).keys() == dict(built.dictionaries()).keys()
    assert_same_bits(joined.built(), built)
    if not isinstance(joined, Table):  # some probe row matches twice
        names = key_columns(group_by, aggs)
        assert (joined.probe_rows(names or ()) is not None) == (probe and bool(names))
    want = execute_aggregate(built, group_by, aggs, **how)
    got = execute_aggregate(joined, group_by, aggs, **how)
    assert_same_bits(got, want)
    return got


class TestOperatorPair:
    @pytest.mark.parametrize("unique", [False, True], ids=["duplicate-build", "unique-build"])
    @pytest.mark.parametrize("coded", [True, False], ids=["coded", "plain-strings"])
    @pytest.mark.parametrize("group_by", [(), ("g",), ("h", "g")])
    @pytest.mark.parametrize("weights", [(), ("l",), ("r",), ("l", "r")])
    @pytest.mark.parametrize("compute_ci", [False, True])
    def test_every_kind(self, unique, coded, group_by, weights, compute_ci):
        left, right = sides(unique=unique, coded=coded, weights=weights)
        both(left, right, group_by, ALL_KINDS, compute_ci=compute_ci)

    @pytest.mark.parametrize("weights", [("l",), ("r",), ("l", "r")])
    @pytest.mark.parametrize("universe", [("c",), ("c", "g"), ("f",), ("h",)])
    def test_universe_variance_and_rescale(self, weights, universe):
        left, right = sides(weights=weights)
        both(
            left, right, ("g",), ALL_KINDS, compute_ci=True,
            universe_rescale={"dc": 5.0}, universe_variance=(universe, 0.2),
        )

    def test_universe_column_the_join_does_not_carry_is_ignored(self):
        left, right = sides(weights=("l",))
        both(left, right, ("g",), ALL_KINDS, compute_ci=True, universe_variance=(("zz",), 0.3))

    @pytest.mark.parametrize("values", [
        np.arange(400) % 7,  # a dense integer span
        (np.arange(400) % 7) << 40,  # a sparse one: pairs are grouped
        (np.arange(400) % 7) * 0.5,  # floats
        np.array(["a", "bb", "c", "dd"])[np.arange(400) % 4],  # strings
    ], ids=["dense", "sparse", "float", "string"])
    @pytest.mark.parametrize("coded", [True, False])
    def test_count_distinct_values(self, values, coded):
        left, right = sides(coded=False)
        left = left.with_columns({"v": values})
        if coded:
            left, right = left.encoded(), right.encoded()
        aggs = (count_distinct(col("v"), "dv"), count_distinct(col("c"), "dc"), count("n"))
        for group_by in [(), ("g",), ("h",)]:
            both(left, right, group_by, aggs)

    def test_only_a_fan_out_is_left_unbuilt(self):
        """With no probe row matching twice the output is the matched probe
        rows, all of which the aggregate reads: it is built."""
        for unique, kind in [(True, Table), (False, JoinedRows)]:
            left, right = sides(unique=unique)
            columns = left.data_column_names() + right.data_column_names()
            assert type(execute_join(left, right, ["lk"], ["rk"], "inner", columns)) is kind

    def test_probe_rows_without_a_match(self):
        left, right = sides(span=600, n_right=25, unique=True)
        right = right.take(np.repeat(np.arange(25), 2))  # every build key twice
        columns = left.data_column_names() + right.data_column_names()
        joined = execute_join(left, right, ["lk"], ["rk"], "inner", columns)
        assert isinstance(joined, JoinedRows)
        assert 0 < joined.num_probe_rows < left.num_rows / 4
        both(left, right, ("g",), ALL_KINDS)

    @pytest.mark.parametrize("case", ["left", "right", "disjoint"])
    @pytest.mark.parametrize("group_by", [(), ("g",)])
    def test_empty(self, case, group_by):
        left, right = sides(weights=("l",))
        if case == "left":
            left = left.take(np.arange(0))
        elif case == "right":
            right = right.take(np.arange(0))
        else:
            right = right.with_columns({"rk": right.column("rk") + 10_000})
        out = both(left, right, group_by, ALL_KINDS, compute_ci=True)
        assert out.num_rows == (0 if group_by else 1)

    def test_multi_column_join_and_group_keys(self):
        left, right = sides(span=8, n_right=40)
        left = left.with_columns({"lk2": left.column("g") % 2})
        right = right.with_columns({"rk2": right.column("b") % 2})
        both(left, right, ("h", "g", "c"), ALL_KINDS, ("lk", "lk2"), ("rk", "rk2"))

    def test_string_join_keys(self):
        left, right = sides(coded=False)
        both(left, right, ("g",), ALL_KINDS, ("h",), ("s",))
        left, right = left.encoded(), right.encoded()
        both(left, right, ("g",), ALL_KINDS, ("h",), ("s",))

    def test_nan_join_keys_never_match(self):
        left, right = sides(span=20)
        lk = left.column("lk").astype(float)
        rk = right.column("rk").astype(float)
        lk[::5], rk[::4] = np.nan, np.nan
        left, right = left.with_columns({"lk": lk}), right.with_columns({"rk": rk})
        both(left, right, ("g",), ALL_KINDS)

    def test_nan_group_keys_are_each_a_group_of_their_own(self):
        left, right = sides(span=20)
        f = left.column("f").copy()
        f[::7] = np.nan
        left = left.with_columns({"f": f})
        out = both(left, right, ("f",), ALL_KINDS, probe=False)
        assert np.isnan(out.column("f")).sum() > np.isnan(f).sum()  # one per output row
        both(left, right, ("g",), ALL_KINDS + (count_distinct(col("f"), "df"),), probe=False)

    def test_object_key_column_is_keyed_per_output_row(self):
        left, right = sides(coded=False)
        left = left.with_columns({"o": left.column("h").astype(object)})
        both(left, right, ("o",), ALL_KINDS, probe=False)

    def test_lineage_is_charged_and_must_not_clash(self):
        left, right = sides()
        left = left.with_columns({"__rid000__": np.arange(left.num_rows)})
        both(left, right.with_columns({"__rid001__": np.arange(right.num_rows)}), ("g",), ALL_KINDS)
        clash = right.with_columns({"__rid000__": np.arange(right.num_rows)})
        with pytest.raises(SchemaError, match="lineage"):
            execute_join(left, clash, ["lk"], ["rk"], "inner", ["g"])

    def test_build_indices_only_for_a_build_column(self, monkeypatch):
        left, right = sides()
        built = []
        real = operators._KeyMatches.build_index
        monkeypatch.setattr(
            operators._KeyMatches, "build_index", lambda self: built.append(1) or real(self)
        )
        columns = left.data_column_names() + right.data_column_names()
        joined = execute_join(left, right, ["lk"], ["rk"], "inner", columns)
        assert isinstance(joined, JoinedRows)
        execute_aggregate(joined, ("g", "h"), (sum_(col("x"), "s"), count_distinct(col("c"), "d")))
        assert built == []
        execute_aggregate(joined, ("g",), (sum_(col("y"), "s"),))
        assert built == [1]


@st.composite
def two_inputs(draw):
    n_left, n_right = draw(st.integers(0, 60)), draw(st.integers(0, 25))
    span = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2**16))
    unique = draw(st.booleans()) and n_right <= span
    weights = draw(st.sampled_from([(), ("l",), ("r",), ("l", "r")]))
    coded = draw(st.booleans())
    group_by = draw(st.sampled_from([(), ("g",), ("h",), ("g", "c"), ("f", "h")]))
    aggs = draw(st.lists(st.sampled_from(ALL_KINDS), min_size=1, max_size=4, unique=True))
    compute_ci = draw(st.booleans())
    universe = draw(st.sampled_from([None, ("c",), ("g", "h")]))
    left, right = sides(n_left, n_right, span, unique, seed, weights, coded)
    return left, right, group_by, tuple(aggs), compute_ci, universe


class TestProperty:
    @given(case=two_inputs())
    @settings(max_examples=200, deadline=None)
    def test_random_shapes(self, case):
        left, right, group_by, aggs, compute_ci, universe = case
        columns = left.data_column_names() + right.data_column_names()
        how = dict(
            compute_ci=compute_ci,
            universe_variance=(universe, 0.25) if universe else None,
            universe_rescale={"dc": 4.0} if universe else None,
        )
        joined = execute_join(left, right, ["lk"], ["rk"], "inner", columns)
        built = ref_join(left, right, ["lk"], ["rk"], "inner", columns)
        assert_same_bits(
            execute_aggregate(joined, group_by, aggs, **how),
            execute_aggregate(built, group_by, aggs, **how),
        )


# -- compiled plans -----------------------------------------------------------


@pytest.fixture(scope="module")
def two_tables():
    left, right = sides(n_left=3000, n_right=900, span=300, weights=())
    db = Database()
    db.register(left)
    db.register(right)
    return db


def plan_of(db, group_by, aggs, how="inner", weighted=None):
    joined = scan(db, "l").join(scan(db, "r"), on=[("lk", "rk")], how=how)
    if weighted is None:
        return Aggregate(joined.node, group_by, aggs)
    return WeightedAggregate(joined.node, group_by, aggs, **weighted)


def traced(physical, db, **kwargs):
    """One traced run with metrics: ``(table, cardinalities, metrics)``
    and the ``op.join`` and ``op.aggregate`` spans' attributes."""
    tracer = Tracer()
    run = physical.execute(db, record_metrics=True, tracer=tracer, **kwargs)
    return run, [
        (span.name, span.attributes)
        for span in tracer.spans if span.name in ("op.join", "op.aggregate")
    ]


def built_join(db, join):
    """The compiled plan's join over its two scans, built."""
    return ref_join(db.table("l"), db.table("r"), ["lk"], ["rk"], join.node.how, join.columns)


class TestCompiledPlans:
    @pytest.mark.parametrize("group_by", [(), ("g",), ("h", "g")])
    @pytest.mark.parametrize("weighted", [None, {"compute_ci": True}, {
        "compute_ci": True, "universe_rescale": {"dc": 3.0}, "universe_variance": (("c",), 0.3),
    }])
    def test_same_table_cardinalities_and_operator_rows(self, two_tables, group_by, weighted):
        plan = plan_of(two_tables, group_by, ALL_KINDS, weighted=weighted)
        physical = compile_plan(plan, two_tables)
        (join,) = [op for op in physical.ops if op.opcode == "join"]
        (got, got_cards, got_ops), spans = traced(physical, two_tables)
        assert "probe_rows" in spans[0][1]
        want, want_cards = reference_run(two_tables, plan)
        assert_same_bits(got, want)
        assert got_cards == want_cards
        built = built_join(two_tables, join)
        reads = {"l": two_tables.table("l").num_rows, "r": two_tables.table("r").num_rows}
        assert [(m.address, m.rows_in, m.rows_out) for m in got_ops] == [
            (op.address, reads[op.node.table] if op.opcode == "scan"
             else sum(want_cards[physical.ops[i].address] for i in op.child_slots),
             want_cards[op.address])
            for op in physical.ops
        ]
        assert got_ops[join.index].coded == len(built.dictionaries())
        direct = execute_aggregate(built, group_by, ALL_KINDS, *physical.ops[-1].estimation)
        assert_same_bits(got, direct)

    @pytest.mark.parametrize("shape", [
        "build-group", "build-distinct", "build-universe", "computed-distinct", "left-outer",
    ])
    def test_shapes_that_key_on_the_build_side_keep_the_built_join(self, two_tables, shape):
        """An aggregate keyed on a build column, or on a computed value,
        reads the lazy join per output row: the built join's bits. An
        outer join, whose fill rows no probe row stands for, is built."""
        group_by, aggs, how, weighted = ("g",), ALL_KINDS, "inner", None
        if shape == "build-group":
            group_by = ("g", "b")
        elif shape == "build-distinct":
            aggs = ALL_KINDS + (count_distinct(col("s"), "ds"),)
        elif shape == "build-universe":
            weighted = {"compute_ci": True, "universe_variance": (("b",), 0.5)}
        elif shape == "computed-distinct":
            aggs = (count_distinct(col("c") * 2, "d2"), count("n"))
        else:
            how = "left"
        plan = plan_of(two_tables, group_by, aggs, how, weighted)
        (got, got_cards, _), spans = traced(compile_plan(plan, two_tables), two_tables)
        assert ("probe_rows" in spans[0][1]) == (how == "inner")
        want, want_cards = reference_run(two_tables, plan)
        assert_same_bits(got, want)
        assert got_cards == want_cards

    def test_only_the_join_right_below_an_aggregate(self, two_tables, monkeypatch):
        """A select reads rows: the join below it fans out and is left
        lazy, and the select builds it."""
        plan = (
            scan(two_tables, "l")
            .join(scan(two_tables, "r"), on=[("lk", "rk")])
            .where(col("y") > 0)
            .groupby("g")
            .agg(sum_(col("x"), "s"))
            .build("filtered")
            .plan
        )
        built, real = [], JoinedRows.built
        monkeypatch.setattr(JoinedRows, "built", lambda self: built.append(1) or real(self))
        (got, _, _), spans = traced(compile_plan(plan, two_tables), two_tables)
        assert "probe_rows" in spans[0][1]
        assert built == [1]
        monkeypatch.undo()
        assert_same_bits(got, reference_run(two_tables, plan)[0])

    def test_a_lazy_root_is_built_within_the_timed_execute(self, two_tables, monkeypatch):
        """A fan-out join at the plan's root is built once, inside the
        query's ``query.execute`` span: the span, the query's seconds and
        the ``executor.execute_seconds`` histogram all count the build."""
        plan = scan(two_tables, "l").join(scan(two_tables, "r"), on=[("lk", "rk")]).node
        built, real = [], JoinedRows.built

        def slow_build(self):
            built.append(1)
            time.sleep(0.05)
            return real(self)

        monkeypatch.setattr(JoinedRows, "built", slow_build)
        executor, tracer = Executor(two_tables), Tracer()
        previous = push_override(tracer)
        try:
            result = executor.execute(plan)
        finally:
            pop_override(previous)
        assert built == [1]
        (span,) = tracer.find("query.execute")
        (join,) = tracer.find("op.join")
        assert "probe_rows" in join.attributes
        assert span.duration_ns >= 50_000_000
        assert result.wall_clock_seconds >= 0.05
        assert executor.registry.histogram("executor.execute_seconds").snapshot()["sum"] >= 0.05
        monkeypatch.undo()
        assert_same_bits(result.table, reference_run(two_tables, plan)[0])

    def test_traced_join_span_reports_the_built_bytes(self, two_tables):
        physical = compile_plan(plan_of(two_tables, ("h",), ALL_KINDS), two_tables)
        (join,) = [op for op in physical.ops if op.opcode == "join"]
        built = built_join(two_tables, join)
        _, [(name, attributes), (_, aggregate)] = traced(physical, two_tables)
        assert name == "op.join" and attributes["bytes"] == built.estimated_bytes() > 0
        assert attributes["rows_out"] == aggregate["rows_in"] == built.num_rows
        assert attributes["coded"] == len(built.dictionaries())
        assert 0 < attributes["probe_rows"] < built.num_rows


# -- the paper's Fig. 1 query -------------------------------------------------


@pytest.fixture(scope="module")
def tpcds():
    from repro.workloads.tpcds import generate_tpcds

    return generate_tpcds(scale=0.05, seed=1)


def planned(db, name, kind):
    from repro.optimizer.planner import QuickrPlanner
    from repro.workloads.tpcds import query_by_name

    planner, query = QuickrPlanner(db), query_by_name(db, name)
    return (planner.plan_baseline(query) if kind == "exact" else planner.plan(query)).plan


class TestGovernance:
    def test_budget_only_the_join_output_exceeds(self, tpcds, monkeypatch):
        """q12 exact: the budget one byte under the plan's peak, which its
        top join's output sets, charged as the table it would have built.
        The run raises at that store, and the contract saw the peak."""
        physical = compile_plan(planned(tpcds, "q12", "exact"), tpcds)
        outputs, real = [], operators.execute_join
        monkeypatch.setattr(
            operators, "execute_join", lambda *a: outputs.append(real(*a)) or outputs[-1]
        )
        free = GovernanceContext()
        physical.execute(tpcds, governance=free)
        top = outputs[-1]
        assert isinstance(top, JoinedRows)
        built_bytes = top.built().estimated_bytes()
        assert free.peak_live_bytes == built_bytes
        budget = built_bytes - 1
        governance = GovernanceContext(memory_budget_bytes=budget)
        with pytest.raises(BudgetExceeded) as raised:
            physical.execute(tpcds, governance=governance)
        assert governance.peak_live_bytes == built_bytes
        assert str(raised.value) == (
            f"live intermediate state {built_bytes} bytes exceeds the memory budget "
            f"{budget} bytes"
        )
        unbounded = GovernanceContext()
        physical.execute(tpcds, governance=unbounded)
        assert unbounded.peak_live_bytes == free.peak_live_bytes


class TestParallel:
    @pytest.mark.parametrize("name", ["q12", "q14"])
    @pytest.mark.parametrize("kind", ["exact", "quickr"])
    def test_thread_pool_digest_equals_serial(self, tpcds, name, kind):
        plan = planned(tpcds, name, kind)
        serial = Executor(tpcds).execute(plan)
        parallel = Executor(
            tpcds, parallelism=2,
            parallel_options=ParallelOptions(pool="thread", min_partition_rows=1_000),
        ).execute(plan)
        assert parallel.parallel is not None
        assert table_digest(parallel.table) == table_digest(serial.table)
