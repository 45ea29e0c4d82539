"""Sums of declared decimal columns are exact, and read a lazy join per
probe row.

A table may declare decimal columns (``Database.register(...,
decimals=...)``), as TPC-DS declares its money columns ``decimal(7,2)``.
An unweighted SUM, SUM_IF or AVG whose measure traces to such a column
sums whole units, ``rint(10^s · y)``: exact integers in float64, so the
answer is the decimal total correctly rounded, whatever the order of the
rows, the split or the join's shape. Over a lazy fan-out join, such
sums (and COUNT, COUNT_IF) read one term per probe row. Weighted sums and
sums of undeclared or computed columns keep the float sum, bit for bit.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.aggregates import avg, count, count_if, max_, sum_, sum_if
from repro.algebra.builder import scan
from repro.algebra.expressions import col
from repro.engine import operators
from repro.engine.aggregate import decimal_scales
from repro.engine.executor import Executor
from repro.engine.operators import JoinedRows, execute_aggregate, execute_join, segment_sums
from repro.engine.table import WEIGHT_COLUMN, Database, Table
from repro.errors import SchemaError
from repro.obs.trace import Tracer
from repro.optimizer.planner import QuickrPlanner
from repro.service.protocol import table_digest
from repro.workloads.tpcds import generate_tpcds, query_by_name
from tests.engine.test_compiled_equivalence import reference_run
from tests.engine.test_keys import ref_join

#: The measure aggregates a declaration reaches.
DECIMAL_AGGS = (
    sum_(col("x"), "s"),
    sum_if(col("x"), col("c"), "si"),
    avg(col("x"), "a"),
)
SCALES = {"s": 2, "si": 2, "a": 2}


class TestDeclaration:
    def test_register_declares_and_reregister_forgets(self):
        db = Database()
        db.register(Table("t", {"x": np.array([1.25]), "k": np.array([1])}), decimals={"x": 2})
        assert db.decimal_scale("t", "x") == 2
        assert db.decimal_scale("t", "k") is None
        assert db.decimal_scale("missing", "x") is None
        db.register(Table("t", {"x": np.array([1.25]), "k": np.array([1])}))
        assert db.decimal_scale("t", "x") is None
        with pytest.raises(SchemaError):
            db.register(Table("u", {"x": np.array([1.0])}), decimals={"y": 2})

    def test_tpcds_money_columns_are_whole_cents(self, tiny_tpcds):
        """Every float column the generator makes is money, declared
        ``decimal(7,2)``, and holds whole cents."""
        for name, table in tiny_tpcds.tables().items():
            for column in table.data_column_names():
                values = table.key_column(column)
                if values.dtype.kind != "f":
                    assert tiny_tpcds.decimal_scale(name, column) is None, column
                    continue
                assert tiny_tpcds.decimal_scale(name, column) == 2, column
                np.testing.assert_array_equal(np.rint(values * 100.0) / 100.0, values)


class TestTracing:
    """Compile time attaches a scale to each sum whose bare column traces
    to a declared base column; nothing else gets one."""

    @pytest.fixture()
    def db(self):
        db = Database()
        db.register(
            Table("f", {"fk": np.arange(4), "x": np.array([0.5, 1.25, 2.0, 3.75]),
                        "q": np.arange(4)}),
            decimals={"x": 2},
        )
        db.register(Table("d", {"dk": np.arange(4), "y": np.arange(4) * 0.25}),
                    decimals={"y": 2})
        return db

    def test_through_joins_selects_and_identity_projects(self, db):
        node = (
            scan(db, "f").join(scan(db, "d"), on=[("fk", "dk")]).where(col("q") > 0)
            .derive(z=col("x") * 2.0)
            .groupby("q")
            .agg(sum_(col("x"), "sx"), avg(col("y"), "ay"), sum_if(col("x"), col("q") > 1, "si"),
                 sum_(col("z"), "computed"), sum_(col("q"), "undeclared"), max_(col("x"), "mx"),
                 count("n"))
            .build("t").plan
        )
        assert decimal_scales(node, db) == {"sx": 2, "ay": 2, "si": 2}

    def test_renames_are_traced_and_aggregates_are_not(self, db):
        renamed = scan(db, "f").rename(w="x").groupby("q").agg(sum_(col("w"), "sw")).build("r")
        assert decimal_scales(renamed.plan, db) == {"sw": 2}
        nested = (
            scan(db, "f").groupby("q").agg(sum_(col("x"), "sx"))
            .groupby().agg(sum_(col("sx"), "total")).build("n")
        )
        assert decimal_scales(nested.plan, db) is None


def cents_table(cents, groups, conds, weights=None):
    columns = {"g": np.asarray(groups), "x": np.asarray(cents, dtype=np.float64) / 100.0,
               "c": np.asarray(conds)}
    if weights is not None:
        columns[WEIGHT_COLUMN] = np.asarray(weights)
    return Table("t", columns)


def by_group(table):
    return {
        g: tuple(table.column(c)[row] for c in ("s", "si", "a"))
        for row, g in enumerate(table.column("g").tolist())
    }


@st.composite
def decimal_rows(draw):
    """Whole cents, negative and up to 10^13 (10^11 dollars) in magnitude,
    over up to 60 groups."""
    n = draw(st.integers(1, 150))
    magnitude = draw(st.sampled_from([10**4, 10**9, 10**13]))
    cents = draw(st.lists(st.integers(-magnitude, magnitude), min_size=n, max_size=n))
    groups = draw(st.lists(st.integers(0, draw(st.integers(0, 59))), min_size=n, max_size=n))
    conds = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return cents, groups, conds


class TestExactSums:
    @settings(max_examples=120, deadline=None)
    @given(rows=decimal_rows(), seed=st.integers(0, 2**16))
    def test_equals_the_fraction_total_in_any_order(self, rows, seed):
        cents, groups, conds = rows
        table = cents_table(cents, groups, conds)
        answer = by_group(execute_aggregate(table, ("g",), DECIMAL_AGGS, decimals=SCALES))
        for g, (s, si, a) in answer.items():
            mine = [i for i, group in enumerate(groups) if group == g]
            total = sum(Fraction(cents[i], 100) for i in mine)
            assert s == float(total)
            assert si == float(sum(Fraction(cents[i], 100) for i in mine if conds[i]))
            assert a == float(total / len(mine))
        order = np.random.default_rng(seed).permutation(len(cents))
        shuffled = cents_table(*(np.asarray(v)[order] for v in rows))
        again = by_group(execute_aggregate(shuffled, ("g",), DECIMAL_AGGS, decimals=SCALES))
        assert {g: tuple(map(float.hex, v)) for g, v in again.items()} == {
            g: tuple(map(float.hex, v)) for g, v in answer.items()
        }

    def test_weighted_sums_keep_the_float_sum(self):
        rng = np.random.default_rng(4)
        cents = rng.integers(-10**6, 10**6, 500)
        groups, conds = rng.integers(0, 7, 500), rng.random(500) < 0.5
        weighted = cents_table(cents, groups, conds, weights=rng.choice([2.0, 4.0], 500))
        assert table_digest(execute_aggregate(weighted, ("g",), DECIMAL_AGGS)) == table_digest(
            execute_aggregate(weighted, ("g",), DECIMAL_AGGS, decimals=SCALES)
        )


def fan_out(seed=0, nan_at=None):
    """A probe side ``l`` (measure ``x``) and a build side ``r`` (measure
    ``y``) whose keys repeat, both in whole cents."""
    rng = np.random.default_rng(seed)
    left = Table("l", {
        "lk": rng.integers(0, 40, 300), "g": rng.integers(0, 5, 300),
        "x": rng.integers(-10**6, 10**6, 300) / 100.0, "c": rng.random(300) < 0.5,
    })
    y = rng.integers(-10**6, 10**6, 120) / 100.0
    if nan_at is not None:
        y[nan_at] = np.nan
    right = Table("r", {"rk": rng.integers(0, 40, 120), "y": y, "b": rng.integers(0, 3, 120)})
    return left, right


PER_PROBE_AGGS = (
    sum_(col("x"), "sx"), sum_(col("y"), "sy"), avg(col("x"), "ax"), avg(col("y"), "ay"),
    sum_if(col("x"), col("c"), "sxc"), sum_if(col("y"), col("b") > 0, "syb"),
    sum_if(col("y"), col("c"), "mixed"), count("n"), count_if(col("b") > 0, "nb"),
)
PER_PROBE_SCALES = {"sx": 2, "sy": 2, "ax": 2, "ay": 2, "sxc": 2, "syb": 2, "mixed": 2}


class TestPerProbeRow:
    @pytest.mark.parametrize("group_by", [(), ("g",)])
    @pytest.mark.parametrize("nan_at", [None, 7])
    def test_unbuilt_equals_built(self, group_by, nan_at):
        left, right = fan_out(nan_at=nan_at)
        columns = left.data_column_names() + right.data_column_names()
        joined = execute_join(left, right, ["lk"], ["rk"], "inner", columns)
        assert isinstance(joined, JoinedRows)
        built = ref_join(left, right, ["lk"], ["rk"], "inner", columns)
        how = dict(decimals=PER_PROBE_SCALES)
        got = execute_aggregate(joined, group_by, PER_PROBE_AGGS, **how)
        want = execute_aggregate(built, group_by, PER_PROBE_AGGS, **how)
        assert table_digest(got) == table_digest(want)
        # A NaN stays in the sums of the rows that hold it.
        assert np.isnan(got.column("sy")).any() == (nan_at is not None)
        assert not np.isnan(got.column("sx")).any()

    def test_parts_equal_the_serial_join(self):
        left, right = fan_out(seed=3)
        columns = left.data_column_names() + right.data_column_names()
        joined = execute_join(left, right, ["lk"], ["rk"], "inner", columns)
        shipped = JoinedRows.from_parts(joined.parts(), columns)
        how = dict(decimals=PER_PROBE_SCALES)
        assert table_digest(execute_aggregate(shipped, ("g",), PER_PROBE_AGGS, **how)) == (
            table_digest(execute_aggregate(joined, ("g",), PER_PROBE_AGGS, **how))
        )

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_segment_sums(self, data):
        n = data.draw(st.integers(1, 40))
        values = np.asarray(data.draw(st.lists(st.integers(-99, 99), min_size=n, max_size=n)),
                            dtype=np.float64)
        # Disjoint segments, each taken by any number of probe rows.
        cuts = sorted(set(data.draw(st.lists(st.integers(0, n), max_size=8))) | {0, n})
        segments = [(lo, hi - lo) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
        picks = data.draw(st.lists(st.sampled_from(segments), min_size=1, max_size=20))
        starts, counts = (np.asarray(v) for v in zip(*picks))
        np.testing.assert_array_equal(
            segment_sums(values, starts, counts),
            [values[s:s + c].sum() for s, c in picks],
        )


@pytest.fixture(scope="module")
def exact_plans(tiny_tpcds):
    planner = QuickrPlanner(tiny_tpcds)
    return {
        name: planner.plan_baseline(query_by_name(tiny_tpcds, name)).plan
        for name in ("q11", "q12", "q13", "q14")
    }


def test_built_and_unbuilt_joins_give_the_same_bits(tiny_tpcds, exact_plans, monkeypatch):
    """The fact-fact queries' answers, their fan-out joins left lazy, are
    the recursive oracle's, which builds every join. q12, q13 and q14 fan
    out, and no reader builds their joins."""
    executor = Executor(tiny_tpcds)
    lazy, built, real = set(), [], JoinedRows.built
    for name, plan in exact_plans.items():
        tracer = Tracer()
        with monkeypatch.context() as patch:
            patch.setattr(JoinedRows, "built", lambda self: built.append(name) or real(self))
            answer, _, _ = executor.compile(plan)[0].execute(tiny_tpcds, tracer=tracer)
        if any("probe_rows" in span.attributes for span in tracer.spans):
            lazy.add(name)
        assert table_digest(answer.built().drop_lineage()) == table_digest(
            reference_run(tiny_tpcds, plan)[0]
        ), name
    assert {"q12", "q13", "q14"} <= lazy
    assert not {"q12", "q13", "q14"} & set(built)


def test_q12_aggregate_allocates_nothing_the_join_output_long(monkeypatch):
    """The Fig. 1 query's exact aggregate reads its fan-out join's probe
    rows: at its peak it holds less than one int64 per output row (group
    codes or measures repeated per output row would be 8 bytes each)."""
    database = generate_tpcds(scale=0.05, seed=1)
    plan = QuickrPlanner(database).plan_baseline(query_by_name(database, "q12")).plan
    real = operators.execute_aggregate
    seen = []

    def traced(table, *args, **kwargs):
        assert isinstance(table, JoinedRows)
        tracemalloc.start()
        try:
            out = real(table, *args, **kwargs)
            seen.append((table.num_rows, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(operators, "execute_aggregate", traced)
    Executor(database).execute(plan)
    [(rows, peak)] = seen
    assert rows > 100_000
    assert peak < 8 * rows
