"""A fan-out join is read per key, and stacked fan-out joins multiply.

An inner join that fans out is left lazy and counts its build keys per
key: a probe row's match count is a gather, and a build-side sum a
``bincount`` per key gathered the same way. A dense build side is sorted
only when a build column is read per output row; a sparse one is sorted
once, when probed. A lower join that carries nothing of its build side is
read lazily too: the join above probes its probe rows and multiplies the
two match counts. A build key column reads the same off its probe partner.

The bar is the built chain: same table digest, same cardinalities, same
charged bytes, on every aggregate kind, NaN keys and NaN values included,
and on the fact-fact TPC-DS queries serially and on every worker pool.
The built side of a compiled plan is the recursive oracle, which builds
every join.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.aggregates import avg, count, count_distinct, count_if, sum_
from repro.algebra.builder import scan
from repro.algebra.expressions import col
from repro.engine import keys, operators
from repro.engine.executor import Executor
from repro.engine.operators import JoinedRows, execute_aggregate, execute_join
from repro.engine.physical import compile_plan
from repro.engine.table import WEIGHT_COLUMN, Database, Table
from repro.obs.trace import Tracer
from repro.optimizer.planner import QuickrPlanner
from repro.parallel import ParallelOptions
from repro.parallel import executor as parallel_executor
from repro.service.protocol import table_digest
from repro.workloads.tpcds import generate_tpcds, query_by_name
from tests.engine.test_compiled_equivalence import reference_run
from tests.engine.test_keys import ref_join


def _keys(rng, n, span, floats, sparse=False):
    keys = rng.integers(0, span, n)
    if sparse:  # a span far past the rows: keys are counted per distinct key
        keys <<= 40
    if not floats:
        return keys
    keys = keys.astype(np.float64)
    keys[rng.random(n) < 0.15] = np.nan
    return keys


def _cents(rng, n, nans):
    values = np.round(rng.normal(0.0, 40.0, n), 2)
    if nans:
        values[rng.random(n) < 0.1] = np.nan
    return values


@st.composite
def chains(draw):
    """A probe table ``l`` and 1-3 build tables ``r0``, ``r1``, ... joined
    left-deep on ``k<i> = rk<i>``; the aggregate reads ``l`` and the top
    build side only."""
    joins = draw(st.integers(1, 3))
    span = draw(st.integers(1, 12))
    floats, nans, sparse = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n_left = draw(st.integers(0, 60))
    left = {"g": rng.integers(0, 4, n_left), "c": rng.integers(0, 9, n_left),
            "m": _cents(rng, n_left, nans)}
    builds = []
    for i in range(joins):
        left[f"k{i}"] = _keys(rng, n_left, span, floats, sparse)
        n_right = draw(st.integers(0, 25))
        builds.append(Table(f"r{i}", {
            f"rk{i}": _keys(rng, n_right, span, floats, sparse),
            f"y{i}": _cents(rng, n_right, nans),
            f"b{i}": rng.integers(0, 3, n_right),
        }))
    top = joins - 1
    group_by = draw(st.sampled_from([(), ("g",), (f"rk{top}",), ("g", f"rk{top}")]))
    aggs = (
        count("n"),
        count_if(col("c") > 3, "nc"),
        count_distinct(col("c"), "dc"),
        count_distinct(col(f"rk{top}"), "dk"),
        sum_(col("m"), "sm"),
        avg(col("m"), "am"),
        sum_(col(f"y{top}"), "sy"),
        avg(col(f"y{top}"), "ay"),
        count_if(col(f"b{top}") > 0, "nb"),
    )
    weighted = draw(st.booleans())
    return Table("l", left), builds, group_by, aggs, weighted


DECIMALS = {"sm": 2, "am": 2, "sy": 2, "ay": 2}


def _steps(left, builds, lazy=True):
    """Each join's output, the joins of a chain run one at a time, each
    lower one carrying only the probe columns; as the joins leave them, or
    each built from the reference pairs."""
    table, probe_columns = left, left.data_column_names()
    for i, build in enumerate(builds):
        top = i == len(builds) - 1
        columns = probe_columns + (build.data_column_names() if top else ())
        join = execute_join if lazy else ref_join
        table = join(table, build, [f"k{i}"], [f"rk{i}"], "inner", columns)
        yield table


def _chain(left, builds, lazy):
    return list(_steps(left, builds, lazy))[-1]


def lazy_joins(physical, db, **kwargs):
    """One traced run of a compiled plan, and whether each join, in
    execution order, left its output lazy (its span counts probe rows)."""
    tracer = Tracer()
    run = physical.execute(db, tracer=tracer, **kwargs)
    return run, ["probe_rows" in span.attributes for span in tracer.spans if span.name == "op.join"]


class TestChains:
    @given(case=chains())
    @settings(max_examples=150, deadline=None)
    def test_per_key_and_stacked_equal_built(self, case):
        left, builds, group_by, aggs, weighted = case
        # Operators one at a time, a weighted probe side included.
        if weighted:
            weights = np.random.default_rng(left.num_rows).uniform(1.0, 5.0, left.num_rows)
            left = left.with_columns({WEIGHT_COLUMN: weights})
        built, joined = _chain(left, builds, False), _chain(left, builds, True)
        assert joined.num_rows == built.num_rows
        assert joined.estimated_bytes() == built.estimated_bytes()
        for compute_ci in (False, True):
            how = dict(decimals=DECIMALS, compute_ci=compute_ci)
            assert table_digest(execute_aggregate(joined, group_by, aggs, **how)) == (
                table_digest(execute_aggregate(built, group_by, aggs, **how))
            )

    @given(case=chains())
    @settings(max_examples=60, deadline=None)
    def test_compiled_chain_is_unbuilt_throughout(self, case):
        """Each join of a compiled chain is left lazy where the operators
        leave it: where it fans out, or the lower join it probes did."""
        left, builds, group_by, aggs, _ = case
        db = Database()
        db.register(left, decimals={"m": 2})
        query = scan(db, "l")
        for i, build in enumerate(builds):
            db.register(build, decimals={f"y{i}": 2})
            query = query.join(scan(db, f"r{i}"), on=[(f"k{i}", f"rk{i}")])
        plan = query.groupby(*group_by).agg(*aggs).build("chain").plan
        (got, got_cards, _), lazy = lazy_joins(compile_plan(plan, db), db)
        assert lazy == [isinstance(step, JoinedRows) for step in _steps(left, builds)]
        want, want_cards = reference_run(db, plan)
        assert table_digest(got) == table_digest(want)
        assert got_cards == want_cards


class TestStacking:
    def _db(self):
        rng = np.random.default_rng(5)
        db = Database()
        db.register(Table("l", {"k": rng.integers(0, 30, 500), "g": rng.integers(0, 4, 500),
                                "m": _cents(rng, 500, False)}), decimals={"m": 2})
        db.register(Table("r", {"rk": rng.integers(0, 30, 90), "y": _cents(rng, 90, False)}),
                    decimals={"y": 2})
        db.register(Table("s", {"sk": rng.integers(0, 30, 60), "z": _cents(rng, 60, False)}),
                    decimals={"z": 2})
        return db

    def test_a_lower_join_carrying_a_build_column_is_built(self, monkeypatch):
        """The lower join fans out and is left lazy, but it carries ``y``
        of its build side: the join above builds it, once."""
        db = self._db()
        plan = (
            scan(db, "l").join(scan(db, "r"), on=[("k", "rk")]).join(scan(db, "s"), on=[("k", "sk")])
            .groupby("g").agg(sum_(col("y"), "sy"), sum_(col("z"), "sz")).build("q").plan
        )
        built, real = [], JoinedRows.built
        monkeypatch.setattr(JoinedRows, "built", lambda self: built.append(1) or real(self))
        (got, got_cards, _), lazy = lazy_joins(compile_plan(plan, db), db)
        assert lazy == [True, True]
        assert built == [1]
        monkeypatch.undo()
        want, want_cards = reference_run(db, plan)
        assert table_digest(got) == table_digest(want)
        assert got_cards == want_cards

    def test_override_in_the_upper_build_side_stays_lazy(self):
        """Where an override lands does not decide how a join runs: with
        the upper build side spliced in, both joins stay lazy, with the
        answer and cardinalities of the run without it."""
        db = self._db()
        plan = (
            scan(db, "l").join(scan(db, "r"), on=[("k", "rk")]).join(scan(db, "s"), on=[("k", "sk")])
            .groupby("g").agg(sum_(col("m"), "sm"), sum_(col("z"), "sz"), count("n")).build("q").plan
        )
        physical = compile_plan(plan, db)
        (want, want_cards, _), lazy = lazy_joins(physical, db)
        assert lazy == [True, True]
        (got, got_cards, _), lazy = lazy_joins(physical, db, overrides={(0, 1): db.table("s")})
        assert lazy == [True, True]
        assert table_digest(got) == table_digest(want) == table_digest(reference_run(db, plan)[0])
        assert got_cards == want_cards

    def test_stacked_rows_and_bytes_are_the_built_chain_s(self):
        db = self._db()
        left, r, s = db.table("l"), db.table("r"), db.table("s")
        lower = execute_join(left, r, ["k"], ["rk"], "inner", ["k", "g", "m"])
        upper = execute_join(lower, s, ["k"], ["sk"], "inner", ["g", "m", "z"])
        built = ref_join(
            ref_join(left, r, ["k"], ["rk"], "inner", ["k", "g", "m"]),
            s, ["k"], ["sk"], "inner", ["g", "m", "z"],
        )
        assert isinstance(upper, JoinedRows)
        assert upper.num_rows == built.num_rows
        assert upper.estimated_bytes() == built.estimated_bytes()
        assert table_digest(upper.built()) == table_digest(built)
        assert table_digest(JoinedRows.from_parts(upper.parts(), ["g", "m", "z"]).built()) == (
            table_digest(built)
        )


class TestSortOnDemand:
    def _sides(self):
        rng = np.random.default_rng(2)
        left = Table("l", {"k": rng.integers(0, 40, 400), "g": rng.integers(0, 3, 400)})
        right = Table("r", {"rk": rng.integers(0, 40, 150), "y": _cents(rng, 150, True)})
        return left, right

    def _sorts(self, monkeypatch):
        sorted_sizes = []
        real = operators.stable_argsort
        monkeypatch.setattr(
            operators, "stable_argsort",
            lambda values: sorted_sizes.append(len(values)) or real(values),
        )
        return sorted_sizes

    @pytest.mark.parametrize("sparse", [False, True])
    def test_counts_and_decimal_sums_never_sort_the_build_keys(self, monkeypatch, sparse):
        """Counts and decimal sums add no sort to the probe's. A sparse
        build side is sorted once, when probed: that sort counts its keys,
        and a build column read per output row reads the same order."""
        left, right = self._sides()
        if sparse:  # a span far past the rows: the keys are counted per distinct key
            left = left.with_columns({"k": left.column("k") << 40})
            right = right.with_columns({"rk": right.column("rk") << 40})
        built = ref_join(left, right, ["k"], ["rk"], "inner", ["g", "y"])
        sorted_sizes = self._sorts(monkeypatch)
        joined = execute_join(left, right, ["k"], ["rk"], "inner", ["g", "y"])
        assert isinstance(joined, JoinedRows)
        assert sorted_sizes == ([right.num_rows] if sparse else [])
        sorted_sizes.clear()
        aggs = (count("n"), sum_(col("y"), "s"), avg(col("y"), "a"), count_if(col("y") > 0, "p"))
        how = dict(decimals={"s": 2, "a": 2})
        got = execute_aggregate(joined, ("g",), aggs, **how)
        assert sorted_sizes == []
        assert table_digest(got) == table_digest(execute_aggregate(built, ("g",), aggs, **how))
        # A float sum reads the build column per output row: the build
        # rows sorted by key, which a sparse span has already.
        execute_aggregate(joined, ("g",), (sum_(col("y"), "s"),))
        assert sorted_sizes == ([] if sparse else [right.num_rows])

    def test_a_sparse_build_side_read_per_output_row_is_sorted_once(self, monkeypatch):
        """Every sort of the build keys, whichever kernel makes it: a
        sparse fan-out join whose build column the aggregate reads per
        output row sorts them once."""
        left, right = self._sides()
        db = Database()
        db.register(left.with_columns({"k": left.column("k") << 40}))
        db.register(right.with_columns({"rk": right.column("rk") << 40}))
        plan = (
            scan(db, "l").join(scan(db, "r"), on=[("k", "rk")])
            .groupby("g").agg(sum_(col("y"), "s")).build("sparse").plan
        )
        physical = compile_plan(plan, db)
        sorted_sizes = []

        class Sorts:
            """``numpy`` for ``keys``, recording the length of every array
            it sorts."""

            def __getattr__(self, name):
                attr = getattr(np, name)
                if name not in ("argsort", "sort", "unique"):
                    return attr
                return lambda values, *a, **k: sorted_sizes.append(len(values)) or attr(
                    values, *a, **k
                )

        monkeypatch.setattr(keys, "np", Sorts())
        got, _, _ = physical.execute(db)
        monkeypatch.undo()
        assert sorted_sizes.count(right.num_rows) == 1
        assert table_digest(got) == table_digest(reference_run(db, plan)[0])

    @pytest.mark.parametrize("name", ["q12", "q14"])
    def test_exact_fact_fact_queries_sort_no_build_side(self, monkeypatch, tiny_tpcds, name):
        plan = QuickrPlanner(tiny_tpcds).plan_baseline(query_by_name(tiny_tpcds, name)).plan
        executor = Executor(tiny_tpcds)
        executor.compile(plan)
        sorted_sizes = self._sorts(monkeypatch)
        executor.execute(plan)
        assert sorted_sizes == []


# -- the fact-fact TPC-DS queries ----------------------------------------------


@pytest.fixture(scope="module")
def tpcds():
    """The smallest scale at which Quickr samples q12 and q14 (universe
    samplers on both fact tables); below it their plans are exact."""
    return generate_tpcds(scale=0.15, seed=1)


def _planned(db, name, kind):
    planner, query = QuickrPlanner(db), query_by_name(db, name)
    return (planner.plan_baseline(query) if kind == "exact" else planner.plan(query)).plan


CONFIGS = (("serial", 1),) + tuple(
    (pool, degree) for pool in ("thread", "process") for degree in (2, 3)
)


def _executors(db):
    return {
        (pool, degree): Executor(db) if degree == 1 else Executor(
            db, parallelism=degree,
            parallel_options=ParallelOptions(pool=pool, min_partition_rows=1_000),
        )
        for pool, degree in CONFIGS
    }


@pytest.fixture(scope="module")
def executors(tpcds):
    return _executors(tpcds)


class TestFactFact:
    @pytest.mark.parametrize("name", ["q11", "q12", "q13", "q14"])
    @pytest.mark.parametrize("kind", ["exact", "quickr"])
    def test_built_unbuilt_and_parallel_agree(self, tpcds, executors, name, kind):
        """Serial and every pool and degree give the built answer, the
        oracle's. q11 Quickr's distinct sampler draws its strata per
        partition, so each degree's answer is another sample: the same on
        either pool."""
        plan = _planned(tpcds, name, kind)
        digests = {}
        for (pool, degree), executor in executors.items():
            result = executor.execute(plan)
            assert (result.parallel is not None) == (degree > 1)
            digests[pool, degree] = table_digest(result.table)
        assert digests["serial", 1] == table_digest(reference_run(tpcds, plan)[0])
        if (name, kind) == ("q11", "quickr"):
            for degree in (2, 3):
                assert digests["thread", degree] == digests["process", degree]
        else:
            assert len(set(digests.values())) == 1

    @pytest.mark.parametrize("name", ["q12", "q14"])
    def test_quickr_fan_out_keyed_on_the_build_key_is_unbuilt(self, tpcds, monkeypatch, name):
        """Quickr's universe variance keys on ``cs_bill_customer_sk``, the
        build side's join key: it reads as ``ss_customer_sk``."""
        physical, _ = Executor(tpcds).compile(_planned(tpcds, name, "quickr"))
        top = physical.ops[-1].child_slots[0]
        assert physical.ops[top].opcode == "join"
        probe_rows, real = [], JoinedRows.probe_rows
        monkeypatch.setattr(
            JoinedRows, "probe_rows",
            lambda self, names: probe_rows.append(real(self, names)) or probe_rows[-1],
        )
        _, lazy = lazy_joins(physical, tpcds)
        assert lazy[-1]
        assert len(probe_rows) == 1 and probe_rows[0] is not None

    def test_parallel_quickr_q14_ships_matches(self, tpcds, monkeypatch):
        merged, real = [], parallel_executor.merge_matches
        monkeypatch.setattr(
            parallel_executor, "merge_matches", lambda *a: merged.append(1) or real(*a)
        )
        plan = _planned(tpcds, "q14", "quickr")
        serial = Executor(tpcds).execute(plan)
        parallel = Executor(tpcds, parallelism=2, parallel_options=ParallelOptions(
            pool="thread", min_partition_rows=1_000,
        )).execute(plan)
        assert merged == [1]
        assert table_digest(parallel.table) == table_digest(serial.table)


@pytest.fixture(scope="module")
def q12_at_scale():
    database = generate_tpcds(scale=0.2, seed=1)
    return database, QuickrPlanner(database).plan_baseline(query_by_name(database, "q12")).plan


class TestFig1Query:
    def test_join_rows_are_the_built_tables(self, q12_at_scale):
        database, plan = q12_at_scale
        result = Executor(database).execute(plan)
        joins = [m.rows_out for m in result.operators if m.description.startswith("Join")]
        assert joins[-2:] == [69_391, 791_832]

    def test_exact_execute_stays_under_5_mb(self, q12_at_scale):
        """Neither of q12's fan-out joins is built: the execute peaks at
        about 4.0 MB of Python allocations, where building the lower join
        took 7.5 MB."""
        database, plan = q12_at_scale
        executor = Executor(database)
        executor.execute(plan)  # warm: statistics and the compiled plan
        tracemalloc.start()
        try:
            executor.execute(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000
