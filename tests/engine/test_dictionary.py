"""Dictionary-coded string columns answer exactly like plain ones.

``Database.register`` codes every string column; a table that never passes
through it stays plain and takes the code paths that existed before. The
reference here is a database whose ``register`` stores tables as given, so
every pipeline runs both ways over the same data and the two answers must
share a digest — on random tables with strings (``""`` among them), ints,
floats with NaNs, empty and one-row inputs.

The defined cases of codes under *different* dictionaries (union, concat,
join keys, partition merges of process-pool copies, outer-join fill rows),
dictionary lifetime, and the hot paths that must never decode are pinned
below the property test.
"""

import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Executor, QuickrPlanner
from repro.algebra.aggregates import avg, count, count_distinct, max_, min_, sum_
from repro.algebra.builder import from_node, scan
from repro.algebra.expressions import col
from repro.algebra.logical import SamplerNode
from repro.core.rewrite import WeightedAggregate
from repro.engine.operators import execute_join, execute_union_all
from repro.engine.table import Database, Table, rowid_column_name
from repro.memory import release
from repro.parallel import ParallelOptions
from repro.parallel.merge import merge_rows
from repro.samplers.distinct import DistinctSpec
from repro.samplers.uniform import UniformSpec
from repro.samplers.universe import UniverseSpec
from repro.service.protocol import table_digest
from repro.workloads.tpcds import generate_tpcds, query_by_name

WORDS = ["", "a", "ab", "b", "Zed", "zz"]
FLOATS = [-1.5, 0.0, 2.25, float("nan")]


class PlainDatabase(Database):
    """The reference: tables are stored as given, so nothing is coded."""

    def register(self, table):
        self._tables[table.name] = table


def column(values, n, dtype=None):
    return st.lists(st.sampled_from(values), min_size=n, max_size=n).map(
        lambda drawn: np.asarray(drawn, dtype=dtype)
    )


@st.composite
def tables(draw):
    """A fact table and a dimension it joins on a string key (any key may
    repeat or be missing on either side)."""
    n, m = draw(st.integers(0, 30)), draw(st.integers(0, 6))
    fact = Table("fact", {
        "k": draw(column(WORDS, n, "U3")),
        "s": draw(column(WORDS[:4], n, "U2")),
        "i": draw(column([0, 1, 2, 7], n, "int64")),
        "f": draw(column(FLOATS, n, "float64")),
        "x": draw(column([0.5, 1.25, 3.0, 10.0], n, "float64")),
    })
    dim = Table("dim", {
        "dk": draw(column(WORDS, m, "U3")),
        "ds": draw(column(["red", "blue", ""], m, "U4")),
        "dv": draw(column([1, 2, 3], m, "int64")),
    })
    return fact, dim


def joined(db, how):
    return scan(db, "fact").join(scan(db, "dim"), on=[("k", "dk")], how=how)


def sampled(db, spec):
    return from_node(SamplerNode(scan(db, "fact").node, spec))


def universe_variance(db):
    spec = UniverseSpec(("k",), 0.5, seed=3)
    return from_node(WeightedAggregate(
        sampled(db, spec).node, ("s",), (sum_(col("x"), "t"), count("n")),
        compute_ci=True, universe_variance=(("k",), 0.5),
    ))


PIPELINES = {
    "select": lambda db: scan(db, "fact").where((col("k") >= "ab") & col("s").isin(["a", ""])),
    "project-rename": lambda db: scan(db, "fact").rename(kk="k", ss="s"),
    "project-computed": lambda db: scan(db, "fact").derive(twice=col("i") * 2, is_a=col("k") == "a"),
    "project-bare": lambda db: scan(db, "fact").select("s", "k"),
    "join-inner": lambda db: joined(db, "inner"),
    "join-left": lambda db: joined(db, "left"),
    "join-right": lambda db: joined(db, "right"),
    # Both sides' keys under the one dictionary a bare-Col project hands on.
    "join-self": lambda db: scan(db, "fact").select("k", "x").rename(lk="k", lx="x").join(
        scan(db, "fact"), on=[("lk", "k")]),
    "aggregate": lambda db: scan(db, "fact").groupby("k", "s").agg(
        sum_(col("x"), "t"), count("n"), avg(col("x"), "m"), min_(col("i"), "lo"),
        max_(col("i"), "hi"), count_distinct(col("s"), "ds"), count_distinct(col("f"), "df")),
    "aggregate-scalar": lambda db: scan(db, "fact").agg(count_distinct(col("k"), "dk")),
    "aggregate-float-key": lambda db: scan(db, "fact").groupby("f", "k").agg(count("n")),
    "aggregate-joined": lambda db: joined(db, "left").groupby("ds", "s").agg(
        sum_(col("x"), "t"), count_distinct(col("dk"), "keys")),
    "universe-variance": universe_variance,
    "orderby": lambda db: scan(db, "fact").orderby("k", "i"),
    "orderby-desc": lambda db: scan(db, "fact").orderby("s", "k", desc=True).limit(5),
    "union": lambda db: scan(db, "fact").select("k", "i").union_all(
        scan(db, "dim").select("dk", "dv").rename(k="dk", i="dv")),
    "distinct": lambda db: sampled(db, DistinctSpec(("k", "s"), 1, 0.5, seed=5)),
    "distinct-expr": lambda db: sampled(db, DistinctSpec((col("k") == "a", "s"), 2, 0.3, seed=5)),
    "universe": lambda db: sampled(db, UniverseSpec(("k", "i"), 0.5, seed=2)),
    "uniform": lambda db: sampled(db, UniformSpec(0.5, seed=9)).groupby("k").agg(count("n")),
}


def databases(fact, dim):
    out = []
    for db in (Database(), PlainDatabase()):
        db.register(fact)
        db.register(dim)
        out.append(db)
    return out


@settings(max_examples=60, deadline=None)
@given(tables())
def test_coded_and_plain_tables_answer_alike(drawn):
    coded, plain = databases(*drawn)
    assert coded.table("fact").dictionary("k") is not None
    assert plain.table("fact").dictionary("k") is None
    for name, pipeline in PIPELINES.items():
        answers = [Executor(db).execute(pipeline(db).build(name)).table for db in (coded, plain)]
        assert answers[0].column_names == answers[1].column_names, name
        assert table_digest(answers[0]) == table_digest(answers[1]), name


def test_what_registering_codes():
    db = Database()
    db.register(Table("t", {
        "u": np.asarray(["b", "a", "b"]),
        "s": np.asarray([b"y", b"x", b"y"]),
        "o": np.asarray(["q", "", "p"], dtype=object),
        "mixed": np.asarray(["q", 1, None], dtype=object),
        "i": np.arange(3),
        "f": np.asarray([0.5, np.nan, 0.5]),
    }))
    table = db.table("t")
    assert sorted(table.dictionaries()) == ["o", "s", "u"]
    registry = Executor(db).registry
    assert registry.value("engine.dictionary.columns") == 3
    assert registry.value("engine.dictionary.bytes") == sum(
        d.nbytes for d in table.dictionaries().values())
    # Codes are int32, ordered as the values are; values come back unchanged.
    assert table.key_column("u").dtype == np.int32
    np.testing.assert_array_equal(table.key_column("u"), [1, 0, 1])
    np.testing.assert_array_equal(table.dictionary("o"), ["", "p", "q"])
    for name, dtype in (("u", "<U1"), ("s", "|S1"), ("o", object)):
        assert table.column(name).dtype == np.dtype(dtype)
    np.testing.assert_array_equal(table.column("u", np.asarray([2, 1])), ["b", "a"])
    assert table.to_dict()["o"].tolist() == ["q", "", "p"]
    assert list(table.iter_rows())[0][:3] == ("b", b"y", "q")
    # A table with nothing to code is stored as the object it is.
    plain = Table("p", {"i": np.arange(3)})
    db.register(plain)
    assert db.table("p") is plain and table.encoded() is table


class TestMixedDictionaries:
    """Codes are only ever compared under one dictionary."""

    left = Table("l", {"k": np.asarray(["a", "c", "c", ""]), "v": np.arange(4)}).encoded()
    right = Table("r", {"k": np.asarray(["c", "b", "a"]), "v": np.arange(3)}).encoded()

    def test_concat_and_union_decode_columns_under_different_dictionaries(self):
        for glued in (Table.concat([self.left, self.right]),
                      execute_union_all([self.left, self.right])):
            assert glued.dictionary("k") is None
            assert glued.column("k").tolist() == ["a", "c", "c", "", "c", "b", "a"]
        halves = Table.concat([self.left.slice(0, 2), self.left.slice(2, 4)])
        assert halves.dictionary("k") is self.left.dictionary("k")

    def test_partition_merge_accepts_a_copy_of_the_dictionary(self):
        # What a process-pool worker sends back: equal content, other object;
        # each partition's rows carry their lineage, as payloads do.
        left = self.left.with_columns({rowid_column_name(0): np.arange(4, dtype=np.int64)})
        copy = pickle.loads(pickle.dumps(left.take(np.asarray([1, 3]))))
        assert copy.dictionary("k") is not self.left.dictionary("k")
        merged = merge_rows([left.take(np.asarray([0, 2])), copy])
        assert merged.dictionary("k") is self.left.dictionary("k")
        assert merged.column("k").tolist() == ["a", "c", "c", ""]

    def test_join_keys_under_different_dictionaries_match_by_value(self):
        out = execute_join(self.left, self.right.rename_columns({"k": "rk", "v": "rv"}),
                           ["k"], ["rk"])
        assert out.column("k").tolist() == out.column("rk").tolist() == ["a", "c", "c"]
        assert out.column("rv").tolist() == [2, 0, 0]
        assert out.dictionary("k") is self.left.dictionary("k")

    @pytest.mark.parametrize("how", ("left", "right"))
    def test_outer_join_fill_rows_are_the_empty_string(self, how):
        dim = Table("d", {"dk": np.asarray([1, 2]), "name": np.asarray(["x", "y"])}).encoded()
        fact = Table("f", {"fk": np.asarray([2, 9]), "tag": np.asarray(["p", "q"])}).encoded()
        sides = (fact, dim, ["fk"], ["dk"]) if how == "left" else (dim, fact, ["dk"], ["fk"])
        out = execute_join(*sides, how=how)
        assert out.dictionary("name") is None and out.column("name").dtype.kind == "U"
        assert out.column("name").tolist() == ["y", ""]
        # The outer side has no fill rows and keeps its codes.
        assert out.dictionary("tag") is fact.dictionary("tag")
        assert out.column("tag").tolist() == ["p", "q"]

    def test_shared_memory_carries_codes_and_the_dictionary_in_the_ref(self):
        ref = self.left.to_ref()
        try:
            back = Table.from_ref(pickle.loads(pickle.dumps(ref)))
            assert back.key_column("k").dtype == np.int32
            np.testing.assert_array_equal(back.dictionary("k"), self.left.dictionary("k"))
            assert table_digest(back) == table_digest(self.left)
            # A string column costs its codes in the segment, not its text.
            assert ref.nbytes < 2 * 64 + self.left.num_rows * (4 + 8)
        finally:
            release(ref)


def by_word(db):
    return scan(db, "t").groupby("w").agg(count("n")).orderby("w").build("by_word")


class TestLifetime:
    def test_a_replacement_table_never_serves_its_predecessors_dictionary(self):
        db = Database()
        db.register(Table("t", {"w": np.asarray(["a", "b", "a"] * 2000)}))
        first = db.table("t").dictionary("w")
        serial = Executor(db)
        threaded = Executor(db, parallelism=2, parallel_options=ParallelOptions(
            pool="thread", min_partition_rows=1_000))
        for executor in (serial, threaded):
            assert executor.execute(by_word(db)).table.column("w").tolist() == ["a", "b"]
        # Same name, same codes, other words: plan cache and partition
        # store are warm, and must read the new dictionary.
        db.register(Table("t", {"w": np.asarray(["y", "z", "y"] * 2000)}))
        assert db.table("t").dictionary("w") is not first
        assert first.tolist() == ["a", "b"]
        for executor in (serial, threaded):
            assert executor.execute(by_word(db)).table.column("w").tolist() == ["y", "z"]
        assert Executor(db).registry.value("engine.dictionary.bytes") == first.nbytes

    def test_two_threads_first_queries_on_a_fresh_database_agree_with_serial(self):
        names = ("q02", "q05")
        reference_db = generate_tpcds(scale=0.02, seed=3)
        planner = QuickrPlanner(reference_db)
        reference = [
            table_digest(Executor(reference_db).execute(
                planner.plan_baseline(query_by_name(reference_db, name)).plan).table)
            for name in names
        ]
        db = generate_tpcds(scale=0.02, seed=3)
        executor, planner = Executor(db), QuickrPlanner(db)
        plans = [planner.plan_baseline(query_by_name(db, name)).plan for name in names]
        barrier, digests = threading.Barrier(2), [None, None]

        def first_query(i):
            barrier.wait(timeout=30.0)
            digests[i] = table_digest(executor.execute(plans[i]).table)

        threads = [threading.Thread(target=first_query, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not any(thread.is_alive() for thread in threads)
        assert digests == reference


@pytest.mark.parametrize("name", ("q12", "q02"))
def test_no_hot_path_decodes(name, monkeypatch):
    """Nothing of join-output size is turned back into strings: an exact
    run decodes at most what its base tables hold (a predicate or a
    statistic over a dimension column) plus the groups it emits. A call
    site that forgets ``key_column`` costs only time; this makes it fail."""
    db = generate_tpcds(scale=0.05, seed=1)
    decoded, column = [], Table.column

    def counting(self, column_name, rows=None):
        values = column(self, column_name, rows)
        if self.dictionary(column_name) is not None:
            decoded.append(len(values))
        return values

    monkeypatch.setattr(Table, "column", counting)
    plan = QuickrPlanner(db).plan_baseline(query_by_name(db, name)).plan
    result = Executor(db).execute(plan)
    monkeypatch.undo()

    coded_base_rows = sum(
        db.table(t).num_rows * len(db.table(t).dictionaries()) for t in db.table_names()
    )
    join_rows = max(result.cardinalities.values())
    assert join_rows > 4 * coded_base_rows, "the bound below would not bind"
    assert decoded, "the answer's group keys are decoded from codes"
    assert sum(decoded) <= coded_base_rows + result.table.num_rows * len(result.table.column_names)


def test_operators_report_their_coded_columns_and_stored_bytes():
    from repro.obs.explain import explain_analyze
    from repro.obs.trace import Tracer, set_tracer

    db = generate_tpcds(scale=0.02, seed=1)
    query = query_by_name(db, "q02")  # store_sales x promotion x item, by i_category
    tracer = Tracer()
    set_tracer(tracer)
    try:
        result = Executor(db).execute(QuickrPlanner(db).plan_baseline(query).plan)
    finally:
        set_tracer(None)
    (top,) = (span for span in tracer.find("op.join") if span.attributes["address"] == "r.0")
    # i_category travels as a 4-byte code beside the 8-byte columns: the
    # bytes a governed run would be charged for this join output.
    assert top.attributes["coded"] == 1
    plain = top.attributes["columns"] - 1
    assert top.attributes["bytes"] == top.attributes["rows_out"] * (4 + 8 * plain)
    assert max(op.coded for op in result.operators) == 1
    assert result.operators[-1].coded == 0  # the answer's groups are values
    assert "(1 coded)" in explain_analyze(QuickrPlanner(db), Executor(db), query)
