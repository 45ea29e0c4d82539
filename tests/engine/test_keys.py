"""The packed-int64 key encoder against the record-array code it replaced.

The reference below is the previous implementation, kept here only as the
oracle: ``np.unique`` over ``np.rec.fromarrays`` record arrays. The encoder
is a drop-in if grouping, join pairing and the distinct sampler give
identical results on every dtype, on spans that force the re-densify step,
on NaN keys (each its own group, never joined) and on empty inputs.
"""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import keys, operators
from repro.engine.keys import FIRST_ROW_PREFIX, first_appearance_codes, group_codes, pack_keys
from repro.engine.operators import execute_join
from repro.engine.table import WEIGHT_COLUMN, Table, rowid_column_name
from repro.samplers import distinct
from repro.samplers.distinct import DistinctSpec

NUMERIC = ["bool", "int8", "int16", "int32", "int64", "uint64", "float64"]
FLOATS = [-1.5, -0.0, 0.0, 2.25, 1e300, float("-inf"), float("inf"), float("nan")]
STRINGS = ["", "a", "ab", "b", "Zed"]


def ref_group_codes(arrays):
    stacked = np.rec.fromarrays(arrays)
    uniques, first_index, codes = np.unique(stacked, return_index=True, return_inverse=True)
    return codes.astype(np.int64), first_index, len(uniques)


def ref_join_pairs(left_keys, right_keys):
    n_left = len(left_keys[0])
    combined = []
    for l_col, r_col in zip(left_keys, right_keys):
        common = np.result_type(l_col.dtype, r_col.dtype)
        combined.append(np.concatenate([l_col.astype(common), r_col.astype(common)]))
    codes = ref_group_codes(combined)[0]
    left_codes, right_codes = codes[:n_left], codes[n_left:]
    order = np.argsort(right_codes, kind="stable")
    sorted_right = right_codes[order]
    lo = np.searchsorted(sorted_right, left_codes, side="left")
    hi = np.searchsorted(sorted_right, left_codes, side="right")
    pairs = [(i, int(order[j])) for i in range(n_left) for j in range(lo[i], hi[i])]
    return pairs


def pool_for(dtype):
    if dtype == "bool":
        return [False, True]
    if dtype == "float64":
        return FLOATS
    if dtype == "str":
        return STRINGS
    info = np.iinfo(dtype)
    # Extremes make spans of 2**8 .. 2**64: a few columns of them overflow
    # the mixed radix, and 2**61 next to 0 overflows it after one densify.
    values = [info.min, info.min + 1, 0, 1, 7, info.max - 1, info.max]
    if info.bits == 64:
        values.append(1 << 61)
    if info.min < 0:
        values.append(-3)
    return values


@st.composite
def column(draw, dtype, n):
    values = draw(st.lists(st.sampled_from(pool_for(dtype)), min_size=n, max_size=n))
    return np.asarray(values, dtype=dtype)


@st.composite
def key_columns(draw):
    n = draw(st.integers(0, 40))
    dtypes = draw(st.lists(st.sampled_from(NUMERIC + ["str"]), min_size=1, max_size=5))
    return [draw(column(dtype, n)) for dtype in dtypes]


@st.composite
def join_sides(draw):
    how = draw(st.sampled_from(["inner", "left", "right"]))
    n_left, n_right = draw(st.integers(0, 30)), draw(st.integers(0, 30))
    left, right = [], []
    for _ in range(draw(st.integers(1, 3))):
        # An outer join NaN-fills the other side's columns, keys included,
        # which execute_join only does for numeric columns.
        if how == "inner" and draw(st.booleans()):
            l_type = r_type = "str"
        else:  # sides may differ: int against float, signed against unsigned
            l_type, r_type = draw(st.sampled_from(NUMERIC)), draw(st.sampled_from(NUMERIC))
        left.append(draw(column(l_type, n_left)))
        right.append(draw(column(r_type, n_right)))
    return left, right, how


def ref_match_pairs(left_key, right_key, span):
    """The join pairs as they were made before unique build sides were
    probed through a position table: every join stable-sorts its right
    keys and expands the matches with three ``repeat``s. Kept verbatim as
    the reference the probe kernel must equal, dtypes included."""
    order = keys.stable_argsort(right_key)
    if keys.dense_span(span, len(left_key) + len(right_key)):
        per_key = np.bincount(right_key, minlength=span)
        lo = (np.cumsum(per_key) - per_key)[left_key]
        counts = per_key[left_key]
    else:
        sorted_right = right_key[order]
        lo = np.searchsorted(sorted_right, left_key, side="left")
        counts = np.searchsorted(sorted_right, left_key, side="right") - lo
    left_idx = np.repeat(np.arange(len(left_key)), counts)
    if len(left_idx) == 0:
        return left_idx, left_idx.copy()
    starts = np.repeat(lo, counts)
    within = np.arange(len(left_idx)) - np.repeat(np.cumsum(counts) - counts, counts)
    right_idx = order[starts + within]
    return left_idx, right_idx


def ref_join(left, right, left_keys, right_keys, how="inner", columns=None):
    """The join built from :func:`ref_match_pairs`, as joins were built
    before any was left lazy: the reference a lazy join's ``built()`` and
    every join the oracle executor runs are held to."""
    packed = operators._join_keys(left, right, left_keys, right_keys)
    return operators._joined_table(left, right, *ref_match_pairs(*packed), how, columns)


def kernel_pairs(left_key, right_key, span):
    """All (left, right) row pairs with equal keys, from the one probe
    kernel every join runs: in left-row order and, per left row, in
    right-row order."""
    rows, counts, matches = operators._KeyMatches.probe(left_key, right_key, span)
    return (rows if counts is None else np.repeat(rows, counts)), matches.build_index()


#: Far past ``dense_span``'s 65536 floor: joins over these take the sort.
SPARSE = 1 << 40


@st.composite
def build_sides(draw, unique=True):
    """Left and right key columns where the right (build) keys are unique,
    as a dimension's are, or (``unique=False``) repeat: on a dense or a
    sparse span, either side possibly empty, and NaN keys on either side (a
    right side with two NaNs is no longer unique: they share the code NaNs
    are parked on)."""
    how = draw(st.sampled_from(["inner", "left", "right"]))
    values = st.integers(0, SPARSE) if draw(st.booleans()) else st.integers(-20, 40)
    right = draw(st.lists(values, max_size=30, unique=True))
    if not unique and right:
        right += draw(st.lists(st.sampled_from(right), min_size=1, max_size=30))
        right = draw(st.permutations(right))
    probe = st.one_of(values, st.sampled_from(right)) if right else values
    left = draw(st.lists(probe, max_size=30))
    left, right = np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64)
    if draw(st.booleans()):
        left, right = left.astype(np.float64), right.astype(np.float64)
        for side, most in ((left, 5), (right, 2)):
            if len(side):
                side[draw(st.lists(st.integers(0, len(side) - 1), max_size=most))] = np.nan
    return left, right, how


#: One dictionary both sides' coded keys share: a build key column then
#: reads the same off its probe partner.
CODES = np.array([f"v{i:02d}" for i in range(41)])


@st.composite
def lazy_chains(draw):
    """A probe table ``l`` and build tables ``r`` and ``s``, joined ``l ⋈ r``
    on ``k = rk``, then ``s`` on ``m = sk``, with the columns each join
    carries: build keys that repeat, on a dense or a sparse span, plain or
    coded under one shared dictionary; build keys carried or not (one of
    the probe key's dtype and dictionary reads its probe partner); any side
    weighted or not. Half the chains carry no column, lineage or weight of
    ``r`` through the lower join: the upper one then stacks on its probe
    rows."""
    domain = draw(st.sampled_from(["dense", "sparse", "coded"]))
    values = st.integers(0, SPARSE) if domain == "sparse" else st.integers(0, 40)
    pool = draw(st.lists(values, min_size=1, max_size=4, unique=True))
    stacked = draw(st.booleans())
    probe = st.one_of(st.sampled_from(pool), values)
    pairs = draw(st.lists(st.tuples(probe, probe), max_size=30))
    rk = draw(st.lists(st.sampled_from(pool), max_size=30))
    sk = draw(st.lists(st.sampled_from(pool), max_size=20))
    build_dtype = np.int64 if domain == "sparse" else draw(st.sampled_from([np.int64, np.int32]))

    def table(name, columns, ordinal, plain=False):
        columns = {c: np.asarray(v) for c, v in columns.items()}
        n = len(next(iter(columns.values())))
        if not plain and draw(st.booleans()):
            columns[rowid_column_name(ordinal)] = np.arange(n, dtype=np.int64)
        if not plain and draw(st.booleans()):
            columns[WEIGHT_COLUMN] = np.asarray(
                draw(st.lists(st.floats(0.5, 8.0), min_size=n, max_size=n)), dtype=np.float64
            )
        keys = {c: CODES for c in columns if c in ("k", "m", "rk", "sk")}
        return Table(name, columns, keys if domain == "coded" else {})

    k, m = (np.asarray([p[i] for p in pairs], dtype=np.int64) for i in (0, 1))
    left = table("l", {"k": k, "m": m, "x": np.arange(len(k)) * 0.5}, 0)
    rk, sk = np.asarray(rk, dtype=build_dtype), np.asarray(sk, dtype=build_dtype)
    right = table("r", {"rk": rk, "b": np.arange(len(rk)) * 10}, 1, plain=stacked)
    third = table("s", {"sk": sk, "c": np.arange(len(sk)) * 100}, 2)

    def carried(names):
        return [name for name in names if draw(st.booleans())]

    lower = [c for c in ("k", "m", "x") if c == "m" or c in carried(["k", "x"])]
    lower += [] if stacked else carried(["rk", "b"])
    upper = carried(lower) + carried(["sk", "c"]) or ["m"]
    return left, right, third, lower, upper, draw(st.sampled_from(["inner", "left", "right"]))


def assert_table_bits(got, want):
    """The two tables hold the same columns, dictionaries and bits."""
    assert got.column_names == want.column_names
    assert got.num_rows == want.num_rows
    for name in want.column_names:
        g, w = got.key_column(name), want.key_column(name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name
    assert got.dictionaries().keys() == want.dictionaries().keys()
    for name, values in want.dictionaries().items():
        np.testing.assert_array_equal(got.dictionaries()[name], values)


def ref_first_appearance_codes(arrays):
    """The reference grouping renumbered by each group's first row."""
    codes, first_index, num_groups = ref_group_codes(arrays)
    order = np.argsort(first_index)
    remap = np.empty(num_groups, dtype=np.int64)
    remap[order] = np.arange(num_groups)
    return remap[codes], first_index[order], num_groups


def assert_same_grouping(arrays):
    for encoder, reference in ((group_codes, ref_group_codes),
                               (first_appearance_codes, ref_first_appearance_codes)):
        codes, first_index, num_groups = encoder(arrays)
        ref_codes, ref_first, ref_groups = reference(arrays)
        assert num_groups == ref_groups
        assert codes.dtype == np.int64
        np.testing.assert_array_equal(codes, ref_codes)
        np.testing.assert_array_equal(first_index, ref_first)


class ScatterCounter:
    """``numpy`` for ``keys``, counting the rows its ``np.minimum.at``
    scatters: the first-row search's work."""

    def __init__(self):
        self.rows = []
        self.minimum = self

    def at(self, table, index, values):
        self.rows.append(len(index))
        np.minimum.at(table, index, values)

    def __getattr__(self, name):
        return getattr(np, name)


class TestGroupCodes:
    @given(arrays=key_columns())
    @settings(max_examples=300, deadline=None)
    def test_matches_record_array_reference(self, arrays):
        assert_same_grouping(arrays)

    def test_sparse_span_takes_the_sort_path(self):
        rng = np.random.default_rng(0)
        sparse = rng.integers(0, 1 << 40, 5000)
        sparse[::7] = sparse[0]
        assert not keys.dense_span(pack_keys([sparse])[1], len(sparse))
        assert_same_grouping([sparse, rng.integers(0, 3, 5000)])

    def test_dense_span_takes_the_address_path(self):
        rng = np.random.default_rng(1)
        arrays = [rng.integers(-50, 50, 5000), rng.integers(0, 20, 5000)]
        assert keys.dense_span(pack_keys(arrays)[1], 5000)
        assert_same_grouping(arrays)

    def test_packed_key_orders_like_the_tuples(self):
        a = np.array([3, -1, 3, 2], dtype=np.int8)
        b = np.array(["x", "z", "a", "m"])
        key, span, nan_rows = pack_keys([a, b])
        assert nan_rows is None and 0 <= key.min() and key.max() < span
        assert list(np.argsort(key)) == [1, 3, 2, 0]

    def test_every_nan_is_its_own_group_in_row_order(self):
        x = np.array([np.nan, 1.0, np.nan, 1.0, np.nan])
        y = np.array([2, 5, 1, 5, 2])
        codes, first_index, num_groups = group_codes([x, y])
        assert num_groups == 4
        assert list(codes) == [2, 0, 1, 0, 3]  # NaN last, then by y, then by row
        assert list(first_index) == [1, 2, 0, 4]

    @pytest.mark.parametrize("dtype, values, dense_calls", [
        # 2**32 * 2**32 overflows: the partial key is re-densified once.
        ("int32", [-(1 << 31), (1 << 31) - 1, 0, (1 << 31) - 1, -(1 << 31)], 1),
        # (2**61 + 1) squared overflows, and so does rows * (2**61 + 1):
        # the partial key and then the incoming column are re-densified.
        ("int64", [0, 1 << 61, 5, 1 << 61, 0], 2),
        ("uint64", [0, (1 << 64) - 1, 5, 1 << 61, 0], 2),  # span 2**64: each column ranked up front
    ])
    def test_overflowing_spans_are_redensified(self, monkeypatch, dtype, values, dense_calls):
        calls = []
        dense_codes = keys._dense_codes
        monkeypatch.setattr(keys, "_dense_codes", lambda v: calls.append(len(v)) or dense_codes(v))
        cols = [np.array(values, dtype=dtype), np.array(values[::-1], dtype=dtype)]
        key, span, _ = pack_keys(cols)
        assert 0 <= key.min() and key.max() < span <= 1 << 62
        assert len(calls) == dense_calls
        assert_same_grouping(cols)


    @pytest.mark.parametrize("n", [FIRST_ROW_PREFIX - 1, FIRST_ROW_PREFIX, FIRST_ROW_PREFIX + 1,
                                   10 * FIRST_ROW_PREFIX])
    def test_around_the_first_row_prefix(self, n):
        rng = np.random.default_rng(n)
        arrays = [rng.integers(0, 12, n), rng.integers(-3, 3, n)]
        assert_same_grouping(arrays)
        arrays[0][-1] = 12  # a key first met in the last row
        assert_same_grouping(arrays)

    @pytest.mark.parametrize("n, span, first_met, scattered", [
        # Every key met within the prefix: one prefix is scattered.
        (20 * FIRST_ROW_PREFIX, 50, 100, [FIRST_ROW_PREFIX]),
        # The last key first met just past the prefix: one doubling.
        (20 * FIRST_ROW_PREFIX, 50, FIRST_ROW_PREFIX + 10, [FIRST_ROW_PREFIX, FIRST_ROW_PREFIX]),
        # ... and in the last row: the doublings run to the end.
        (20 * FIRST_ROW_PREFIX, 50, 20 * FIRST_ROW_PREFIX - 1,
         [FIRST_ROW_PREFIX, FIRST_ROW_PREFIX, 2 * FIRST_ROW_PREFIX, 4 * FIRST_ROW_PREFIX,
          8 * FIRST_ROW_PREFIX, 4 * FIRST_ROW_PREFIX]),
        # A span larger than the prefix: the rest is scanned at once.
        (20 * FIRST_ROW_PREFIX, 3 * FIRST_ROW_PREFIX, 3 * FIRST_ROW_PREFIX,
         [FIRST_ROW_PREFIX, 19 * FIRST_ROW_PREFIX]),
    ])
    def test_first_rows_from_a_growing_prefix(self, monkeypatch, n, span, first_met, scattered):
        rng = np.random.default_rng(span)
        key = rng.integers(0, span - 1, n)
        key[: span - 1] = np.arange(span - 1)  # every other key early
        key[first_met] = span - 1
        counter = ScatterCounter()
        monkeypatch.setattr(keys, "np", counter)
        for encoder in (group_codes, first_appearance_codes):
            counter.rows.clear()
            codes, first_index, num_groups = encoder([key])
            assert counter.rows == scattered
            assert num_groups == span and first_index.max() == first_met
        monkeypatch.undo()
        assert_same_grouping([key])


def outer_ids(pairs, n_left, n_right, how):
    """Row-id pairs of the join output: matches, then unmatched outer rows."""
    pairs = list(pairs)
    if how == "left":
        matched = {i for i, _ in pairs}
        pairs += [(i, -1) for i in range(n_left) if i not in matched]
    if how == "right":
        matched = {j for _, j in pairs}
        pairs += [(-1, j) for j in range(n_right) if j not in matched]
    return pairs


class TestJoinPairs:
    @given(sides=join_sides())
    @settings(max_examples=300, deadline=None)
    def test_matches_record_array_reference(self, sides):
        left_keys, right_keys, how = sides
        n_left, n_right = len(left_keys[0]), len(right_keys[0])
        left = Table("l", {f"lk{i}": c for i, c in enumerate(left_keys)} | {"lid": np.arange(n_left)})
        right = Table("r", {f"rk{i}": c for i, c in enumerate(right_keys)} | {"rid": np.arange(n_right)})
        out = execute_join(
            left, right, [f"lk{i}" for i in range(len(left_keys))],
            [f"rk{i}" for i in range(len(right_keys))], how=how,
        )
        got = [
            (-1 if np.isnan(i) else int(i), -1 if np.isnan(j) else int(j))
            for i, j in zip(out.column("lid").astype(float), out.column("rid").astype(float))
        ]
        assert got == outer_ids(ref_join_pairs(left_keys, right_keys), n_left, n_right, how)

    def test_nan_never_joins_nan(self):
        left = Table("l", {"k": np.array([np.nan, 1.0]), "lid": np.arange(2)})
        right = Table("r", {"j": np.array([1.0, np.nan, np.nan]), "rid": np.arange(3)})
        out = execute_join(left, right, ["k"], ["j"])
        assert list(out.column("lid")) == [1] and list(out.column("rid")) == [0]

    def test_mixed_int_float_sides(self):
        left = Table("l", {"k": np.array([1, 2, 3], dtype=np.int32), "lid": np.arange(3)})
        right = Table("r", {"j": np.array([3.0, 1.0, 2.5]), "rid": np.arange(3)})
        out = execute_join(left, right, ["k"], ["j"])
        assert list(zip(out.column("lid"), out.column("rid"))) == [(0, 1), (2, 0)]

    @given(sides=build_sides())
    @settings(max_examples=300, deadline=None)
    def test_unique_build_side_matches_the_sorting_matcher(self, sides):
        assert_kernel_pairs(*sides)

    @given(sides=build_sides(unique=False))
    @settings(max_examples=300, deadline=None)
    def test_duplicate_build_side_matches_the_sorting_matcher(self, sides):
        assert_kernel_pairs(*sides)

    @pytest.mark.parametrize("span, duplicates, sorts, calls", [
        # A unique build side on a dense span: one position table, no sort.
        (1_000, False, 0, {"full": 1, "repeat": 0, "searchsorted": 0}),
        # On a sparse one: the sort, then one searchsorted and no repeat.
        (SPARSE, False, 1, {"full": 0, "repeat": 0, "searchsorted": 1}),
        # Duplicate build keys, counted per key: the build rows sorted by
        # key and one repeat make the pairs...
        (1_000, True, 1, {"full": 0, "repeat": 1, "searchsorted": 0}),
        # ... and on a sparse span the same sort counted the keys, which
        # one searchsorted finds each probe key among.
        (SPARSE, True, 1, {"full": 0, "repeat": 1, "searchsorted": 1}),
    ])
    def test_probe_path_by_build_side(self, monkeypatch, span, duplicates, sorts, calls):
        rng = np.random.default_rng(4)
        right_key = rng.choice(span, 400, replace=False)
        if duplicates:
            right_key[::3] = right_key[0]
        left_key = np.concatenate([rng.choice(right_key, 600), rng.integers(0, span, 200)])
        left = Table("l", {"k": left_key, "lid": np.arange(len(left_key))})
        right = Table("r", {"j": right_key, "rid": np.arange(len(right_key))})
        want = ref_match_pairs(left_key, right_key, span)
        for how in ("inner", "left", "right"):  # every kind reads the kernel's pairs
            assert join_ids(left, right, how) == outer_ids(zip(*want), 800, 400, how)
        counted, sorted_sizes = collections.Counter(), []
        monkeypatch.setattr(operators, "np", CountingNumpy(counted))
        monkeypatch.setattr(
            operators, "stable_argsort",
            lambda values: sorted_sizes.append(len(values)) or keys.stable_argsort(values),
        )
        got = kernel_pairs(left_key, right_key, span)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
            assert g.dtype == w.dtype
        assert len(sorted_sizes) == sorts
        assert {name: counted[name] for name in calls} == calls

    @given(chain=lazy_chains())
    @settings(max_examples=300, deadline=None)
    def test_lazy_joins_build_the_reference_join(self, chain):
        """A join's output, lazy or not, built, stacked on a lower lazy join
        or not, is the join built from the reference pairs, bit for bit:
        weights, dictionaries, lineage and build keys read off their probe
        partners included; and a lazy one is charged the built bytes."""
        left, right, third, lower, upper, how = chain
        want = ref_join(left, right, ["k"], ["rk"], "inner", lower)
        joined = execute_join(left, right, ["k"], ["rk"], "inner", lower)
        assert joined.estimated_bytes() == want.estimated_bytes()
        assert_table_bits(joined.built(), want)
        want = ref_join(want, third, ["m"], ["sk"], how, upper)
        joined = execute_join(
            execute_join(left, right, ["k"], ["rk"], "inner", lower), third, ["m"], ["sk"], how,
            upper,
        )
        assert joined.estimated_bytes() == want.estimated_bytes()
        assert_table_bits(joined.built(), want)

    def test_star_sorts_only_duplicate_build_sides(self, monkeypatch):
        """The 20 `star` queries' exact plans at scale 0.05: every join
        whose build side has unique keys is probed without a sort."""
        from repro.engine.executor import Executor
        from repro.optimizer.planner import QuickrPlanner
        from repro.workloads.tpcds import QUERY_BUILDERS, generate_tpcds, query_by_name

        database = generate_tpcds(scale=0.05, seed=1)
        planner, executor = QuickrPlanner(database), Executor(database)
        joins, sorted_sizes, probe = [], [], operators._KeyMatches.probe

        def counting_sort(values):
            sorted_sizes.append(len(values))
            return keys.stable_argsort(values)

        def recording(left_key, right_key, span, copies=None):
            joins.append((len(np.unique(right_key)) < len(right_key), len(right_key)))
            return probe(left_key, right_key, span, copies)

        monkeypatch.setattr(operators, "stable_argsort", counting_sort)
        monkeypatch.setattr(operators._KeyMatches, "probe", recording)
        star = sorted(set(QUERY_BUILDERS) - {"q11", "q12", "q13", "q14"})
        assert len(star) == 20
        for name in star:
            executor.execute(planner.plan_baseline(query_by_name(database, name)).plan)
        # Every sort is of a build side whose keys repeat, at most once each.
        duplicated = collections.Counter(size for duplicates, size in joins if duplicates)
        assert not collections.Counter(sorted_sizes) - duplicated
        assert sum(not duplicates for duplicates, _ in joins) >= 25


def assert_kernel_pairs(left_key, right_key, how):
    """The kernel's pairs are the sorting matcher's, and ``how``'s join
    reads its pairs from them."""
    left = Table("l", {"k": left_key, "lid": np.arange(len(left_key))})
    right = Table("r", {"j": right_key, "rid": np.arange(len(right_key))})
    packed = operators._join_keys(left, right, ["k"], ["j"])
    for got, want in zip(kernel_pairs(*packed), ref_match_pairs(*packed)):
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype
    want = ref_join_pairs([left_key], [right_key])
    assert join_ids(left, right, how) == outer_ids(want, len(left_key), len(right_key), how)


def join_ids(left, right, how):
    """The (lid, rid) row-id pairs of ``execute_join``'s output, -1 for a
    fill row's absent partner."""
    out = execute_join(left, right, ["k"], ["j"], how=how).built()
    return [
        (-1 if np.isnan(i) else int(i), -1 if np.isnan(j) else int(j))
        for i, j in zip(out.column("lid").astype(float), out.column("rid").astype(float))
    ]


class CountingNumpy:
    """``numpy`` for one module, counting calls of its functions by name."""

    def __init__(self, counted):
        self._counted = counted

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr

        def counting(*args, **kwargs):
            self._counted[name] += 1
            return attr(*args, **kwargs)

        return counting


class TestDistinctSampler:
    @given(arrays=key_columns(), delta=st.integers(1, 4), seed=st.integers(0, 5))
    @settings(max_examples=150, deadline=None)
    def test_masks_and_weights_match_reference(self, arrays, delta, seed):
        names = [f"c{i}" for i in range(len(arrays))]
        table = Table("t", dict(zip(names, arrays)) | {"v": np.arange(len(arrays[0]))})
        spec = DistinctSpec(names, delta=delta, p=0.3, seed=seed, reservoir_size=2)
        got = spec.apply(table)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(distinct, "group_ids", lambda arrays: ref_group_codes(arrays)[0])
            want = spec.apply(table)
        np.testing.assert_array_equal(got.column("v"), want.column("v"))
        np.testing.assert_array_equal(got.weights(), want.weights())


class TestValueCounts:
    """``value_counts`` is ``np.unique(..., return_counts=True)`` whichever
    way it counts: a table over a dense integer span, the sort otherwise."""

    @pytest.mark.parametrize(
        "values",
        [
            np.array([3, 1, 3, 3, -2, 1]),  # dense span, negative floor
            np.array([-128, 127, 0, 127], dtype=np.int8),  # span wider than the dtype's positives
            np.array([0, 1 << 40, 1 << 40, 5]),  # span defeats dense_span
            np.array([2**64 - 1, 0, 2**64 - 1], dtype=np.uint64),  # not an int64
            np.array([True, False, True]),
            np.array([0.5, -0.0, 0.0, np.nan, np.nan, 0.5]),
            np.array(["b", "a", "b", ""]),
            np.array([], dtype=np.int64),
            np.array([7]),
        ],
        ids=["dense", "int8", "sparse", "uint64", "bool", "float-nan", "str", "empty", "one"],
    )
    def test_matches_np_unique(self, values):
        uniques, counts = keys.value_counts(values)
        want_uniques, want_counts = np.unique(values, return_counts=True)
        np.testing.assert_array_equal(uniques, want_uniques)
        np.testing.assert_array_equal(counts, want_counts)
        assert [type(u.item()) for u in uniques] == [type(u.item()) for u in want_uniques]

    @given(values=st.lists(st.integers(-300, 300), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_dense_integers(self, values):
        values = np.array(values, dtype=np.int64)
        uniques, counts = keys.value_counts(values)
        want_uniques, want_counts = np.unique(values, return_counts=True)
        np.testing.assert_array_equal(uniques, want_uniques)
        np.testing.assert_array_equal(counts, want_counts)


class TestCountDistinct:
    """``count_distinct`` is ``len(np.unique(key))`` whichever way it
    counts: a table over a dense span, a uint32 sort, an int64 sort."""

    @pytest.mark.parametrize(
        "key, span",
        [
            (np.array([3, 1, 3, 0, 1]), 4),  # dense
            (np.array([0, 1 << 31, 5, 1 << 31, 5]), (1 << 32)),  # uint32 sort
            (np.array([0, 1 << 40, 5, 1 << 40]), (1 << 41)),  # int64 sort
            (np.array([], dtype=np.int64), 1 << 40),
            (np.array([9]), 1 << 40),
        ],
        ids=["dense", "uint32", "int64", "empty", "one"],
    )
    def test_matches_np_unique(self, key, span):
        assert keys.count_distinct(key, span) == len(np.unique(key))


def assert_stable_order(values):
    got = keys.stable_argsort(values)
    np.testing.assert_array_equal(got, np.argsort(values, kind="stable"))
    assert got.dtype == np.intp


@st.composite
def small_span(draw, dtype, n):
    info = np.iinfo(dtype)
    lo = draw(st.integers(int(info.min), int(info.max) - 40))
    return np.asarray(draw(st.lists(st.integers(lo, lo + 40), min_size=n, max_size=n)), dtype=dtype)


class TestStableArgsort:
    """``stable_argsort`` is ``np.argsort(kind="stable")`` on every input,
    whether it took the tie-free fast sort or fell back to the stable one."""

    @given(data=st.data(), dtype=st.sampled_from(["int8", "int32", "int64", "uint64"]),
           n=st.integers(0, 60))
    @settings(max_examples=300, deadline=None)
    def test_integers(self, data, dtype, n):
        # Extremes make (key - min) * n + row overflow int64 (the fallback);
        # a narrow span anywhere in the range fits it (the fast sort).
        assert_stable_order(data.draw(column(dtype, n)))
        assert_stable_order(data.draw(small_span(dtype, n)))

    @given(values=st.lists(st.sampled_from(FLOATS), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_floats_with_ties_zeros_and_nans(self, values):
        assert_stable_order(np.asarray(values, dtype=np.float64))

    @given(values=st.lists(st.floats(allow_nan=False, width=32), max_size=60, unique=True),
           nans=st.integers(0, 3), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_floats_without_ties(self, values, nans, data):
        values = values + [float("nan")] * nans
        permuted = data.draw(st.permutations(values))
        assert_stable_order(np.asarray(permuted, dtype=np.float64))
        assert_stable_order(np.asarray(permuted, dtype=np.float32))

    @pytest.mark.parametrize("dtype", ["int8", "int64", "uint64", "float64", "bool", "<U2"])
    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_one_row(self, dtype, n):
        assert_stable_order(np.zeros(n, dtype=dtype))

    def test_tie_free_keys_skip_the_stable_sort(self, monkeypatch):
        kinds = []
        argsort = np.argsort

        def recording(values, *args, kind=None, **kwargs):
            kinds.append(kind)
            return argsort(values, *args, kind=kind, **kwargs)

        monkeypatch.setattr(keys.np, "argsort", recording)
        rng = np.random.default_rng(0)
        keys.stable_argsort(rng.integers(0, 50, 1000))  # ties, fits int64
        keys.stable_argsort(rng.random(1000))  # no ties
        assert kinds == [None, None]
        keys.stable_argsort(np.array([0.5, 0.5]))  # a tie
        keys.stable_argsort(np.array([0, 2**63 - 1, 5]))  # composite overflows
        assert kinds[2:] == [None, "stable", "stable"]
