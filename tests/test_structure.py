"""Structural ratchet: debt the execution-pipeline refactor paid stays paid.

AST-based, so it reads the source rather than importing it. Each limit may
only tighten; only the reachability rules and the tally rule have exception
lists, each entry with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

MAX_FUNCTION_LINES = 120

#: ``PhysicalPlan.execute`` and ``_RunState.record`` have 7 (with ``self``)
#: and are the widest; what an execution shares between its steps travels
#: in the run state, not in ever longer argument lists.
MAX_PHYSICAL_PARAMETERS = 7

#: ``ParallelOptions`` had 13 fields before ``measure_serial_baseline``
#: went, and 12 before the four knobs only tests and benchmarks set (the
#: transport choice, pickled-byte measurement, partition selection and the
#: degradation switch) went; a new knob needs two existing callers that
#: want different values.
MAX_PARALLEL_OPTIONS = 8

#: Settable values of the engine's constructors (``self`` not counted).
#: ``Executor`` had 8 and ``PlanRunner`` 6 before ``attach_rowids`` and
#: ``morsel_rows``, which only tests set, went; a new knob needs two
#: non-test callers that want different values.
MAX_ENGINE_PARAMETERS = {"PlanRunner.__init__": 4, "Executor.__init__": 6}


def _functions(tree):
    """``(qualified name, node, nested)`` of every function — methods
    included, and functions defined inside another function (``nested``)."""

    def visit(node, prefix, nested):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child, nested
                yield from visit(child, prefix + child.name + ".", True)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, prefix + child.name + ".", nested)
            else:
                yield from visit(child, prefix, nested)

    return visit(tree, "", False)


def _parse(relative):
    return ast.parse((SRC / relative).read_text(encoding="utf-8"))


def test_no_function_over_the_line_limit():
    oversize = {}
    for package in ("engine", "parallel", "service"):
        for path in sorted((SRC / package).glob("*.py")):
            for name, node, _ in _functions(ast.parse(path.read_text(encoding="utf-8"))):
                lines = node.end_lineno - node.lineno + 1
                if lines > MAX_FUNCTION_LINES:
                    oversize[f"{package}/{path.name}::{name}"] = lines
    assert not oversize, f"functions over {MAX_FUNCTION_LINES} lines: {oversize}"


def test_failure_accounting_is_written_once():
    """Every backend and every failure kind is charged by the one step that
    counts the retry: a second ``retries += 1`` is a second scheduler."""
    charges = [
        node.lineno
        for node in ast.walk(_parse("parallel/tasks.py"))
        if isinstance(node, ast.AugAssign)
        and isinstance(node.op, ast.Add)
        and getattr(node.target, "attr", None) == "retries"
    ]
    assert len(charges) == 1, f"`retries +=` in parallel/tasks.py at lines {charges}"


def test_physical_functions_take_few_parameters():
    wide = {}
    for name, node, _ in _functions(_parse("engine/physical.py")):
        args = node.args
        count = len(args.posonlyargs) + len(args.args) + len(args.kwonlyargs)
        count += (args.vararg is not None) + (args.kwarg is not None)
        if count > MAX_PHYSICAL_PARAMETERS:
            wide[name] = count
    assert not wide, f"over {MAX_PHYSICAL_PARAMETERS} parameters in engine/physical.py: {wide}"


def _calls(tree, attr):
    """Every call of a function or method named ``attr`` under ``tree``."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == attr
    ]


def _loops_over(tree, attr):
    """Line numbers of loops and comprehensions under ``tree`` whose
    iterable calls a function or method named ``attr``."""
    loops = []
    for node in ast.walk(tree):
        iters = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iters.extend(generator.iter for generator in node.generators)
        loops += [it.lineno for it in iters if _calls(it, attr)]
    return loops


def test_operators_gather_what_they_are_asked_for():
    """A gather loop is driven by the requested columns, never by whatever
    columns an input happens to carry (the full-width join)."""
    loops = _loops_over(_parse("engine/operators.py"), "data_column_names")
    assert not loops, f"engine/operators.py loops over data_column_names() at lines {loops}"


def _table_statistics_half(tree):
    """The top-level definitions of ``stats/catalog.py`` up to and including
    ``Catalog``: what follows is the partition catalog, which summarises
    whole partitions by design."""
    names = [getattr(node, "name", None) for node in tree.body]
    return tree.body[: names.index("Catalog") + 1]


def test_table_statistics_are_built_per_column_on_demand():
    """No eager per-table loop over every column, and one way to count
    values (``catalog.column_summaries``: codes or ``keys.value_counts``),
    not a second ``np.unique`` anywhere in the statistics package."""
    half = _table_statistics_half(_parse("stats/catalog.py"))
    loops = [line for node in half for line in _loops_over(node, "data_column_names")]
    assert not loops, f"stats/catalog.py iterates data_column_names() at lines {loops}"
    uniques = [
        f"stats/{path.name}:{call.lineno}"
        for path in sorted((SRC / "stats").glob("*.py"))
        for call in _calls(ast.parse(path.read_text(encoding="utf-8")), "unique")
    ]
    assert not uniques, f"np.unique( in the statistics package at {uniques}"


def test_one_dictionary_builder_and_one_densifier():
    """A string column is sorted once, when it is registered: keyed kernels
    work on its codes. ``np.unique(..., return_inverse=True)`` — a full sort
    of whatever it is handed — is called by the dictionary builder and by the
    key encoder's densifier and nowhere else in the execution path; string
    hashing goes through the builder."""
    sites = []
    for package in ("engine", "samplers", "parallel"):
        for path in sorted((SRC / package).glob("*.py")):
            for name, node, _ in _functions(ast.parse(path.read_text(encoding="utf-8"))):
                if any(
                    keyword.arg == "return_inverse"
                    for call in _calls(node, "unique")
                    for keyword in call.keywords
                ):
                    sites.append(f"{package}/{path.name}::{name}")
    assert sites == ["engine/keys.py::encode_dictionary", "engine/keys.py::_dense_codes"], sites
    hashing = {name: node for name, node, _ in _functions(_parse("samplers/hashing.py"))}
    assert _calls(hashing["_to_uint64"], "encode_dictionary")


def test_rewrite_recursion_is_not_through_closures():
    """A nested function that calls itself is a function<->cell cycle per
    call of its parent: garbage only the cycle collector frees."""
    recursive = [
        name
        for name, node, nested in _functions(_parse("core/rewrite.py"))
        if nested and _calls(node, node.name)
    ]
    assert not recursive, f"self-recursive nested defs in core/rewrite.py: {recursive}"


def test_one_costing_path_in_the_optimizer():
    """Every alternative is priced through the one ``cost_plan`` call."""
    callers = sorted(
        f"core/{path.name}::{name}"
        for path in sorted((SRC / "core").glob("*.py"))
        for name, node, _ in _functions(ast.parse(path.read_text(encoding="utf-8")))
        if _calls(node, "cost_plan")
    )
    assert callers == ["core/asalqa.py::Asalqa._cost"], callers


def test_worker_plans_are_compiled_once_with_a_requirement():
    compiles = []
    for path in sorted((SRC / "parallel").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bare = [call.lineno for call in _calls(tree, "compile_plan")]
        assert not bare, f"parallel/{path.name} calls compile_plan( at {bare}: use the engine"
        compiles += [(path.name, call) for call in _calls(tree, "compile")]
    assert len(compiles) == 1, f"expected one PlanRunner.compile call site: {compiles}"
    name, call = compiles[0]
    assert getattr(call.func.value, "attr", None) == "engine", f"{name}:{call.lineno}"
    assert "required" in {kw.arg for kw in call.keywords}, (
        f"{name}:{call.lineno} compiles worker plans without their root requirement"
    )


def test_merge_rows_is_a_run_merge():
    merge_rows = next(
        node for name, node, _ in _functions(_parse("parallel/merge.py")) if name == "merge_rows"
    )
    sorts = [
        node.attr
        for node in ast.walk(merge_rows)
        if isinstance(node, ast.Attribute) and node.attr in ("lexsort", "sort_by")
    ]
    assert not sorts, f"merge_rows re-sorts its payloads with {sorts}"


def test_stable_sorts_go_through_stable_argsort():
    """``np.argsort(kind="stable")`` is a timsort on 32- and 64-bit keys;
    ``keys.stable_argsort`` returns the same permutation from NumPy's SIMD
    sort. Only it calls the stable sort directly, and ``parallel/merge.py``,
    whose payloads are sorted runs that timsort merges in linear time."""
    allowed = {"engine/keys.py", "parallel/merge.py"}
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative in allowed:
            continue
        for call in _calls(ast.parse(path.read_text(encoding="utf-8")), "argsort"):
            kind = next((kw.value for kw in call.keywords if kw.arg == "kind"), None)
            if kind is not None and getattr(kind, "value", None) not in ("quicksort", "heapsort"):
                sites.append(f"{relative}:{call.lineno}")
    assert not sites, f"stable argsorts outside keys.stable_argsort: {sites}"


def test_parallel_pipeline_stays_a_pipeline():
    tree = _parse("parallel/executor.py")
    constructed = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Executor"
    ]
    assert not constructed, (
        f"parallel/executor.py builds an Executor (line {constructed}): "
        "borrow the owner's engine"
    )
    nested = [name for name, _, nested in _functions(tree) if nested]
    assert len(nested) <= 1, f"more than one nested def in the pipeline: {nested}"
    run_calls = [
        (path.name, node.lineno)
        for path in sorted((SRC / "parallel").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "run"
        and getattr(node.func.value, "id", None) == "runtime"
    ]
    assert len(run_calls) == 1, f"expected one runtime.run( call site: {run_calls}"


def test_placement_is_a_lookup():
    """``_place`` assembles worker tables from the partition store's
    resident arrays; cutting a table per query is what the store replaced."""
    place = next(
        node
        for name, node, _ in _functions(_parse("parallel/executor.py"))
        if name == "ParallelExecutor._place"
    )
    cutting = sorted(
        f"{attr}:{call.lineno}"
        for attr in ("split", "take", "partition", "arange")
        for call in _calls(place, attr)
    )
    assert not cutting, f"ParallelExecutor._place partitions per query: {cutting}"


def test_one_thread_pool_construction_site():
    """Threads are resident in the ``WorkerPool``; a second construction
    site is a second pool lifetime to reason about."""
    sites = [
        f"parallel/{path.name}:{call.lineno}"
        for path in sorted((SRC / "parallel").glob("*.py"))
        for call in _calls(ast.parse(path.read_text(encoding="utf-8")), "ThreadPoolExecutor")
    ]
    assert len(sites) == 1, sites


def test_one_call_site_of_physical_execute():
    calls = [
        node.lineno
        for node in ast.walk(_parse("engine/executor.py"))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "execute"
        and getattr(node.func.value, "id", None) == "physical"
    ]
    assert len(calls) == 1, f"PhysicalPlan.execute call sites in engine/executor.py: {calls}"


def test_parallel_options_do_not_grow():
    options = next(
        node
        for node in ast.walk(_parse("parallel/executor.py"))
        if isinstance(node, ast.ClassDef) and node.name == "ParallelOptions"
    )
    fields = [
        stmt.target.id for stmt in options.body if isinstance(stmt, ast.AnnAssign)
    ]
    assert len(fields) <= MAX_PARALLEL_OPTIONS, fields


def test_engine_constructors_do_not_grow():
    widths = {
        name: len(node.args.args) - 1 + len(node.args.kwonlyargs)
        for name, node, _ in _functions(_parse("engine/executor.py"))
        if name in MAX_ENGINE_PARAMETERS
    }
    assert widths.keys() == MAX_ENGINE_PARAMETERS.keys(), widths
    wide = {name: n for name, n in widths.items() if n > MAX_ENGINE_PARAMETERS[name]}
    assert not wide, f"engine constructors over their ceiling: {wide}"


def _functions_under(*packages):
    """``(package/file.py, qualified name, node)`` of every function."""
    for package in packages:
        for path in sorted((SRC / package).glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for name, node, _ in _functions(tree):
                yield f"{package}/{path.name}", name, node


def test_one_aggregate_estimator():
    """The Table 8 rewrites and their variance are written once: one module
    dispatches on the aggregate kind, and the parallel path borrows it
    through its public names."""
    dispatching = sorted(
        f"{package}/{path.name}"
        for package in ("engine", "parallel")
        for path in sorted((SRC / package).glob("*.py"))
        if any(
            isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "AggKind"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )
    )
    assert dispatching == ["engine/aggregate.py"], dispatching
    private = [
        (path.name, node.module, alias.name)
        for path in sorted((SRC / "parallel").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro.engine")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"parallel/ imports private engine names: {private}"


def test_one_place_turns_variance_into_an_interval():
    """``Z_95`` meets a square root where a state is finalized, and where
    weighted partition selection adds its term to a finished interval."""
    users = sorted(
        f"{module}::{name}"
        for module, name, node in _functions_under("engine", "parallel")
        if any(isinstance(n, ast.Name) and n.id == "Z_95" for n in ast.walk(node))
    )
    assert users == [
        "engine/aggregate.py::finalize_partial",
        "parallel/merge.py::inflate_selection_cis",
    ], users


def test_estimation_annotations_are_read_in_one_function():
    annotations = {"compute_ci", "universe_rescale", "universe_variance"}
    readers = sorted(
        {
            f"{module}::{name}"
            for module, name, node in _functions_under("engine", "parallel")
            for call in _calls(node, "getattr")
            if len(call.args) > 1 and getattr(call.args[1], "value", None) in annotations
        }
    )
    assert readers == ["engine/aggregate.py::Estimation.of"], readers


#: Modules no static import path from the entry points reaches, kept on
#: purpose; every other module must be reachable (or wired in, or deleted).
UNREACHED_ON_PURPOSE = {
    "repro.baselines.blinkdb": "the paper's Table 6 baseline; bench_table6_blinkdb.py drives it",
}


def _source_file(module):
    """The file of a ``repro`` module (a package's ``__init__.py``), or None."""
    base = SRC.parent.joinpath(*module.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _defining_module(module, name):
    """The module that defines ``name`` as imported from ``module``: a
    submodule of that name, else the module a re-export imports it from,
    else ``module`` itself. None outside ``repro``."""
    if module.split(".")[0] != "repro" or _source_file(module) is None:
        return None
    if _source_file(f"{module}.{name}") is not None:
        return f"{module}.{name}"
    tree = ast.parse(_source_file(module).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _defining_module(node.module, alias.name)
    return module


def _imported_modules(module):
    """Every ``repro`` module ``module`` imports, at any depth of its body
    (function-level imports count), each name resolved to its definer. The
    package writes absolute imports only."""
    tree = ast.parse(_source_file(module).read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] == "repro")
        elif isinstance(node, ast.ImportFrom):
            found.update(_defining_module(node.module, a.name) for a in node.names)
    return found - {None}


def test_every_module_is_reachable_from_the_entry_points():
    """Start at ``repro.__main__`` and at the definers of the names
    ``repro/__init__.py`` exports, and follow imports. A package's
    ``__init__`` is followed only when the package itself is imported as a
    module object; importing a name through it reaches the name's definer,
    so re-exporting a module from a package does not make it reachable."""
    frontier = ["repro.__main__", *_imported_modules("repro")]
    reached = set()
    while frontier:
        module = frontier.pop()
        if module not in reached:
            reached.add(module)
            frontier.extend(_imported_modules(module) - reached)
    modules = {
        ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        for path in SRC.rglob("*.py")
        if path.name != "__init__.py"
    }
    unreached = sorted(modules - reached)
    assert unreached == sorted(UNREACHED_ON_PURPOSE), f"modules no entry point imports: {unreached}"


#: Top-level functions and classes only the tests use, kept on purpose;
#: every other one must be reachable from the package's own code, the
#: benchmarks or the examples (or be deleted).
TEST_ONLY_ON_PURPOSE = {
    "repro.algebra.addressing.canonical_plan_form": "the tuple plan_fingerprint's text encodes",
    "repro.algebra.addressing.node_at": "inverse of preorder_paths; tests resolve addresses",
    "repro.algebra.addressing.parse_address": "inverse of format_address; tests round-trip",
    "repro.algebra.analysis.count_samplers": "sibling of the plan counters; tests use it",
    "repro.experiments.report.format_percentile_table": "the paper's percentile-table layout",
    "repro.memory.arena.manager": "test fixtures release every segment through it",
    "repro.samplers.hashing.universe_fraction": "the universe hash as a point in [0, 1)",
}


def _binds(node):
    """Names a top-level statement binds (definitions and assignments)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def test_every_function_and_class_is_used_outside_the_tests():
    """Follow uses from the package's entry modules, every top-level
    statement that binds no name, the benchmarks and the examples. A bare
    name resolves through its module's definitions and imports; ``x.name``
    reaches every definition called ``name`` (an over-approximation, so a
    name this misses really is unused)."""
    trees = {
        ".".join(path.relative_to(SRC.parent).with_suffix("").parts).removesuffix(".__init__"):
        ast.parse(path.read_text(encoding="utf-8"))
        for path in SRC.rglob("*.py")
    }
    definitions, named, aliases = {}, {}, {}
    for module, tree in trees.items():
        for node in tree.body:
            for name in _binds(node):
                definitions[(module, name)] = node
                named.setdefault(name, []).append((module, name))
            if isinstance(node, ast.ImportFrom):
                for a in node.names:
                    aliases[(module, a.asname or a.name)] = (
                        _defining_module(node.module, a.name), a.name
                    )

    def uses(module, node):
        found = []
        for n in ast.walk(node):
            if isinstance(n, ast.Attribute):
                found.extend(named.get(n.attr, ()))
            elif isinstance(n, ast.ImportFrom):
                found.extend((_defining_module(n.module, a.name), a.name) for a in n.names)
            elif isinstance(n, ast.Name):
                found.append(aliases.get((module, n.id), (module, n.id)))
        return found

    frontier = [
        use
        for module, tree in trees.items()
        for node in tree.body
        if module in ("repro", "repro.__main__")
        or not (_binds(node) or isinstance(node, (ast.Import, ast.ImportFrom)))
        for use in uses(module, node)
    ]
    repo = SRC.parents[1]
    for path in [*(repo / "benchmarks").rglob("*.py"), *(repo / "examples").glob("*.py")]:
        frontier.extend(uses(None, ast.parse(path.read_text(encoding="utf-8"))))
    reached = set()
    while frontier:
        key = frontier.pop()
        if key in definitions and key not in reached:
            reached.add(key)
            frontier.extend(uses(key[0], definitions[key]))
    test_only = sorted(
        f"{module}.{name}"
        for (module, name), node in definitions.items()
        if (module, name) not in reached
        and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    )
    assert test_only == sorted(TEST_ONLY_ON_PURPOSE), f"used only by the tests: {test_only}"


#: Methods only the tests call (or nothing in the repository does), kept on
#: purpose; every other method's name must be read somewhere in the
#: package, the benchmarks or the examples.
METHODS_TEST_ONLY_ON_PURPOSE = {
    "repro.obs.export._Handler.do_GET": "http.server calls it for each GET",
    "repro.obs.export._Handler.log_message": "http.server calls it; routed to the debug log",
    "repro.service.auditor.QueryAuditor.wait_drained": "documented test helper",
    "repro.memory.arena.SegmentManager.release_all": "test fixtures release every segment",
    "repro.stats.catalog.ColumnSummary.from_array": "the reference summary the catalog is held to",
    "repro.stats.catalog.Catalog.collected_tables": "tests check statistics are built on demand",
    "repro.engine.partitions.ResidentPartitions.resident_columns":
        "tests check which columns a partition set has copied",
}


def _module_name(path):
    return ".".join(path.relative_to(SRC.parent).with_suffix("").parts).removesuffix(".__init__")


def _name_reads(tree):
    """How often each name is read, as ``x.name`` or as a bare ``name``."""
    return Counter(
        node.attr if isinstance(node, ast.Attribute) else node.id
        for node in ast.walk(tree)
        if isinstance(node, (ast.Attribute, ast.Name))
    )


def test_every_method_is_used_outside_the_tests():
    """The method-level twin of the rule above, with the same name-based
    over-approximation: a method is used when its name is read anywhere in
    the package, the benchmarks or the examples outside its own body. The
    language calls the dunder methods."""
    reads, methods = Counter(), []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads += _name_reads(tree)
        methods += [
            (f"{_module_name(path)}.{cls.name}.{item.name}", item)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__"))
        ]
    repo = SRC.parents[1]
    for path in [*(repo / "benchmarks").rglob("*.py"), *(repo / "examples").glob("*.py")]:
        reads += _name_reads(ast.parse(path.read_text(encoding="utf-8")))
    unused = sorted(
        name for name, node in methods if reads[node.name] <= _name_reads(node)[node.name]
    )
    assert unused == sorted(METHODS_TEST_ONLY_ON_PURPOSE), f"methods only tests use: {unused}"


#: ``self.<attr> +=`` / ``-=`` outside the metrics registry, by file and
#: attribute: state that is not a cumulative metric. A count a report or
#: the scrape shows lives in the registry, once.
NOT_A_TALLY = {
    "obs/trace.py:_next_id": "span id generator",
    "obs/flight.py:_next_id": "query id generator",
    "service/client.py:_next_id": "request id generator",
    "service/admission.py:_queued_total": "the run queue's current depth, not a count",
    "engine/physical.py:live_bytes": "one execution's live intermediate bytes",
    "engine/partitions.py:nbytes": "the bytes one partition set holds",
    "engine/governance.py:checks": "one query's checkpoint count",
    "parallel/transport.py:pipe_bytes": "one run's bytes, copied into its ParallelMetrics",
    "parallel/transport.py:shared_bytes": "one run's bytes, copied into its ParallelMetrics",
    "service/auditor.py:_served_approx": "the draw index that picks which answers to audit",
    "obs/flight.py:dumped": "postmortem bundles on disk; the registry does not hold it",
    "obs/export.py:lines_written": "telemetry lines written; the registry does not hold it",
}


def test_no_tally_beside_the_registry():
    """The metrics registry is the one cumulative store: a second
    ``self.hits += 1`` beside it is a second number that can disagree with
    the scrape after a harvest or past the label cap."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative == "obs/registry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.AugAssign)
                and isinstance(node.op, (ast.Add, ast.Sub))
                and isinstance(node.target, ast.Attribute)
                and getattr(node.target.value, "id", None) == "self"
            ):
                found.add(f"{relative}:{node.target.attr}")
    assert sorted(found) == sorted(NOT_A_TALLY), f"tallies beside the registry: {sorted(found)}"
