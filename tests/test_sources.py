"""Source-level rules that hold for every module of the package."""

import ast
import re
import pathlib

import graphlv

PACKAGE = pathlib.Path(graphlv.__file__).parent


def test_no_assert_statements():
    """Runtime checks raise library errors; ``python -O`` strips asserts."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in {found}"


def test_propagators_stay_dense_expm():
    """The monotone squeeze needs entrywise-nonnegative propagators, which the
    uniformization series gives at every truncation; a Krylov action of the
    exponential does not promise them."""
    found = [path.name for path in sorted(PACKAGE.rglob("*.py"))
             if "expm_multiply" in path.read_text(encoding="utf-8")]
    assert not found, f"expm_multiply used in {found}"


def test_no_dense_expm_or_dense_blocks():
    """Propagators are uniformized and operators keep the storage rule's choice, so no
    module uses scipy.linalg.expm, and only graphs.py (its home) calls the dense
    dirichlet_blocks."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "scipy.linalg":
                bad = any(alias.name == "expm" for alias in node.names)
            elif isinstance(node, ast.Attribute):
                bad = node.attr == "expm"
            elif isinstance(node, ast.Call) and path.name != "graphs.py":
                bad = "dirichlet_blocks" in (getattr(node.func, "id", None),
                                             getattr(node.func, "attr", None))
            else:
                continue
            if bad:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"dense expm or dirichlet_blocks in {found}"


def _import_time_nodes(node):
    """Every node that runs when the module is imported: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)


def test_scipy_sparse_is_imported_late():
    """Dense-stored runs (every small problem) never load scipy.sparse and its memory, so no
    module imports it at import time; the CSR branches import it where they need it."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in _import_time_nodes(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name == "scipy.sparse" or name.startswith("scipy.sparse.") for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"module-level scipy.sparse imports in {found}"


def test_bounds_run_no_explicit_march():
    """The coexistence bounds come from the implicit monotone iteration, which has no
    diffusion stability cap, so monotone.py never calls back into the explicit stepper."""
    source = (PACKAGE / "monotone.py").read_text(encoding="utf-8")
    assert "_windows" not in source


def test_initial_data_have_one_reader():
    """Initial data are read and checked by ``dynamics._coerce_initial`` and graph-free
    states by ``dynamics._state_extrema``, so no other module names (imports or calls) the
    private readers underneath them, and config.py, which hands the document's values to
    ``_coerce_initial``, names no ``field_array`` or ``_as_float`` and applies no
    ``_number`` to initial data (a call whose arguments mention them, or in a function
    named for them)."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "dynamics.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
                  and {"_pair_arrays", "_field_columns"} & _names(node)]
    config = ast.parse((PACKAGE / "config.py").read_text(encoding="utf-8"))
    found += [f"config.py:{node.lineno}" for node in ast.walk(config)
              if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
              and {"field_array", "_as_float"} & _names(node)]
    for func in ast.walk(config):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Call) and "_number" in _names(node.func)
                    and ("initial" in func.name
                         or any("initial" in text for arg in node.args
                                for text in _texts(arg)))):
                found.append(f"config.py:{node.lineno}")
    assert not found, f"private initial-data readers used in {found}"


def test_time_fields_have_one_reader():
    """A TimeField is evaluated by ``monotone._tf_samples`` alone: no other code in the
    package calls a ``.value`` or ``.derivative`` attribute."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        inside = {id(node) for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef) and func.name == "_tf_samples"
                  for node in ast.walk(func)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("value", "derivative") and id(node) not in inside]
    assert not found, f"time fields evaluated outside _tf_samples in {found}"


def test_monotone_sweeps_make_no_solve():
    """The forcing integrals of the monotone sweeps come from the uniformization powers, so
    ``monotone_solve``, ``_sweep`` and ``_propagator`` name no factorization: no
    ``_factor``, ``splu`` or ``lu_factor``."""
    tree = ast.parse((PACKAGE / "monotone.py").read_text(encoding="utf-8"))
    funcs = [func for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
             and func.name in ("monotone_solve", "_sweep", "_propagator")]
    assert sorted(func.name for func in funcs) == ["_propagator", "_sweep", "monotone_solve"]
    found = [f"{func.name}:{node.lineno}" for func in funcs for node in ast.walk(func)
             if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
             and {"_factor", "splu", "lu_factor"} & _names(node)]
    assert not found, f"factorizations named in the monotone sweeps at {found}"


def test_kinetics_have_one_home():
    """The kinetics u (a1 - b1 u - c1 v) and v (a2 - b2 u - c2 v) are computed by
    ``dynamics._kinetics`` alone, on both species stacked, so no function in the package
    writes either by hand: no subtraction ``X.a1 - X.b1 * ...`` or ``X.a2 - X.b2 * ...``."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                  and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Mult)
                  and any({f"a{i}"} & _names(node.left) and {f"b{i}"} & _names(node.right.left)
                          for i in (1, 2))]
    assert not found, f"kinetics written by hand in {found}"


def test_active_set_map_has_one_home():
    """States move between vertex order and the active set in ``dynamics.py`` alone, which
    gathers with ``[:, problem.active_idx]`` and scatters back with ``_materialize``, over
    the vertex coordinates of ``graphs.py``: no other module assigns into an array through
    a vertex index set, and cli.py names neither ``_materialize`` nor ``reduced_operators``
    (a reflecting boundary is projected by ``neumann_project``)."""
    index_sets = {"active_idx", "interior_idx", "boundary_idx", "closure_idx", "act", "bnd",
                  "closure"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name in ("graphs.py", "dynamics.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                  and any(index_sets & _names(sub) for sub in ast.walk(node.slice))]
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    found += [f"cli.py:{node.lineno}" for node in ast.walk(cli)
              if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
              and {"_materialize", "reduced_operators"} & _names(node)]
    assert not found, f"states scattered outside dynamics.py in {found}"


def test_shift_has_one_home():
    """The shift M of the three monotone iterations, the kinetics' slope bound
    2 b1 u + c1 v - a1 (and 2 c2 v + b2 u - a2) over an ordered pair, is written by
    ``monotone._shift`` alone: no sum or difference in the package has a term
    ``2 * X.b1 * ...`` or ``2 * X.c2 * ...``. ``dynamics._step_cap`` is exempt: its
    a1 + 2 b1 m_u + ... bounds the kinetics' two-sided Lipschitz constant for the explicit
    stepper's stability, which is not a monotone shift."""
    found, homes = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        exempt = set()
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name in ("_step_cap", "_shift"):
                homes.add(f"{path.name}:{func.name}")
                if func.name == "_step_cap":
                    exempt = {id(node) for node in ast.walk(func)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
                  and id(node) not in exempt and any(map(_slope_term, (node.left, node.right)))]
    assert not found, f"slope bounds written outside monotone._shift in {found}"
    assert homes == {"dynamics.py:_step_cap", "monotone.py:_shift"}


def test_steady_iteration_has_one_home():
    """The logistic steady state and the coexistence bounds run one ordered monotone
    iteration, ``monotone._ordered_steady``, which owns their factorizations and stall rule:
    no other code in the package calls ``_factor`` or constructs a ``_Stall``."""
    found, homes = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        inside = set()
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name == "_ordered_steady":
                homes.append(path.name)
                inside = {id(node) for node in ast.walk(func)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and {"_factor", "_Stall"} & _names(node.func)
                  and id(node) not in inside]
    assert not found, f"_factor or _Stall called outside _ordered_steady in {found}"
    assert homes == ["monotone.py"]


def test_coupled_inequalities_have_one_home():
    """The parabolic and boundary operators of both checkers come from one evaluator,
    ``monotone._defects``, and the ordered pair's mixed quasimonotone pairing from one
    helper, ``monotone._paired_kinetics``: outside its import, monotone.py names
    ``_closure_laplacian`` and ``_boundary_normal`` only inside the evaluator, and calls
    ``reaction`` only inside the helper."""
    tree = ast.parse((PACKAGE / "monotone.py").read_text(encoding="utf-8"))
    homes = {"_defects": set(), "_paired_kinetics": set()}
    homes.update({func.name: {id(node) for node in ast.walk(func)} for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef) and func.name in homes})
    found = [f"monotone.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))
             and {"_closure_laplacian", "_boundary_normal"} & _names(node)
             and id(node) not in homes["_defects"]]
    found += [f"monotone.py:{node.lineno}" for node in ast.walk(tree)
              if isinstance(node, ast.Call) and "reaction" in _names(node.func)
              and id(node) not in homes["_paired_kinetics"]]
    assert not found, f"coupled inequalities evaluated outside their homes at {found}"
    assert all(homes.values())


def _slope_term(node) -> bool:
    """Whether ``node`` is a product with the factor 2 and a factor named b1 or c2."""
    factors, stack = [], [node]
    while stack:
        sub = stack.pop()
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mult):
            stack += [sub.left, sub.right]
        else:
            factors.append(sub)
    return (any(isinstance(f, ast.Constant) and f.value == 2 for f in factors)
            and any({"b1", "c2"} & _names(f) for f in factors))


def _names(node) -> set:
    return {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}


def _texts(node):
    """Every identifier, attribute and string constant under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value
        else:
            yield from (name for name in _names(sub) if name)


def test_cell_format_has_one_home():
    """Numbers are spelled ``"%.17g" % x`` in two places: ``cli._fmt`` (scalar prints and
    sweep.csv) and the cell writer (``cli._cells``, whose fallback spelling is kept by
    ``cli._cell_tables``). Outside them no code in the package holds a "%.17g" literal, and
    cli.py, which writes every CSV, uses no ``%`` operator and no ``%`` conversion, so no
    per-row template can format CSV cells beside the writer."""
    homes = {"_fmt", "_cell_tables", "_cells"}
    conversion = re.compile(r"%[-#0 +]*[0-9]*(\.[0-9]+)?[a-zA-Z]")
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        docs = {id(node.body[0].value) for node in ast.walk(tree)
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                and node.body and isinstance(node.body[0], ast.Expr)}
        inside = {id(node) for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef) and func.name in homes
                  and path.name == "cli.py" for node in ast.walk(func)}
        for node in ast.walk(tree):
            if id(node) in inside or id(node) in docs:
                continue
            text = node.value if isinstance(node, ast.Constant) else None
            if isinstance(text, bytes):
                text = text.decode("latin-1")
            if isinstance(text, str) and ("%.17g" in text or path.name == "cli.py"
                                          and conversion.search(text)):
                found.append(f"{path.name}:{node.lineno}")
            if (path.name == "cli.py" and isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Mod)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"numbers formatted outside _fmt and the cell writer at {found}"
