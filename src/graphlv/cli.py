"""Command-line front end: simulate, classify, eigen, steady, reproduce, sweep.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 reproduction mismatch. All CSV output writes numbers as ``"%.17g" % x`` so
values round-trip losslessly, quotes a vertex name only when it holds a comma,
a quote, CR or LF (RFC 4180), and contains nothing nondeterministic: identical
configs give byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import os
import sys
import time

import numpy as np

from .classify import (
    _predicted_limit,
    classify_bistable_basin,
    classify_dirichlet,
    classify_neumann,
    eigenpairs_for,
)
from .config import (
    _run_config,
    config_from_document,
    load_document,
    problem_from_document,
    sweep_spec_from_document,
)
from .dynamics import BoundaryCondition, FieldPair, Trajectory, integrate, neumann_project
from .errors import (
    ConfigInvalid,
    GraphLVError,
    InputError,
    NumericalError,
)
from .fixtures import _run_cases, reproduce_ids
from .graphs import _positive
from .monotone import _logistic_states, coexistence_bounds


def _fmt(x) -> str:
    return "%.17g" % float(x)


_CHUNK = 4096         # cells per formatting call: the writer's buffers stay near 0.3 MiB
_ZERO, _OTHER = 21, 22    # cell kinds beside 0..20, fixed notation at decimal exponent kind - 4


@functools.cache
def _cell_tables():
    """The cell writer's constants, built once by arithmetic.

    ``quads`` holds the four ASCII digits of 0..9999 packed little-endian into a uint32 and
    ``places`` the place (1..4) of the last nonzero one, 0 for 0000; ``masks[c]`` keeps the
    first c bytes of a quad. ``powers`` holds the exact doubles 10**e, e = 0..20, over their
    Veltkamp halves. ``heads[kind]`` is what a cell spells before its digits, NUL-padded to 8
    bytes in a uint64: "0." and zeros at exponents -4..-1, nothing for any other kind."""
    n = np.arange(10000, dtype=np.uint32)
    quads = np.zeros(10000, dtype="<u4")
    places = np.zeros(10000, dtype=np.uint8)
    for place, div in enumerate((1000, 100, 10, 1), start=1):
        digit = n // div % 10
        quads |= (digit + ord("0")) << np.uint32(8 * place - 8)
        places[digit > 0] = place
    masks = np.array([0, 0xFF, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF], dtype="<u4")
    powers = np.array([float(10**e) for e in range(21)])
    split = powers * 134217729.0
    high = split - (split - powers)
    heads = np.zeros((23, 8), dtype=np.uint8)
    for k in range(-4, 0):
        heads[k + 4, :1 - k] = np.frombuffer(b"0." + b"0" * (-k - 1), dtype=np.uint8)
    tables = quads, places, masks, np.stack([powers, high, powers - high]), heads
    for table in tables:    # shared by every call
        table.setflags(write=False)
    return tables


def _scaled(a: np.ndarray, k: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """round(a * 10**(16 - k)) to the nearest integer, ties to even, exactly, where the
    product is at least 2**53: Dekker's product gives it as hi + lo with hi an even integer."""
    ten, ten_hi, ten_lo = powers.take(16 - k, axis=1)
    split = a * 134217729.0
    a_hi = split - (split - a)
    a_lo = a - a_hi
    hi = a * ten
    lo = ((a_hi * ten_hi - hi) + a_hi * ten_lo + a_lo * ten_hi) + a_lo * ten_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _cells(pieces, width: int, labels=None, chunk: int = _CHUNK):
    """The CSV text, as bytes in pieces of at most ``chunk`` cells, of a row-major float block
    ``width`` cells wide whose values arrive as the arrays ``pieces``, in order. Each cell is
    ``"%.17g" % x`` byte for byte; cells are joined by "," and rows end in "\n"; row r starts
    with the field ``labels[r]`` (bytes) when labels are given.

    Nonzero cells of decimal exponent k = -4..16 are spelled here from their 17 digits
    N = round(|x| 10**(16 - k)), computed exactly by ``_scaled`` and spelled from the
    four-digit table. A cell is a row of NUL-padded columns: label, sign, head, the digits
    with a "." slot after digit k for each exponent k the chunk has, and the separator;
    ``bytes.translate`` drops the NULs. A zero's digits are "0"; any other cell (exponent
    form, subnormal, inf, nan) spells "%.17g" there, which one ``%`` per chunk fills in,
    together with the labels."""
    quads, places, masks, powers, heads = _cell_tables()
    heads = heads.view("<u8")[:, 0]
    values = np.empty(chunk)
    digits = np.zeros((chunk, 20), dtype=np.uint8)    # digit j at column 3 + j: quads align
    zero, fallback = np.zeros((2, 17), dtype=np.uint8)
    zero[0] = ord("0")
    fallback[:5] = np.frombuffer(b"%.17g", dtype=np.uint8)
    groups = digits.view("<u4")
    text = np.empty(chunk * 43, dtype=np.uint8)    # label, sign, "0.000", 17 digits, 16 ".", ","
    lead = 3 if labels is not None else 0
    if labels is not None:
        labels = np.array(labels, dtype=object)

    def spell(x: np.ndarray, first: int) -> bytes:
        m = x.size
        a = np.abs(x)
        at = np.flatnonzero((a >= 5e-5) & (a < 2e17))    # decimal exponent -5..17
        a = a[at]
        k = np.clip(np.floor(np.log10(a)).astype(np.intp), -4, 16)
        n = _scaled(a, k, powers)
        ok = np.ones(at.size, dtype=bool)
        miss = np.flatnonzero((n < 10**16) | (n >= 10**17))
        while miss.size:    # log10 misses the exponent of the 17-digit rounding by one at most
            k[miss] += np.where(n[miss] < 10**16, -1, 1)
            out = miss[(k[miss] < -4) | (k[miss] > 16)]
            ok[out], a[out], k[out] = False, 1.0, 0
            n[miss] = _scaled(a[miss], k[miss], powers)
            miss = miss[(n[miss] < 10**16) | (n[miss] >= 10**17)]
        top, low = np.divmod(n, 10**8)
        first_digit, high = np.divmod(top, 10**8)
        fours = np.stack(np.divmod(np.stack([high, low], axis=1), 10000), axis=2).reshape(-1, 4)
        last = np.full(at.size, 16)    # the place of the last nonzero digit
        ends = np.flatnonzero(places.take(fours[:, 3]) < 4)
        last[ends] = 0
        for i, place in enumerate(places.take(fours[ends]).T):
            last[ends] = np.where(place > 0, place + 4 * i, last[ends])
        rows = at if at.size < m else slice(0, m)
        digits[rows, 3] = first_digit + ord("0")
        fours = quads.take(fours)
        keep = np.maximum(last, k)    # the last digit kept: a fraction's trailing zeros go
        short = np.flatnonzero(keep < 16)
        fours[short] &= masks[np.clip(keep[short, None] - np.arange(0, 16, 4), 0, 4)]
        groups[rows, 1:] = fours
        kind = np.where(x == 0, _ZERO, _OTHER)
        kind[rows] = k + 4
        dot = np.full(m, -1)
        dot[rows] = np.where((k >= 0) & (last > k), k, -1)    # "." after digit k
        lost = at[~ok]
        kind[lost], dot[lost] = _OTHER, -1
        other = np.flatnonzero(kind == _OTHER)
        digits[other, 3:] = fallback
        digits[:m][x == 0, 3:] = zero
        slots = np.flatnonzero(np.bincount(dot + 1, minlength=17)[1:])
        head = max(0, 5 - int(kind.min()))    # "0." and zeros at exponents -1..-4
        minus = np.signbit(x) & (kind != _OTHER)
        sign = int(minus.any())
        w = lead + sign + head + 17 + slots.size + 1
        cells = text[:m * w].reshape(m, w)
        starts = np.arange((-first) % width if lead else m, m, width)
        if lead:
            cells[:, :3] = 0
            cells[starts, :3] = np.frombuffer(b"%s,", dtype=np.uint8)
        if sign:
            cells[:, lead] = np.where(minus, ord("-"), 0)
        c = lead + sign
        if head:
            cells[:, c:c + head] = heads.take(kind).view(np.uint8).reshape(m, 8)[:, :head]
        c, j = c + head, 0
        for slot in slots.tolist():
            cells[:, c:c + slot + 1 - j] = digits[:m, 3 + j:4 + slot]
            c, j = c + slot + 1 - j, slot + 1
            cells[:, c] = np.where(dot == slot, ord("."), 0)
            c += 1
        cells[:, c:c + 17 - j] = digits[:m, 3 + j:20]
        cells[:, -1] = ord(",")
        cells[(width - 1 - first) % width::width, -1] = ord("\n")
        out = cells.tobytes().translate(None, b"\0")
        if not starts.size:
            return out % tuple(x[other].tolist()) if other.size else out
        fills, filled = np.empty(2 * m, dtype=object), np.zeros(2 * m, dtype=bool)
        fills[2 * starts] = labels[(first + starts) // width]    # before the row's first cell
        fills[2 * other + 1] = x[other].tolist()
        filled[2 * starts] = filled[2 * other + 1] = True
        return out % tuple(fills[filled].tolist())

    fill = first = 0
    for piece in pieces:
        piece = np.ravel(piece)
        at = 0
        while at < piece.size:
            take = min(chunk - fill, piece.size - at)
            values[fill:fill + take] = piece[at:at + take]
            fill, at = fill + take, at + take
            if fill == chunk:
                yield spell(values, first)
                fill, first = 0, first + chunk
    if fill:
        yield spell(values[:fill], first)


def _quote(fields) -> list[str]:
    """CSV fields as RFC 4180 writes them: a field that holds a comma, a quote, CR or LF is
    quoted, its quotes doubled; any other is left as it is."""
    fields = [str(field) for field in fields]
    joined = "".join(fields)
    if not any(c in joined for c in ',"\r\n'):
        return fields
    return ['"' + field.replace('"', '""') + '"' if any(c in field for c in ',"\r\n')
            else field for field in fields]


def _ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _csv_bytes(header: str, pieces, width: int, labels=None):
    """The header line, then ``_cells``' text of the block, row r led by the name labels[r]."""
    if labels is not None:
        labels = [name.encode("utf-8") for name in _quote(labels)]
    yield (header + "\n").encode("utf-8")
    yield from _cells(pieces, width, labels)


def _write_rows(path: str, header: str, labels, columns) -> None:
    """A CSV file: the header line, then one row per label, its name then its columns."""
    block = np.column_stack(columns)
    with open(path, "wb") as fh:
        fh.writelines(_csv_bytes(header, (block,), block.shape[1], labels))


def _write_trajectory(path: str, vertices, traj: Trajectory) -> None:
    names = _quote(["t"] + [f"{side}@{v}" for side in "uv" for v in vertices])
    width = 1 + 2 * len(vertices)
    step = max(1, _CHUNK // width)
    blocks = (np.column_stack([traj.times[i:i + step],
                               [np.concatenate((s.u, s.v)) for s in traj.states[i:i + step]]])
              for i in range(0, len(traj.states), step))
    with open(path, "wb") as fh:
        fh.writelines(_csv_bytes(",".join(names), blocks, width))


def _json_key(item) -> str:
    """The text json writes for the key of a (key, value) item."""
    return item[0] if isinstance(item[0], str) else json.dumps(item[0])


def _write_report(path: str, report: dict) -> None:
    """``json.dumps(report, indent=2, sort_keys=True, default=float)`` and a newline, with the
    per-vertex maps of ``report["final"]`` dumped by json's C encoder (``indent`` forces the
    pure-Python one) at the depth and with the separators the indented dump gives them.
    Vertex names that cannot be ordered together (names of several JSON types) are ordered
    by the key text json writes for them."""
    final = report["final"]
    marks = {side: "\0" + side for side in final}
    text = json.dumps({**report, "final": marks}, indent=2, sort_keys=True, default=float)
    for side, values in final.items():
        separators = (",\n      ", ": ")
        try:
            body = json.dumps(values, sort_keys=True, default=float, separators=separators)
        except TypeError:    # names json cannot sort
            body = json.dumps(dict(sorted(values.items(), key=_json_key)), default=float,
                              separators=separators)
        if values:
            body = "{\n      " + body[1:-1] + "\n    }"
        text = text.replace(json.dumps(marks[side]), body, 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _cmd_simulate(args) -> int:
    cfg = config_from_document(load_document(args.config), t_end=args.t_end, dt=args.dt)
    started = time.perf_counter()
    traj = integrate(cfg.problem, (cfg.initial_u, cfg.initial_v), cfg.t_end, dt=cfg.dt)
    elapsed = time.perf_counter() - started
    out = _ensure_dir(args.out)
    traj_path = os.path.join(out, "trajectory.csv")
    report_path = os.path.join(out, "report.json")
    vertices = cfg.problem.graph.vertices
    _write_trajectory(traj_path, vertices, traj)
    final = traj.final
    _write_report(report_path, {
        "t_end": cfg.t_end,
        "final": {
            "u": dict(zip(vertices, final.u.tolist())),
            "v": dict(zip(vertices, final.v.tolist())),
        },
        "rectangle": {"m_u": traj.metadata["m_u"], "m_v": traj.metadata["m_v"]},
        "steps": {k: traj.metadata[k] for k in
                  ("dt", "dt_final", "n_steps", "n_clamped", "n_halvings", "n_rejected",
                   "n_rhs")},
        "boundary": cfg.problem.bc.value,
        "elapsed_seconds": elapsed,
        "files": {"trajectory": traj_path},
    })
    print(f"wrote {traj_path} ({traj.times.size} samples) and {report_path}")
    return 0


def _basin_initial(cfg) -> tuple[np.ndarray, np.ndarray]:
    """The closure values of the initial data, the reflecting boundary's projected."""
    problem, state = cfg.problem, FieldPair(u=cfg.initial_u, v=cfg.initial_v)
    if problem.bc is BoundaryCondition.NEUMANN:
        state = neumann_project(problem, state)
    idx = problem.closure_idx
    return state.u[idx], state.v[idx]


def _classify_problem(params, eigs, basin):
    """Regime of params; ``basin()``, if given, yields initial data for a bistable regime."""
    if eigs is not None:
        return classify_dirichlet(params, *eigs)
    regime = classify_neumann(params)
    if regime.kind.value == "bistable" and basin is not None:
        regime = classify_bistable_basin(params, basin())
    return regime


def _cmd_classify(args) -> int:
    doc = load_document(args.config)
    problem = problem_from_document(doc)
    eigs = eigenpairs_for(problem) if problem.bc is BoundaryCondition.DIRICHLET else None
    basin = None
    if "initial" in doc:
        basin = lambda: _basin_initial(_run_config(problem, doc))
    regime = _classify_problem(problem.params, eigs, basin)
    print(f"regime: {regime.kind.value}")
    for cert in regime.certificates:
        state = "yes" if cert.satisfied else "no"
        print(f"certificate {cert.name}: margin={cert.margin:.6g} satisfied={state}")
    if regime.predicted is None:
        print("predicted limit: none (initial-data dependent or unresolved)")
        return 0
    if regime.predicted.kind == "constant":
        print(f"predicted limit: constant u={_fmt(regime.predicted.u)} "
              f"v={_fmt(regime.predicted.v)}")
        return 0
    if regime.predicted.kind == "bounds":
        print("predicted limit: coexistence bounds; run the steady subcommand with --bounds")
        return 0
    limit = _predicted_limit(regime, problem, None, eigs)
    out = _ensure_dir(args.out)
    path = os.path.join(out, "predicted_limit.csv")
    _write_rows(path, "vertex,u,v", problem.graph.vertices, (limit.u, limit.v))
    print(f"predicted limit: steady profile written to {path}")
    return 0


def _cmd_eigen(args) -> int:
    problem = problem_from_document(load_document(args.config))
    if problem.partition is None:
        raise ConfigInvalid("eigen needs a partitioned problem (bc neumann or dirichlet)")
    eig1, eig2 = eigenpairs_for(problem)
    header = (f"# lambda0_1 = {_fmt(eig1.lambda0)}\n# lambda0_2 = {_fmt(eig2.lambda0)}\n"
              "vertex,phi1,phi2")
    phi = np.column_stack([eig1.phi, eig2.phi])
    text = b"".join(_csv_bytes(header, (phi,), 2, problem.partition.interior))
    sys.stdout.write(text.decode("utf-8"))
    if args.out is not None:
        out = _ensure_dir(args.out)
        path = os.path.join(out, "eigen.csv")
        with open(path, "wb") as fh:
            fh.write(text)
        print(f"# written to {path}")
    return 0


def _cmd_steady(args) -> int:
    doc = load_document(args.config)
    problem = problem_from_document(doc)
    if problem.bc is not BoundaryCondition.DIRICHLET:
        raise ConfigInvalid("steady states are defined for the absorbing boundary; "
                            'set bc to "dirichlet"')
    tol = 1e-10 if args.tol is None else _positive(args.tol, "--tol")
    out = _ensure_dir(args.out)
    interior = problem.partition.interior
    if args.bounds:
        if tol < 1e-10:    # absolute residuals: finer ones drown in roundoff at large scales
            raise InputError(f"steady --bounds needs --tol of at least 1e-10, got {tol:g}")
        bounds = coexistence_bounds(problem, tol=tol)
        path = os.path.join(out, "coexistence_bounds.csv")
        _write_rows(path, "vertex,s_lo,s_hi,r_lo,r_hi", interior,
                    (bounds.s_lower, bounds.s_upper, bounds.r_lower, bounds.r_upper))
        spread = max(float(np.max(bounds.s_upper - bounds.s_lower)),
                     float(np.max(bounds.r_upper - bounds.r_lower)))
        unique = "unique (bounds collapse)" if bounds.unique else "bounds only"
        print(f"wrote {path}; {unique}, spread {spread:.3e}, "
              f"epsilon={bounds.epsilon:.6g}, delta={bounds.delta:.6g}")
        return 0
    columns = []
    for species, state in enumerate(_logistic_states(problem, eigenpairs_for(problem), tol),
                                    start=1):
        if state is None:
            print(f"# species {species} is subcritical; its steady state is 0",
                  file=sys.stderr)
        columns.append(np.zeros(len(interior)) if state is None else state.values)
    path = os.path.join(out, "steady.csv")
    _write_rows(path, "vertex,s1,s2", interior, columns)
    print(f"wrote {path}")
    return 0


def _cmd_reproduce(args) -> int:
    ids = reproduce_ids() if args.id == "all" else [args.id]
    tol = args.tol if args.tol is not None else 1e-3
    t_max = args.t_end if args.t_end is not None else 1000.0
    failures = 0
    for result in _run_cases(ids, tol=tol, t_max=t_max, dt=args.dt):
        expected = f"({_fmt(result.expected[0])}, {_fmt(result.expected[1])})"
        if result.passed:
            print(f"{result.case_id}: PASS sup-error {result.error:.3e} <= {tol:g} "
                  f"at t={result.t_reached:g}, limit {expected}")
        else:
            failures += 1
            print(f"{result.case_id}: FAIL sup-error {result.error:.3e} > {tol:g} "
                  f"at t={result.t_reached:g}, limit {expected}")
    return 4 if failures else 0


def _cmd_sweep(args) -> int:
    doc = load_document(args.config)
    spec = sweep_spec_from_document(doc)
    axes = spec["axes"]
    names = tuple(sorted(axes))
    points = list(itertools.product(*(axes[name] for name in names)))
    t_end = args.t_end if args.t_end is not None else spec["t_end"]
    agree_tol = (_positive(spec["tol"], "sweep.tol") if args.tol is None
                 else _positive(args.tol, "--tol"))
    cfg = config_from_document(doc, t_end=t_end)
    problem = cfg.problem
    eigs = eigenpairs_for(problem) if problem.bc is BoundaryCondition.DIRICHLET else None
    basin = _basin_initial(cfg)
    batch = dataclasses.replace(problem.params, **dict(zip(names, np.array(points).T)))
    final = integrate(dataclasses.replace(problem, params=batch),
                      (cfg.initial_u, cfg.initial_v), cfg.t_end, max_samples=2).final
    idx = problem.closure_idx
    rows = []
    for j, values in enumerate(points):
        row = dict(zip(names, values))
        regime = _classify_problem(dataclasses.replace(problem.params, **row), eigs, lambda: basin)
        margin = min(abs(c.margin) for c in regime.certificates)
        u, v = final.u[idx, j], final.v[idx, j]
        row.update(kind=regime.kind.value, margin=margin, u_min=float(u.min()),
                   u_max=float(u.max()), v_min=float(v.min()), v_max=float(v.max()))
        if regime.predicted is not None and regime.predicted.kind == "constant":
            pred_u, pred_v = regime.predicted.u, regime.predicted.v
            sup_err = max(float(np.max(np.abs(u - pred_u))), float(np.max(np.abs(v - pred_v))))
            row.update(pred_u=pred_u, pred_v=pred_v, sup_err=sup_err)
            if margin > 0.05:
                row["agree"] = "yes" if sup_err <= agree_tol else "no"
            else:
                row["agree"] = "exempt"
        else:
            row.update(pred_u=float("nan"), pred_v=float("nan"), sup_err=float("nan"),
                       agree="exempt")
        rows.append(row)
    out = _ensure_dir(args.out)
    path = os.path.join(out, "sweep.csv")
    columns = list(names) + ["kind", "margin", "pred_u", "pred_v",
                             "u_min", "u_max", "v_min", "v_max", "sup_err", "agree"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = [row[c] if isinstance(row[c], str) else _fmt(row[c]) for c in columns]
            fh.write(",".join(cells) + "\n")
    agree = sum(r["agree"] == "yes" for r in rows)
    exempt = sum(r["agree"] == "exempt" for r in rows)
    mismatch = sum(r["agree"] == "no" for r in rows)
    print(f"wrote {path}: {len(rows)} points, {agree} agree, "
          f"{exempt} exempt, {mismatch} mismatch")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphlv",
        description="Two-species competition dynamics on finite weighted graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, overrides, config=True, out=None):
        cmd = sub.add_parser(name, help=help_text)
        if config:
            cmd.add_argument("--config", required=True, help="JSON problem description")
        if out is not None:
            cmd.add_argument("--out", default=out, help="output directory")
        if "t_end" in overrides:
            cmd.add_argument("--t-end", type=float, default=None, dest="t_end",
                             help="override the time horizon")
        if "dt" in overrides:
            cmd.add_argument("--dt", type=float, default=None,
                             help="override the time step (default: stability bound)")
        if "tol" in overrides:
            cmd.add_argument("--tol", type=float, default=None, help="override the tolerance")
        return cmd

    add("simulate", "integrate a configured problem and emit trajectory.csv",
        ("t_end", "dt"), out="out")
    add("classify", "print the predicted long-time regime with its margins", (), out="out")
    eigen = add("eigen", "print the smallest absorbing-boundary eigenpairs as CSV", ())
    eigen.add_argument("--out", default=None, help="also write eigen.csv here")
    steady = add("steady", "solve steady states under the absorbing boundary", ("tol",),
                 out="out")
    steady.add_argument("--bounds", action="store_true",
                        help="emit coexistence bounds instead of logistic states")
    reproduce = add("reproduce", "run a built-in example against its known limit",
                    ("t_end", "dt", "tol"), config=False)
    reproduce.add_argument("id", help='one of the built-in case ids, or "all"')
    add("sweep", "classify and simulate over a parameter grid", ("t_end", "tol"), out="out")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads its arguments with, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = {
        "simulate": _cmd_simulate,
        "classify": _cmd_classify,
        "eigen": _cmd_eigen,
        "steady": _cmd_steady,
        "reproduce": _cmd_reproduce,
        "sweep": _cmd_sweep,
    }[args.command]
    try:
        return handler(args)
    except NumericalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except GraphLVError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
