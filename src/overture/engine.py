"""Vectorized enumeration of all protocol runs: the F_2 engine.

Runs are rows, variables are uint8 columns.  The fold walks the command
list once, evaluating each right-hand side over every run simultaneously;
a failed honest assertion clears the alive flag of the affected rows and
every later assignment is marked BOT there.  Row i is the run of the i-th
initial memory of the reference interpreter's sweep: preprocessing
memories in their memories() order, then coin-flip tapes with the first
flip as the most significant bit.  Projections list realizations in the
order of their first run, so distributions built here iterate like those
built by the interpreter.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EvalError, UsageError
from .interp import AdversaryStrategy, _check_replacement_visibility
from .lang import (
    BOT, AssertCmd, BinOp, Cmp, Const, MesgSend, Not, OT, OT4, OutputCmd,
    PAnd, PNot, POr, Partition, Protocol, Ref, RevealCmd, Var, assigned_var,
    computing_client, REVEAL,
)


@dataclass
class RunTable:
    domain: tuple          # all variables, initial then assigned
    cols: dict             # var -> uint8 array
    bots: dict             # var -> bool array or None (never BOT)
    alive: "np.ndarray"    # False where the run aborted
    nrows: int


def _initial_columns(protocol: Protocol, preproc):
    pre_cols = preproc.columns()
    npre = preproc.count()
    flips = protocol.flips()
    ntape = 2 ** len(flips)
    nrows = npre * ntape
    cols = {}
    for v in preproc.domain:
        cols[v] = np.repeat(pre_cols[v], ntape)
    tape_idx = np.arange(ntape, dtype=np.uint64)
    k = len(flips)
    for i, v in enumerate(flips):
        bit = ((tape_idx >> np.uint64(k - 1 - i)) & np.uint64(1)).astype(np.uint8)
        cols[v] = np.tile(bit, npre)
    domain = tuple(preproc.domain) + flips
    return domain, cols, nrows


def _eval_col(cols, e, client: int, nrows: int):
    if isinstance(e, Const):
        if e.value not in (0, 1):
            raise EvalError(f"constant {e.value} out of range for F_2")
        return np.full(nrows, e.value, dtype=np.uint8)
    if isinstance(e, Ref):
        owner = None if e.kind == REVEAL else client
        var = Var(e.kind, e.name, owner)
        if var not in cols:
            raise EvalError(f"{var} unbound")
        return cols[var]
    if isinstance(e, BinOp):
        a = _eval_col(cols, e.left, client, nrows)
        b = _eval_col(cols, e.right, client, nrows)
        if e.op in ("+", "-", "xor"):
            return a ^ b
        if e.op in ("*", "and"):
            return a & b
        if e.op == "or":
            return a | b
        raise EvalError(f"unknown operator {e.op}")
    if isinstance(e, Not):
        return _eval_col(cols, e.operand, client, nrows) ^ np.uint8(1)
    if isinstance(e, OT):
        c = _eval_col(cols, e.choice, e.receiver, nrows)
        a = _eval_col(cols, e.if1, client, nrows)
        b = _eval_col(cols, e.if0, client, nrows)
        return np.where(c == 1, a, b)
    if isinstance(e, OT4):
        c1 = _eval_col(cols, e.c1, e.receiver, nrows)
        c2 = _eval_col(cols, e.c2, e.receiver, nrows)
        rows = [_eval_col(cols, r, client, nrows) for r in e.rows]
        sel = (c1 << 1) | c2  # (1,1)->3, (1,0)->2, (0,1)->1, (0,0)->0
        out = rows[3].copy()  # (0,0)
        np.copyto(out, rows[2], where=sel == 1)
        np.copyto(out, rows[1], where=sel == 2)
        np.copyto(out, rows[0], where=sel == 3)
        return out
    raise EvalError(f"not an expression: {e!r}")


def _eval_pred_col(cols, pred, client: int, nrows: int):
    if isinstance(pred, Cmp):
        a = _eval_col(cols, pred.left, client, nrows)
        b = _eval_col(cols, pred.right, client, nrows)
        return (a == b) if pred.op == "==" else (a != b)
    if isinstance(pred, PAnd):
        return _eval_pred_col(cols, pred.left, client, nrows) & _eval_pred_col(cols, pred.right, client, nrows)
    if isinstance(pred, POr):
        return _eval_pred_col(cols, pred.left, client, nrows) | _eval_pred_col(cols, pred.right, client, nrows)
    if isinstance(pred, PNot):
        return ~_eval_pred_col(cols, pred.operand, client, nrows)
    raise EvalError(f"not a predicate: {pred!r}")


def fold(protocol: Protocol, preproc, strategy: AdversaryStrategy = None,
         part: Partition = None) -> RunTable:
    if protocol.modulus != 2:
        raise UsageError("the vectorized engine requires F_2")
    domain, cols, nrows = _initial_columns(protocol, preproc)
    domain = list(domain)
    bots = {v: None for v in domain}
    alive = np.ones(nrows, dtype=bool)
    corrupt = part.corrupt if part is not None else frozenset()
    for i, cmd in enumerate(protocol.commands):
        client = computing_client(cmd)
        is_corrupt = client in corrupt and strategy is not None
        if isinstance(cmd, AssertCmd):
            if is_corrupt:
                if i in strategy.abort_at:
                    alive &= False
                continue
            ok = _eval_pred_col(cols, cmd.pred, cmd.client, nrows)
            alive &= ok
            continue
        expr = cmd.expr
        if is_corrupt:
            expr = strategy.rewrite(i, expr)
            if expr is not cmd.expr:
                _check_replacement_visibility(expr, client, part)
        col = _eval_col(cols, expr, client, nrows)
        var = assigned_var(cmd)
        if var in cols:
            raise EvalError(f"{var} assigned twice")
        cols[var] = col
        domain.append(var)
        bots[var] = None if alive.all() else ~alive
    return RunTable(tuple(domain), cols, bots, alive, nrows)


BOT_CODE = 2  # BOT in a value matrix


def value_matrix(table: RunTable, vars_) -> "np.ndarray":
    """(rows, variables) uint8 matrix of the given variables, BOT as BOT_CODE."""
    vars_ = tuple(vars_)
    for v in vars_:
        if v not in table.cols:
            raise UsageError(f"{v} not in run table")
    out = np.empty((table.nrows, len(vars_)), dtype=np.uint8)
    for j, v in enumerate(vars_):
        out[:, j] = table.cols[v]
        bot = table.bots.get(v)
        if bot is not None:
            out[bot, j] = BOT_CODE
    return out


def row_keys(values) -> "np.ndarray":
    """One key per row of a value matrix, for any number of columns: keys
    are equal exactly when rows are, and can be sorted and compared."""
    if not values.shape[1]:
        return np.zeros(len(values), dtype=np.uint8)
    planes = (np.packbits(values & 1, axis=1), np.packbits(values >> 1, axis=1))
    packed = np.ascontiguousarray(np.concatenate(planes, axis=1))
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


def project_counts(table: RunTable, vars_):
    """Exact counts of (value, bot) realizations over the given variables,
    keyed in the order of each realization's first run."""
    values = value_matrix(table, vars_)
    _, first, counts = np.unique(row_keys(values), return_index=True,
                                 return_counts=True)
    order = np.argsort(first)
    rows = values[first[order]]
    has_bot = (rows == BOT_CODE).any(axis=1).tolist()
    keys = rows.tolist()
    for j, key in enumerate(keys):
        # in place, so the row lists and the key tuples are never all held at once
        if has_bot[j]:
            key = [BOT if x == BOT_CODE else x for x in key]
        keys[j] = tuple(key)
    return dict(zip(keys, counts[order].tolist()))


def project_pmf(table: RunTable, vars_):
    from .dist import Pmf

    counts = project_counts(table, vars_)
    return Pmf.from_counts(tuple(vars_), counts, table.nrows)


def to_pmf(table: RunTable):
    return project_pmf(table, table.domain)


def memory_at(table: RunTable, row: int) -> dict:
    out = {}
    for v in table.domain:
        bot = table.bots.get(v)
        if bot is not None and bot[row]:
            out[v] = BOT
        else:
            out[v] = int(table.cols[v][row])
    return out
