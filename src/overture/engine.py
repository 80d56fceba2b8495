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

Deal and flip columns are built as bit columns (bit_column) by tiling a
repeated 0/1 block, with no 64-bit row index; without flips the deal's
columns are used as they are.  A fold of more than MAX_RUNS runs raises
BudgetError before any column is built.

project_counts keys each run over w key bits: 1 bit per variable, or 2
when a projected variable has a BOT mask, BOT_CODE written over BOT rows.
With 2**w at most the row count it counts one uint32 key per run with a
dense np.bincount (linear in rows); otherwise it sorts packed void keys of
the value matrix (row_keys), 2 * ceil(vars / 8) bytes per row (n log n).
"""

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, EvalError, UsageError
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


MAX_RUNS = 2 ** 24  # run budget of one fold; the full Beaver deal is 2^21


_BIT_PAIR = np.array([0, 1], dtype=np.uint8)
_BIT_PAIR.flags.writeable = False


def bit_column(n: int, i: int) -> "np.ndarray":
    """Bit i of each of 0..n-1 as a uint8 column; n a multiple of 2**(i + 1).
    Tiles a block of 2**i zeros and 2**i ones, with no index array; the
    tiling is np.tile's, without its per-call overhead on small tables."""
    half = 1 << i
    block = _BIT_PAIR.repeat(half)
    return block[None].repeat(n // (2 * half), axis=0).reshape(n)


def _initial_columns(protocol: Protocol, preproc):
    npre = preproc.count()
    flips = protocol.flips()
    ntape = 2 ** len(flips)
    nrows = npre * ntape
    if nrows > MAX_RUNS:
        raise BudgetError(f"{nrows} runs exceed the run budget of {MAX_RUNS}")
    pre_cols = preproc.columns()
    if ntape == 1:
        cols = {v: pre_cols[v] for v in preproc.domain}
    else:
        cols = {v: np.repeat(pre_cols[v], ntape) for v in preproc.domain}
    # row = memory index * ntape + tape, so flip i is bit k-1-i of the row
    k = len(flips)
    for i, v in enumerate(flips):
        cols[v] = bit_column(nrows, k - 1 - i)
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


def _check_vars(table: RunTable, vars_) -> tuple:
    vars_ = tuple(vars_)
    for v in vars_:
        if v not in table.cols:
            raise UsageError(f"{v} not in run table")
    return vars_


def _values_at(table: RunTable, vars_, rows) -> "np.ndarray":
    """(rows, variables) uint8 matrix at an index array of rows or at
    slice(None), BOT as BOT_CODE."""
    n = table.nrows if isinstance(rows, slice) else len(rows)
    out = np.empty((n, len(vars_)), dtype=np.uint8)
    for j, v in enumerate(vars_):
        out[:, j] = table.cols[v][rows]
        bot = table.bots.get(v)
        if bot is not None:
            out[bot[rows], j] = BOT_CODE
    return out


def value_matrix(table: RunTable, vars_) -> "np.ndarray":
    """(rows, variables) uint8 matrix of the given variables, BOT as BOT_CODE."""
    return _values_at(table, _check_vars(table, vars_), slice(None))


def row_keys(values) -> "np.ndarray":
    """One key per row of a value matrix, for any number of columns: keys
    are equal exactly when rows are, and can be sorted and compared."""
    if not values.shape[1]:
        return np.zeros(len(values), dtype=np.uint8)
    planes = (np.packbits(values & 1, axis=1), np.packbits(values >> 1, axis=1))
    packed = np.ascontiguousarray(np.concatenate(planes, axis=1))
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


def _int_keys(table: RunTable, vars_, bits: int) -> "np.ndarray":
    """One uint32 per row: variable j's code (its value, or BOT_CODE) at
    bits j*bits and up.  Needs F_2 columns and 2**(len(vars_) * bits) at
    most the row count, so the key fits in 32 bits."""
    keys = np.zeros(table.nrows, dtype=np.uint32)
    code = np.empty(table.nrows, dtype=np.uint32)
    for j, v in enumerate(vars_):
        np.copyto(code, table.cols[v])
        bot = table.bots.get(v)
        if bot is not None:
            code[bot] = BOT_CODE
        code <<= np.uint32(j * bits)
        keys |= code
    return keys


def project_counts(table: RunTable, vars_):
    """Exact counts of (value, bot) realizations over the given variables,
    keyed in the order of each realization's first run.

    Over w = b * len(vars_) key bits, with b = 2 if a projected variable
    has a BOT mask and b = 1 otherwise:
    - 2**w <= rows: np.bincount of one integer key per run into a dense
      table of 2**w counts, first runs by np.minimum.at; linear in rows;
    - otherwise: np.unique on packed row_keys of the value matrix; one sort
      of void keys of 2 * ceil(len(vars_) / 8) bytes.
    Key tuples are built only for the first run of each realization."""
    vars_ = _check_vars(table, vars_)
    bits = 2 if any(table.bots.get(v) is not None for v in vars_) else 1
    width = bits * len(vars_)
    if 2 ** width <= table.nrows:
        keys = _int_keys(table, vars_, bits)
        counts = np.bincount(keys, minlength=2 ** width)
        first = np.full(len(counts), table.nrows, dtype=np.intp)
        np.minimum.at(first, keys, np.arange(table.nrows))
        seen = counts > 0
        first, counts = first[seen], counts[seen]
    else:
        _, first, counts = np.unique(row_keys(value_matrix(table, vars_)),
                                     return_index=True, return_counts=True)
    order = np.argsort(first)
    rows = _values_at(table, vars_, first[order])
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
