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

A strategy family folds as stacked runs, in the way parallel fault
simulation runs many faults in one pass.  family_of turns a sequence of
AdversaryStrategy into a Family: a matrix of option indices, strategies
by tampered positions, with one tuple of replacement expressions per
position and one 0/1 column per assertion some strategy halts at.  One
fold of a Family of s strategies over n runs builds the deal once, tiles
it s times, and gives s * n rows: row r is run r % n of strategy r // n.
A tampered command's column is the command's own where a row's option is
0 and the evaluated option expression elsewhere; a halting row is dead
from its assertion on, and corrupt assertions are otherwise skipped.  A
single AdversaryStrategy folds as a Family of one.  chunks cuts a family
into pieces of whole strategies, of about CHUNK_ROWS stacked runs but at
most an eighth of the family, so that a large family amortizes the fixed
cost of a fold while a small one holds only a few strategies' tables at
once.  Before the first chunk, a family of more than MAX_STACKED_RUNS
stacked runs (strategies times runs) raises BudgetError.

Every check counts the distinct rows of codes over some variables: a
variable's code is its value, or BOT_CODE where it is BOT.  distinct_rows
does this for every check (project gives the passive checks their
dist.Counts), for bd and for the pmf text (dist.write_pmf).  It keys each
run over w bits, 1 per variable, or 2 when a variable has a BOT mask, and
takes one of three paths by input size:
- 2**w at most the runs counted: one integer key per run, counted by
  np.bincount into a dense table of 2**w bins.  This is linear in runs,
  with no sort, and the ascending bins are already in code order.  A tall
  table projected to a few variables (the 2^21-run Beaver deal to 12)
  takes this path.
- otherwise, with w at most 64, the integer keys are sorted by np.unique:
  2^19 random 40-bit keys take 0.023 s as uint64 against 0.23 s as bytes
  on a 2-core x86 machine, or 0.13 s against 0.25 s when first runs are
  asked for, which takes a stable argsort.
- wider keys are sorted as pack_keys: n log n over ceil(w / 8) bytes per
  run, for any number of variables (wide projections, full-joint pmfs).
pack_keys is the one byte-key format: b bits per column, first column most
significant, in big-endian bytes, so byte order is code order, as integer
order is for the integer keys.  Every path unpacks the codes from the
distinct keys.  row_keys applies pack_keys to a code matrix for the
verifier's comparisons.
"""

import itertools
from dataclasses import dataclass
from typing import NamedTuple

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


def _runs(protocol: Protocol, preproc) -> int:
    """The number of runs; BudgetError above MAX_RUNS."""
    nrows = preproc.count() * 2 ** len(protocol.flips())
    if nrows > MAX_RUNS:
        raise BudgetError(f"{nrows} runs exceed the run budget of {MAX_RUNS}")
    return nrows


def _initial_columns(protocol: Protocol, preproc, copies: int = 1):
    """The deal and flip columns of the runs, tiled copies times."""
    nrows = _runs(protocol, preproc)
    flips = protocol.flips()
    ntape = 2 ** len(flips)
    pre_cols = preproc.columns()
    if ntape == 1:
        cols = {v: pre_cols[v] for v in preproc.domain}
    else:
        cols = {v: np.repeat(pre_cols[v], ntape) for v in preproc.domain}
    # row = memory index * ntape + tape, so flip i is bit k-1-i of the row
    k = len(flips)
    for i, v in enumerate(flips):
        cols[v] = bit_column(nrows, k - 1 - i)
    if copies > 1:
        cols = {v: np.tile(col, copies) for v, col in cols.items()}
    domain = tuple(preproc.domain) + flips
    return domain, cols, nrows * copies


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


class Family(NamedTuple):
    """Adversary strategies as one matrix.  Column j < len(positions) of
    choice is each strategy's option at command positions[j]: 0 keeps the
    command, k > 0 replaces it with options[j][k - 1].  The next columns
    are 1 where the strategy halts at the assertion of that index of
    aborts."""

    positions: tuple
    options: tuple
    aborts: tuple
    choice: "np.ndarray"


def family_of(strategies) -> Family:
    """The Family of a sequence of AdversaryStrategy.  A position's options
    are the expression objects placed there, in order of first use."""
    positions = tuple(sorted({i for s in strategies for i, _ in s.replacements}))
    aborts = tuple(sorted(set().union(*(s.abort_at for s in strategies))))
    options = tuple([] for _ in positions)
    slot: dict = {}  # (position, id of expression) -> (column, option)
    rows = []
    for s in strategies:
        row = [0] * len(positions) + [int(i in s.abort_at) for i in aborts]
        for i, e in reversed(s.replacements):  # so the first at a position wins
            at = slot.get((i, id(e)))
            if at is None:
                j = positions.index(i)
                options[j].append(e)
                at = slot[i, id(e)] = (j, len(options[j]))
            row[at[0]] = at[1]
        rows.append(row)
    choice = np.array(rows, dtype=np.intp).reshape(len(rows), len(positions) + len(aborts))
    return Family(positions, tuple(map(tuple, options)), aborts, choice)


MAX_STACKED_RUNS = 2 ** 30  # strategies x runs of one family: minutes at ~6M runs/s
CHUNK_ROWS = 2 ** 19  # stacked runs folded at once, rounded to whole strategies
# a family spreads over at least this many chunks (of one strategy or more),
# so a small family holds a few strategies' tables at once, not all of them
MIN_CHUNKS = 8


def chunks(protocol: Protocol, preproc, family: Family) -> list:
    """The family cut into pieces of whole strategies, about CHUNK_ROWS
    stacked runs or an eighth (MIN_CHUNKS) of the family, whichever is
    less: pairs (index of its first strategy, sub-family).  BudgetError
    first if the runs of one strategy exceed MAX_RUNS or the family's
    stacked runs exceed MAX_STACKED_RUNS."""
    runs, n = _runs(protocol, preproc), len(family.choice)
    if n * runs > MAX_STACKED_RUNS:
        raise BudgetError(f"{n} strategies of {runs} runs exceed the "
                          f"stacked-run budget of {MAX_STACKED_RUNS}")
    step = max(1, min(CHUNK_ROWS // runs, -(-n // MIN_CHUNKS)))
    return [(lo, family._replace(choice=family.choice[lo:lo + step]))
            for lo in range(0, n, step)]


def fold(protocol: Protocol, preproc, strategy=None,
         part: Partition = None) -> RunTable:
    """The run table of the protocol: passive with no strategy, else under
    an AdversaryStrategy or every strategy of a Family, stacked (see the
    module docstring)."""
    if protocol.modulus != 2:
        raise UsageError("the vectorized engine requires F_2")
    if isinstance(strategy, AdversaryStrategy):
        strategy = family_of([strategy])
    copies = 1 if strategy is None else len(strategy.choice)
    domain, cols, nrows = _initial_columns(protocol, preproc, copies)
    runs = nrows // copies
    domain = list(domain)
    bots = {v: None for v in domain}
    alive = np.ones(nrows, dtype=bool)
    dead = None  # the BOT mask of later assignments, one array until alive changes
    corrupt = part.corrupt if part is not None else frozenset()
    for i, cmd in enumerate(protocol.commands):
        client = computing_client(cmd)
        is_corrupt = client in corrupt and strategy is not None
        if isinstance(cmd, AssertCmd):
            if not is_corrupt:
                alive &= _eval_pred_col(cols, cmd.pred, cmd.client, nrows)
            elif i in strategy.aborts:
                j = len(strategy.positions) + strategy.aborts.index(i)
                alive &= (strategy.choice[:, j] == 0).repeat(runs)
            dead = None if alive.all() else ~alive
            continue
        col = _eval_col(cols, cmd.expr, client, nrows)
        if is_corrupt and i in strategy.positions:
            j = strategy.positions.index(i)
            choice = strategy.choice[:, j]
            for k in np.unique(choice[choice > 0]).tolist():
                expr = strategy.options[j][k - 1]
                if expr is not cmd.expr:
                    _check_replacement_visibility(expr, client, part)
                col = np.where((choice == k).repeat(runs),
                               _eval_col(cols, expr, client, nrows), col)
        var = assigned_var(cmd)
        if var in cols:
            raise EvalError(f"{var} assigned twice")
        cols[var] = col
        domain.append(var)
        bots[var] = dead
    return RunTable(tuple(domain), cols, bots, alive, nrows)


BOT_CODE = 2  # BOT in a value matrix and in a run key


def _check_vars(table: RunTable, vars_) -> tuple:
    vars_ = tuple(vars_)
    for v in vars_:
        if v not in table.cols:
            raise UsageError(f"{v} not in run table")
    return vars_


def _code(table: RunTable, v, rows=None) -> "np.ndarray":
    """Variable v's codes over the runs in the bool mask rows (all by
    default): its value, BOT_CODE where it is BOT."""
    col = table.cols[v] if rows is None else table.cols[v][rows]
    bot = table.bots.get(v)
    if bot is None:
        return col
    # a value is 0 or 1, so the larger of it and BOT_CODE * bot is the code
    return np.maximum(col, (bot if rows is None else bot[rows]).view(np.uint8) * np.uint8(BOT_CODE))


def pack_keys(columns, bits: int, n: int) -> "np.ndarray":
    """One void key per run from an iterable of n-long uint8 code columns:
    bits bits per column, first column most significant, in big-endian
    bytes (one zero byte with no column).  Keys of one shape are equal
    exactly when the code rows are, and sort in code order.  The columns
    are read one at a time, so an iterator of them is never all held."""
    per = 8 // bits
    planes = []
    for j, code in enumerate(columns):
        byte, at = divmod(j, per)
        if not at:
            planes.append(np.zeros(n, dtype=np.uint8))
        planes[byte] |= code << np.uint8(8 - bits * (at + 1))
    packed = np.stack(planes, axis=1) if planes else np.zeros((n, 1), dtype=np.uint8)
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


def row_keys(values) -> "np.ndarray":
    """pack_keys of the rows of a value matrix, 2 bits per column."""
    return pack_keys(values.T, 2, len(values))


def distinct_rows(table: RunTable, vars_, rows=None, lead=(), first=True):
    """The distinct code rows over vars_ (columns in the given order) of
    the runs in the bool mask rows (all by default), in code order: 0 < 1
    < BOT_CODE, first column most significant.  lead holds 0/1 columns,
    one entry per run of the table, put before those of vars_.  Returns
    (codes, counts, first): a (distinct rows, len(lead) + len(vars_))
    uint8 matrix, each row's run count and, if first is true, the index
    of its first counted run (else None: the sort then needs no stable
    argsort).  The module docstring says which counting path a call
    takes, and why."""
    vars_ = _check_vars(table, vars_)
    bits = 2 if any(table.bots.get(v) is not None for v in vars_) else 1
    ncols = len(lead) + len(vars_)
    width = bits * ncols
    n = table.nrows if rows is None else int(np.count_nonzero(rows))
    columns = [c if rows is None else c[rows] for c in lead]
    columns = itertools.chain(columns, (_code(table, v, rows) for v in vars_))
    if width > 64:
        keys, *found, counts = np.unique(pack_keys(columns, bits, n),
                                         return_index=first, return_counts=True)
        codes = np.unpackbits(keys.view(np.uint8).reshape(len(keys), keys.itemsize),
                              axis=1, count=width)
        if bits == 2:
            codes = (codes[:, 0::2] << 1) | codes[:, 1::2]
        return codes, counts, found[0] if first else None
    keys = np.zeros(n, dtype=np.min_scalar_type(2 ** width - 1))
    for code in columns:
        keys <<= bits
        keys |= code
    if 2 ** width <= n:
        counts = np.bincount(keys, minlength=2 ** width)
        if first:
            found = np.full(len(counts), n, dtype=np.intp)
            np.minimum.at(found, keys, np.arange(n))
        keys = np.flatnonzero(counts)
        counts, found = counts[keys], [found[keys]] if first else []
    else:
        keys, *found, counts = np.unique(keys, return_index=first, return_counts=True)
    shifts = (bits * np.arange(ncols - 1, -1, -1)).astype(keys.dtype)
    codes = ((keys[:, None] >> shifts) & (2 ** bits - 1)).astype(np.uint8)
    return codes, counts, found[0] if first else None


def project(table: RunTable, vars_):
    """The runs of the table over vars_ as a dist.Counts, its distinct rows
    in the order of their first runs."""
    from .dist import Counts

    codes, counts, first = distinct_rows(table, vars_)
    order = np.argsort(first)
    return Counts(tuple(vars_), codes[order], counts[order], table.nrows)


def project_counts(table: RunTable, vars_):
    """Exact counts of (value, bot) realizations over the given variables,
    keyed in the order of each realization's first run, with key tuples
    built only for the distinct rows."""
    return project(table, vars_).to_pmf().counts


def rows_matching(table: RunTable, memory: dict) -> "np.ndarray":
    """Bool mask of the runs where every variable of the partial memory
    holds its value (never BOT)."""
    rows = np.ones(table.nrows, dtype=bool)
    for v, x in memory.items():
        rows &= table.cols[v] == x
        bot = table.bots.get(v)
        if bot is not None:
            rows &= ~bot
    return rows


def memory_at(table: RunTable, row: int) -> dict:
    out = {}
    for v in table.domain:
        bot = table.bots.get(v)
        if bot is not None and bot[row]:
            out[v] = BOT
        else:
            out[v] = int(table.cols[v][row])
    return out
