"""Vectorized enumeration of all protocol runs: the F_2 engine.

Runs are rows, variables are uint8 columns.  The fold walks the command
list once, evaluating each right-hand side over every run simultaneously;
a failed honest assertion clears the alive flag of the affected rows and
every later assignment is marked BOT there.  Row i is the run of the i-th
initial memory of the reference interpreter's sweep: preprocessing
memories in their memories() order, then coin-flip tapes with the first
flip as the most significant bit.  A projection (project_runs) is a
dist.Pmf as count_runs counts it, its code rows reordered by their first
runs, so distributions built here iterate like those built by the
interpreter; no key tuple is built.  Each command is compiled once per
protocol into a function of the columns (_plan), its references resolved
to variables there, and every fold of that protocol reuses it.

fold(..., block=(lo, hi)) builds only rows lo..hi-1 of the table.  Deal
columns come from the deal's columns() for a whole table and from its
slice_columns(lo, hi) for the memories of a block; flip columns are bits
of the row index.  Bit columns (bit_column, bit_range) are built by tiling
a repeated 0/1 block, with no 64-bit row index, and a column of a block
of at most BLOCK_ROWS rows that is constant or aligned to its bit's
period is one shared read-only array: a block of a tall uniform deal
builds only the columns derived from its bits.  A fold of more than
MAX_RUNS runs raises BudgetError before any column is built.

The passive checks, bd and the pmf text count the runs block by block
(count_runs), so that no whole run table, nor any whole deal column, of a
tall deal is held: each block of BLOCK_ROWS = 2^16 runs is folded and its
rows keyed and counted, and the blocks' counts are merged exactly.  A
table of at most BLOCK_ROWS runs is one block and one count.  This is the
cache-resident vector of MonetDB/X100 (Boncz, Zukowski and Nes, CIDR
2005) applied to the fold: a block's columns are 64 KB, so those an
operation reads and writes stay in a core's 2 MB L2 cache, where whole
columns of 2 MB do not.  The vectors are also reused, as there: a count
folds every full block into one arena (_Arena) that it owns, because
columns freed by one block would be handed back to the system and
faulted in again by the next.  Shared read-only bit columns are never
written into, and the arena never leaves count_runs.  The blocks' counts
merge with no set of the rows seen so far.  Fold plus count of the 12
variables of nimo over the 2^21-run Beaver deal, on a 2-core x86 machine
(Python 3.11, numpy 2.4; median of 3 processes of 15 counts each, and
that process's peak RSS):

    block   whole   2^14    2^15    2^16    2^17    2^18    2^19    2^20
    time    0.12 s  0.11 s  0.07 s  0.06 s  0.05 s  0.05 s  0.05 s  0.07 s
    RSS     142 MB  31 MB   32 MB   34 MB   38 MB   46 MB   63 MB   97 MB

Below 2^16 the fixed cost of a fold and a count per block dominates;
above it the columns leave the cache and the memory grows with the block.

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
does this for one table, and count_runs for the blocks of a fold.  It
keys each run over w bits, 1 per variable, or 2 when a variable has a BOT
mask, and takes one of three paths by input size:
- 2**w at most the runs counted: one integer key per run, counted by
  np.bincount into a dense table of 2**w bins.  This is linear in runs,
  with no sort, and the ascending bins are already in code order.  A tall
  table projected to a few variables (a block of the 2^21-run Beaver deal
  to 12) takes this path.
- otherwise, with w at most 64, the integer keys are sorted by np.unique:
  2^19 random 40-bit keys take 0.023 s as uint64 against 0.23 s as bytes
  on a 2-core x86 machine, or 0.13 s against 0.25 s when first runs are
  asked for, which takes a stable argsort.
- wider keys are sorted as pack_keys: n log n over ceil(w / 8) bytes per
  run, for any number of variables (wide projections, full-joint pmfs).
pack_keys is the one byte-key format: b bits per column, first column most
significant, in big-endian bytes, so byte order is code order, as integer
order is for the integer keys.  Every path unpacks the codes from the
bytes of the distinct keys.  count_runs re-keys code rows with
np.packbits in the same formats (_matrix_keys), and row_keys applies
pack_keys to a code matrix for the verifier's comparisons.
"""

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BudgetError, EvalError, UsageError
from .interp import AdversaryStrategy, _check_replacement_visibility
from .lang import (
    AssertCmd, BinOp, BOT, Cmp, Const, Not, OT, OT4, PAnd, PNot, POr,
    Partition, Protocol, Ref, Var, assigned_var, computing_client, REVEAL,
)


@dataclass
class RunTable:
    domain: tuple          # all variables, initial then assigned
    cols: dict             # var -> uint8 array
    bots: dict             # var -> bool array or None (never BOT)
    alive: "np.ndarray"    # False where the run aborted
    nrows: int


MAX_RUNS = 2 ** 24  # run budget of one fold; the full Beaver deal is 2^21
BLOCK_ROWS = 2 ** 16  # runs folded and counted at once by count_runs


_BIT_PAIR = np.array([0, 1], dtype=np.uint8)
_BIT_PAIR.flags.writeable = False


def bit_column(n: int, i: int) -> "np.ndarray":
    """Bit i of each of 0..n-1 as a uint8 column; n a multiple of 2**(i + 1).
    Tiles a block of 2**i zeros and 2**i ones, with no index array; the
    tiling is np.tile's, without its per-call overhead on small tables."""
    half = 1 << i
    block = _BIT_PAIR.repeat(half)
    return block[None].repeat(n // (2 * half), axis=0).reshape(n)


@functools.lru_cache(maxsize=64)  # at most 4 MB of columns of BLOCK_ROWS
def _shared(n: int, i, value: int = 0) -> "np.ndarray":
    """A read-only column of n entries, built once per argument: bit_column(n,
    i), or value everywhere when i is None.  bit_range calls it unwrapped
    for columns longer than a block."""
    col = np.full(n, value, dtype=np.uint8) if i is None else bit_column(n, i)
    col.flags.writeable = False
    return col


def bit_range(lo: int, hi: int, i: int) -> "np.ndarray":
    """Bit i of each of lo..hi-1 as a uint8 column.  Where the bit is
    constant over the range, or the range is aligned to its period, and
    the range is at most BLOCK_ROWS long, every call shares one read-only
    column: the blocks of a deal then build few columns each."""
    n, half = hi - lo, 1 << i
    value, change = lo >> i & 1, half - lo % half  # bit i at lo, and where it next changes
    make = _shared if n <= BLOCK_ROWS else _shared.__wrapped__  # whole deals are not kept
    if change >= n:
        return make(n, None, value)
    start = lo % (2 * half)
    if not start and not n % (2 * half):
        return make(n, i)
    if half >= n:  # it changes once
        col = np.full(n, value, dtype=np.uint8)
        col[change:] ^= 1
        return col
    return bit_column(-(-(start + n) // (2 * half)) * 2 * half, i)[start:start + n]


def _runs(protocol: Protocol, preproc) -> int:
    """The number of runs, over any field; BudgetError above MAX_RUNS."""
    nrows = preproc.count() * protocol.modulus ** len(protocol.flips())
    if nrows > MAX_RUNS:
        raise BudgetError(f"{nrows} runs exceed the run budget of {MAX_RUNS}")
    return nrows


def _run_columns(protocol: Protocol, preproc, runs: int, lo: int, hi: int, out=None) -> dict:
    """The deal and flip columns of runs lo..hi-1: from the deal's
    columns() for all of them, else from its slice_columns over the
    memories they cover.  Run = memory index * 2**k + tape for k coin
    flips, so flip i is bit k-1-i of the run.  out, if given, is an
    _Arena of hi - lo entries: the deal's derived columns, or its columns
    repeated over the tapes, are written into its buffers."""
    flips = protocol.flips()
    k = len(flips)
    reps = 1 << k
    if (lo, hi) == (0, runs):
        pre = preproc.columns()
    else:
        first, last = lo >> k, ((hi - 1) >> k) + 1
        pre = preproc.slice_columns(first, last, None if k else out)
        if (lo | hi) % reps:  # the runs of each memory inside the range
            reps = np.diff(np.clip(np.arange(first, last + 1) << k, lo, hi))
    if not k:
        cols = {v: pre[v] for v in preproc.domain}
    elif not isinstance(reps, int):
        cols = {v: np.repeat(pre[v], reps) for v in preproc.domain}
    else:  # each memory's entry copied to the rows of its reps tapes
        cols = {}
        for v in preproc.domain:
            cols[v] = np.empty(hi - lo, np.uint8) if out is None else out[v]
            cols[v].reshape(-1, reps)[...] = pre[v][:, None]
    for i, v in enumerate(flips):
        cols[v] = bit_range(lo, hi, k - 1 - i)
    return cols


def _initial_columns(protocol: Protocol, preproc, copies: int = 1, block=None, out=None):
    """The deal and flip columns of the rows lo..hi-1 (block; all rows by
    default) of the runs stacked copies times, row r holding run r % runs:
    (domain, columns, number of rows).  out as for _run_columns, used when
    the rows lie in one copy."""
    runs = _runs(protocol, preproc)
    lo, hi = (0, runs * copies) if block is None else block
    # the runs each copy that the rows cross contributes, each range built once
    pieces = [(max(lo - s * runs, 0), min(hi - s * runs, runs))
              for s in range(lo // runs, -(-hi // runs))]
    if len(pieces) == 1:
        return tuple(preproc.domain) + protocol.flips(), \
            _run_columns(protocol, preproc, runs, *pieces[0], out), hi - lo
    built = {p: _run_columns(protocol, preproc, runs, *p) for p in dict.fromkeys(pieces)}
    cols = {v: np.concatenate([built[p][v] for p in pieces]) for v in built[pieces[0]]}
    return tuple(preproc.domain) + protocol.flips(), cols, hi - lo


_BINOPS = {"+": np.bitwise_xor, "-": np.bitwise_xor, "xor": np.bitwise_xor,
           "*": np.bitwise_and, "and": np.bitwise_and, "or": np.bitwise_or}


def _filled(n: int, value, out=None, dtype=np.uint8) -> "np.ndarray":
    """A column of n entries of dtype, each value: out, filled, if given."""
    if out is None:
        return np.full(n, value, dtype=dtype)
    out.fill(value)
    return out


def _compile(e, client: int):
    """A function (cols, nrows, out=None) -> the column of expression e
    evaluated by client over the runs, each Ref resolved to its Var here,
    once.  A bare Ref gives the variable's own column; any other
    expression gives out, written in place, or a fresh column if out is
    None.  A compound left operand is evaluated into that column and the
    operation runs in place there; a compound right operand takes a fresh
    column."""
    if isinstance(e, Const):
        if e.value not in (0, 1):
            raise EvalError(f"constant {e.value} out of range for F_2")
        return lambda cols, n, out=None: _filled(n, e.value, out)
    if isinstance(e, Ref):
        var = Var(e.kind, e.name, None if e.kind == REVEAL else client)

        def read(cols, n, out=None):
            col = cols.get(var)
            if col is None:
                raise EvalError(f"{var} unbound")
            return col
        return read
    if isinstance(e, BinOp):
        if e.op not in _BINOPS:
            raise EvalError(f"unknown operator {e.op}")
        op, a, b = _BINOPS[e.op], _compile(e.left, client), _compile(e.right, client)
        if isinstance(e.left, Ref):
            return lambda cols, n, out=None: op(a(cols, n), b(cols, n), out=out)

        def into_left(cols, n, out=None):
            x = a(cols, n, out)
            return op(x, b(cols, n), out=x)
        return into_left
    if isinstance(e, Not):
        a = _compile(e.operand, client)
        if isinstance(e.operand, Ref):
            return lambda cols, n, out=None: np.bitwise_xor(a(cols, n), np.uint8(1), out=out)

        def negated(cols, n, out=None):
            x = a(cols, n, out)
            return np.bitwise_xor(x, np.uint8(1), out=x)
        return negated
    if isinstance(e, OT):
        c = _compile(e.choice, e.receiver)
        a, b = _compile(e.if1, client), _compile(e.if0, client)

        def ot(cols, n, out=None):
            pick = c(cols, n) == 1
            if1, if0 = a(cols, n), b(cols, n)
            out = np.empty(n, dtype=np.uint8) if out is None else out
            np.copyto(out, if0)
            np.copyto(out, if1, where=pick)
            return out
        return ot
    if isinstance(e, OT4):
        c1, c2 = _compile(e.c1, e.receiver), _compile(e.c2, e.receiver)
        rows = [_compile(r, client) for r in e.rows]

        def ot4(cols, n, out=None):
            sel = (c1(cols, n) << 1) | c2(cols, n)  # (1,1)->3, (1,0)->2, (0,1)->1, (0,0)->0
            out = np.empty(n, dtype=np.uint8) if out is None else out
            np.copyto(out, rows[3](cols, n))  # (0,0)
            np.copyto(out, rows[2](cols, n), where=sel == 1)
            np.copyto(out, rows[1](cols, n), where=sel == 2)
            np.copyto(out, rows[0](cols, n), where=sel == 3)
            return out
        return ot4
    raise EvalError(f"not an expression: {e!r}")


def _compile_pred(pred, client: int):
    """_compile for an assertion predicate: a function giving a bool
    column, out (a bool buffer) if given, else a fresh one."""
    if isinstance(pred, Cmp):
        a, b = _compile(pred.left, client), _compile(pred.right, client)
        op = np.equal if pred.op == "==" else np.not_equal
        return lambda cols, n, out=None: op(a(cols, n), b(cols, n), out=out)
    if isinstance(pred, (PAnd, POr)):
        op = np.logical_and if isinstance(pred, PAnd) else np.logical_or
        a, b = _compile_pred(pred.left, client), _compile_pred(pred.right, client)

        def both(cols, n, out=None):
            x = a(cols, n, out)
            return op(x, b(cols, n), out=x)
        return both
    if isinstance(pred, PNot):
        a = _compile_pred(pred.operand, client)

        def negated(cols, n, out=None):
            x = a(cols, n, out)
            return np.logical_not(x, out=x)
        return negated
    raise EvalError(f"not a predicate: {pred!r}")


# the protocol last folded and its plan; holding the protocol keeps its
# identity from passing to another object, so identity is a sound key
_compiled = (None, ())


def _plan(protocol: Protocol) -> tuple:
    """Per command of the protocol: its computing client, its compiled
    expression or predicate and the variable it assigns (None for an
    assertion).  Kept for the last protocol folded, so the blocks of one
    count compile it once."""
    global _compiled
    if _compiled[0] is not protocol:
        plan = []
        for cmd in protocol.commands:
            client = computing_client(cmd)
            if isinstance(cmd, AssertCmd):
                plan.append((client, _compile_pred(cmd.pred, client), None))
            else:
                plan.append((client, _compile(cmd.expr, client), assigned_var(cmd)))
        _compiled = (protocol, tuple(plan))
    return _compiled[1]


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


class _Arena(dict):
    """The columns of count_runs' blocks of n runs: one uint8 buffer per
    key (a variable, or a name of fold's own), made on first use and
    rewritten by every later block, so a block allocates no column of
    its table.  Never returned: count_runs keeps only the counts."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, key):  # a uint8 column, as slice_columns and the commands write
        return self.of(key, np.uint8)

    def of(self, key, dtype) -> "np.ndarray":
        """The buffer of n entries of dtype kept under key."""
        buf = self.get(key)
        if buf is None:
            buf = self[key] = np.empty(self.n, dtype=dtype)
        return buf


def fold(protocol: Protocol, preproc, strategy=None,
         part: Partition = None, block=None, arena=None) -> RunTable:
    """The run table of the protocol: passive with no strategy, else under
    an AdversaryStrategy or every strategy of a Family, stacked (see the
    module docstring).  With block = (lo, hi), only the rows lo..hi-1 of
    that table, as a table of hi - lo rows.  arena, an _Arena of that many
    entries, is given by count_runs alone: the table's columns and masks
    are then its buffers, valid until the next fold into it."""
    if protocol.modulus != 2:
        raise UsageError("the vectorized engine requires F_2")
    if isinstance(strategy, AdversaryStrategy):
        strategy = family_of([strategy])
    copies = 1 if strategy is None else len(strategy.choice)
    domain, cols, nrows = _initial_columns(protocol, preproc, copies, block, arena)

    def bools(key):  # the arena's bool buffer for key, None without an arena
        return None if arena is None else arena.of(key, bool)

    if strategy is not None:
        # the rows of each strategy the block crosses, row r being strategy r // runs
        runs, lo = _runs(protocol, preproc), 0 if block is None else block[0]
        s0 = lo // runs
        reps = np.diff(np.clip(np.arange(s0, -(-(lo + nrows) // runs) + 1) * runs,
                               lo, lo + nrows))

        def per_row(x):
            return np.repeat(x[s0:s0 + len(reps)], reps)
    domain = list(domain)
    bots = {v: None for v in domain}
    alive = _filled(nrows, True, bools("alive"), bool)
    dead = None  # the BOT mask of later assignments, one array until alive changes
    corrupt = part.corrupt if part is not None else frozenset()
    for i, (client, compiled, var) in enumerate(_plan(protocol)):
        is_corrupt = client in corrupt and strategy is not None
        if var is None:  # an assertion
            if not is_corrupt:
                alive &= compiled(cols, nrows, bools("holds"))
            elif i in strategy.aborts:
                j = len(strategy.positions) + strategy.aborts.index(i)
                alive &= per_row(strategy.choice[:, j] == 0)
            dead = None if alive.all() else np.logical_not(alive, out=bools(("dead", i)))
            continue
        col = compiled(cols, nrows, None if arena is None or var in cols else arena[var])
        if is_corrupt and i in strategy.positions:
            j = strategy.positions.index(i)
            choice = strategy.choice[:, j]
            for k in np.unique(choice[choice > 0]).tolist():
                expr = strategy.options[j][k - 1]
                if expr is not protocol.commands[i].expr:
                    _check_replacement_visibility(expr, client, part)
                col = np.where(per_row(choice == k), _compile(expr, client)(cols, nrows), col)
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


def row_keys(values, bits: int = 2) -> "np.ndarray":
    """pack_keys of the columns of a code matrix, bits bits per column,
    made row by row by np.packbits."""
    n, ncols = values.shape
    if not ncols:
        return pack_keys((), bits, n)
    planes = values if bits == 1 else \
        np.stack([values >> 1, values & 1], axis=2).reshape(n, 2 * ncols)
    packed = np.packbits(planes, axis=1)
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


def _column_keys(columns, bits: int, ncols: int, n: int, out=None) -> "np.ndarray":
    """One key per run from an iterable of ncols n-long uint8 code columns:
    while bits * ncols fits 64 bits, an unsigned integer of bits bits a
    column, first column most significant; else pack_keys.  out, if
    given, is an n-entry integer buffer wide enough to build them in."""
    width = bits * ncols
    if width > 64:
        return pack_keys(columns, bits, n)
    keys = _filled(n, 0, out, np.min_scalar_type(2 ** width - 1))
    for code in columns:
        keys <<= bits
        keys |= code
    return keys


def _matrix_keys(codes, bits: int) -> "np.ndarray":
    """_column_keys of the columns of a code matrix: its row_keys, read as
    a big-endian integer with the key right-aligned while it fits 64 bits."""
    keys, width = row_keys(codes, bits), bits * codes.shape[1]
    if width > 64:
        return keys
    dtype = np.min_scalar_type(2 ** width - 1)
    wide = np.zeros((len(keys), dtype.itemsize), dtype=np.uint8)
    wide[:, dtype.itemsize - keys.itemsize:] = keys.view(np.uint8).reshape(len(keys), -1)
    keys = wide.view(dtype.newbyteorder(">")).ravel() >> (8 * keys.itemsize - width)
    return keys.astype(dtype)


def _unpack(keys, bits: int, ncols: int) -> "np.ndarray":
    """The code rows of keys in _column_keys' format, as a uint8 matrix:
    the key bytes unpacked by np.unpackbits, with no wider matrix."""
    width = bits * ncols
    if keys.dtype.kind == "V":
        raw = keys.view(np.uint8).reshape(len(keys), keys.itemsize)
        planes = np.unpackbits(raw, axis=1, count=width)
    else:
        big = keys.astype(keys.dtype.newbyteorder(">"))
        raw = big.view(np.uint8).reshape(len(keys), keys.itemsize)
        planes = np.unpackbits(raw, axis=1)[:, 8 * keys.itemsize - width:]
    return planes if bits == 1 else (planes[:, 0::2] << 1) | planes[:, 1::2]


def _distinct(keys, bits: int, ncols: int, first: bool):
    """The distinct code rows of runs keyed by _column_keys, in code order:
    (codes, counts, first), first the index of each one's first run if
    asked for, else None.  The module docstring says which counting path
    a call takes, and why."""
    n = len(keys)
    if keys.dtype.kind != "V" and 2 ** (bits * ncols) <= n:
        counts = np.bincount(keys, None, 2 ** (bits * ncols))
        found = _first_bins(keys, len(counts)) if first else None
        keys = np.flatnonzero(counts)
        counts, found = counts[keys], found[keys] if first else None
    else:
        keys, *found, counts = np.unique(keys, return_index=first, return_counts=True)
        found = found[0] if first else None
    return _unpack(keys, bits, ncols), counts, found


def _first_bins(keys, size: int) -> "np.ndarray":
    """For each of size integer keys, the index of its first run in keys
    (len(keys) where it has none)."""
    found = np.full(size, len(keys), dtype=np.intp)
    np.minimum.at(found, keys, np.arange(len(keys)))
    return found


def _code_columns(table: RunTable, vars_, rows=None, lead=()):
    """The code columns over lead, then vars_, of the runs in the bool
    mask rows (all by default), as _column_keys takes them: (an iterator
    of the columns, bits per column, number of columns, runs).  A column
    takes 2 bits where some variable has a BOT mask."""
    vars_ = _check_vars(table, vars_)
    bits = 2 if any(table.bots.get(v) is not None for v in vars_) else 1
    n = table.nrows if rows is None else int(np.count_nonzero(rows))
    columns = [c if rows is None else c[rows] for c in lead]
    columns = itertools.chain(columns, (_code(table, v, rows) for v in vars_))
    return columns, bits, len(lead) + len(vars_), n


def distinct_rows(table: RunTable, vars_, rows=None, lead=(), first=True):
    """The distinct code rows over vars_ (columns in the given order) of
    the runs in the bool mask rows (all by default), in code order: 0 < 1
    < BOT_CODE, first column most significant.  lead holds 0/1 columns,
    one entry per run of the table, put before those of vars_.  Returns
    (codes, counts, first): a (distinct rows, len(lead) + len(vars_))
    uint8 matrix, each row's run count and, if first is true, the index
    of its first counted run (else None: the sort then needs no stable
    argsort)."""
    columns, bits, ncols, n = _code_columns(table, vars_, rows, lead)
    return _distinct(_column_keys(columns, bits, ncols, n), bits, ncols, first)


def _merge(keys, counts, first):
    """The distinct keys of entries (keys, counts, first runs; first may
    be None), in key order, each entry's counts added and its first run
    the least: one stable sort, then a sum and a minimum per run of
    equal keys."""
    if len(keys) < 2:
        return keys, counts, first
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    first = None if first is None else np.minimum.reduceat(first[order], starts)
    return keys[starts], np.add.reduceat(counts[order], starts), first


def count_runs(protocol: Protocol, preproc, vars_, strategy=None, part=None,
               rows=None, lead=None, first=True):
    """distinct_rows over vars_ of the runs of fold(protocol, preproc,
    strategy, part), folded and counted BLOCK_ROWS runs at a time, so that
    no whole run table is held.  rows(table) and lead(table), if given,
    are a block's row mask and lead columns.  A table of at most
    BLOCK_ROWS runs is one fold and one distinct_rows; a taller one is
    folded block by block into one _Arena and its counts merged exactly
    by key width, so the result is distinct_rows' over the whole table.
    A width of w bits with 2**w <= BLOCK_ROWS adds each block into one
    running table of 2**w bins, a block that first reaches some bins
    giving their first runs; a wider one keeps each block's distinct
    keys and merges them at the end (_merge).  Blocks with BOT key 2
    bits a column and those without 1 bit: where both occur, the 1-bit
    rows are re-keyed at 2 bits at the end, on their distinct rows."""
    if isinstance(strategy, AdversaryStrategy):
        strategy = family_of([strategy])
    nrows = _runs(protocol, preproc) * (1 if strategy is None else len(strategy.choice))

    def counted(table):
        return _code_columns(table, vars_, None if rows is None else rows(table),
                             () if lead is None else lead(table))

    if nrows <= BLOCK_ROWS:
        columns, bits, ncols, n = counted(fold(protocol, preproc, strategy, part))
        return _distinct(_column_keys(columns, bits, ncols, n), bits, ncols, first)
    arena = _Arena(BLOCK_ROWS)
    dense = {}   # bits -> running (counts, first runs or -1) of each key, while 2**w <= BLOCK_ROWS
    sparse = {}  # bits -> each block's (distinct keys, counts, first runs), for wider keys
    done = 0     # runs counted in earlier blocks
    for lo in range(0, nrows, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, nrows)
        table = fold(protocol, preproc, strategy, part, (lo, hi),
                     arena if hi - lo == BLOCK_ROWS else None)
        columns, bits, ncols, n = counted(table)
        size = 2 ** (bits * ncols)
        if size <= BLOCK_ROWS:
            dtype = np.min_scalar_type(size - 1)
            keys = _column_keys(columns, bits, ncols, n, arena.of(("keys", dtype), dtype)[:n])
            if bits not in dense:
                dense[bits] = np.zeros(size, dtype=np.int64), np.full(size, -1, dtype=np.intp)
            total, found = dense[bits]
            block = np.bincount(keys, minlength=size)
            total += block
            if first:
                new = (block > 0) & (found < 0)  # bins this block reaches first
                if new.any():
                    found[new] = _first_bins(keys, size)[new] + done
        else:
            keys = _column_keys(columns, bits, ncols, n)
            keys, *found, counts = np.unique(keys, return_index=first, return_counts=True)
            sparse.setdefault(bits, []).append((keys, counts, found[0] + done if first else None))
        done += n
    merged = {}  # bits -> (distinct keys, counts, first runs) of that key width's blocks
    for bits, (total, found) in dense.items():
        keys = np.flatnonzero(total)
        merged[bits] = keys, total[keys], found[keys] if first else None
    for bits, blocks in sparse.items():
        keys, counts, found = zip(*blocks)
        merged[bits] = _merge(np.concatenate(keys), np.concatenate(counts),
                              np.concatenate(found) if first else None)
    if len(merged) == 2:  # blocks with BOT and without: the rows of those without at 2 bits
        keys, counts, found = merged.pop(1)
        wide = merged[2]
        merged[2] = _merge(np.concatenate([_matrix_keys(_unpack(keys, 1, ncols), 2), wide[0]]),
                           np.concatenate([counts, wide[1]]),
                           np.concatenate([found, wide[2]]) if first else None)
    (bits, (keys, counts, found)), = merged.items()
    return _unpack(keys, bits, ncols), counts, found


def _first_run_order(vars_, codes, counts, first, total: int):
    """Distinct rows as a dist.Pmf over vars_, in the order of their first runs."""
    from .dist import Pmf

    order = np.argsort(first)
    return Pmf(tuple(vars_), codes[order], counts[order], total)


def project_runs(protocol: Protocol, preproc, vars_, strategy=None, part=None):
    """The runs of fold(protocol, preproc, strategy, part) over vars_ as a
    dist.Pmf, counted block by block (count_runs), its distinct rows in the
    order of their first runs."""
    codes, counts, first = count_runs(protocol, preproc, vars_, strategy, part)
    return _first_run_order(vars_, codes, counts, first, int(counts.sum()))


def project_counts(table: RunTable, vars_):
    """Exact counts of (value, bot) realizations over the given variables
    of one run table, keyed in the order of each realization's first run,
    with key tuples built only for the distinct rows."""
    p = _first_run_order(vars_, *distinct_rows(table, vars_), table.nrows)
    return dict(zip(p.keys(), p.counts.tolist()))


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
