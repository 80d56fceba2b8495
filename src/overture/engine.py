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
interpreter; no key tuple is built.

fold runs a program compiled once per protocol (_compile, kept by _program
for the last protocol folded passively and the last family): straight-line
code over integer slots, each slot a column.  Refs resolve to slots there,
and values are numbered: equal (op, operand slots) pairs, commutative
operands sorted, share one slot, so a sum that an earlier command built (as
m[x1] + m[a1] in the Beaver protocol, whose 79 vector operations become 67)
is computed once.  x == y compiles to the negation of x xor y, OT4 to three
OTs, and a strategy's options and halts to OTs and assertions over 0/1
columns of its choices.  A schedule (_schedule) then gives each value a
register, a buffer, by a linear scan that frees it after the value's last
read (Poletto and Sarkar, TOPLAS 1999): a whole table keeps every assigned
variable's column, a count only those of the variables it counts or
conditions on, and skips what nothing kept needs.  The program keeps one
schedule per set of kept variables, so the blocks of a count and the
chunks of a family schedule once.

fold(..., block=(lo, hi)) builds only rows lo..hi-1 of the table.  Deal
columns come from the deal's columns() for a whole table and from its
slice_columns(lo, hi) for the memories of a block; flip columns are bits
of the row index.  Bit columns (bit_column, bit_range) are built by tiling
a repeated 0/1 block, with no 64-bit row index, and a column of a block
of at most BLOCK_ROWS rows that is constant or aligned to its bit's
period is one shared read-only array: a block of a tall uniform deal
builds only the columns derived from its bits.  A fold of more than
MAX_RUNS runs raises BudgetError before any column is built.

Every fold writes into an arena (_Arena): one buffer per deal column it
derives, per register of its schedule and per mask, made on first use.
Shared read-only bit and constant columns are never written into.  A
caller of fold gets a fresh arena sized to its table, which keeps every
assigned variable.  count_runs folds BLOCK_ROWS = 2^16 runs at a time
into one arena that keeps only the variables it counts or conditions
on, so that no whole run table, nor any whole deal column, of a tall
deal is held, and a block allocates no column: 26 buffers for the count
of nimo's 12 variables over the Beaver deal, where a column per assigned
variable took 35.  This is the cache-resident, reused vector of
MonetDB/X100 (Boncz, Zukowski and Nes, CIDR 2005): a block's columns are
64 KB, so those an operation reads and writes stay in a core's 2 MB L2
cache, where whole columns of 2 MB do not.  Fold plus count of those 12
variables over the 2^21-run deal, on a 2-core x86 machine (Python 3.11,
numpy 2.4; median of 3 processes of 15 counts each, and that process's
peak RSS):

    block   whole   2^14    2^15    2^16    2^17    2^18    2^19    2^20
    time    0.07 s  0.05 s  0.03 s  0.03 s  0.03 s  0.03 s  0.03 s  0.05 s
    RSS     138 MB  31 MB   32 MB   34 MB   37 MB   45 MB   59 MB   89 MB

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
from its assertion on, and corrupt assertions are otherwise skipped.  Every
option is compiled, and checked to read only what the corrupt clients see,
when the family is first folded, whichever strategies a chunk holds; a
chunk evaluates only the options its strategies take (_untampered).  A
single AdversaryStrategy folds as a Family of one.  chunks cuts a family
into pieces of whole strategies, of about CHUNK_ROWS stacked runs but at
most an eighth of the family, so that a large family amortizes the fixed
cost of a fold while a small one holds only a few strategies' tables at
once.  Before the first chunk, a family of more than MAX_STACKED_RUNS
stacked runs (strategies times runs) raises BudgetError.

Every check counts the distinct rows of codes over some variables: a
variable's code is its value, or BOT_CODE where it is BOT.  One kernel,
count_parts, counts them over a sequence of parts, each the runs of a
table: one table (distinct_rows), the blocks of a fold (count_runs), or
the passive runs and then each chunk's tampered runs (cheating
detection).  It keys each run over w bits, 1 per variable, or 2 when a
variable of the part has a BOT mask, and takes one of two paths:
- 2**w at most the most runs of any part: one integer key per run,
  counted by np.bincount into a running table of 2**w bins.  This is
  linear in runs, with no sort, and the ascending bins are already in
  code order.  A tall table projected to a few variables (a block of the
  2^21-run Beaver deal to 12) takes this path.
- otherwise each part's keys are sorted by np.unique and its distinct
  keys kept: integers while w is at most 64 (2^19 random 40-bit keys
  take 0.023 s as uint64 against 0.23 s as bytes on a 2-core x86
  machine), else pack_keys' bytes, for any number of variables.
The parts' distinct keys merge exactly by a sort, whenever later parts'
outnumber the first's and at the end, and where parts keyed at 1 bit and
at 2 bits both occur, the 1-bit distinct rows are re-keyed at 2 bits.
pack_keys is the one byte-key format: b bits per column, first column
most significant, in big-endian bytes, so byte order is code order, as
integer order is for the integer keys; every path unpacks the codes from
the bytes of the distinct keys, and row_keys applies pack_keys to a code
matrix for the verifier's comparisons.
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
    Partition, Protocol, REVEAL, Ref, Var, assigned_var, computing_client, postorder,
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
    (domain, columns, number of rows).  out as for _run_columns; where the
    rows cross copies, each column is their concatenation into out's
    buffer."""
    runs = _runs(protocol, preproc)
    lo, hi = (0, runs * copies) if block is None else block
    # the runs each copy that the rows cross contributes, each range built once
    pieces = [(max(lo - s * runs, 0), min(hi - s * runs, runs))
              for s in range(lo // runs, -(-hi // runs))]
    if len(pieces) == 1:
        return tuple(preproc.domain) + protocol.flips(), \
            _run_columns(protocol, preproc, runs, *pieces[0], out), hi - lo
    built = {p: _run_columns(protocol, preproc, runs, *p) for p in dict.fromkeys(pieces)}
    cols = {v: np.concatenate([built[p][v] for p in pieces], out=None if out is None else out[v])
            for v in built[pieces[0]]}
    return tuple(preproc.domain) + protocol.flips(), cols, hi - lo


_BINOPS = {"+": np.bitwise_xor, "-": np.bitwise_xor, "xor": np.bitwise_xor,
           "*": np.bitwise_and, "and": np.bitwise_and, "or": np.bitwise_or}
_ARITY = {BinOp: 2, Cmp: 2, PAnd: 2, POr: 2, Not: 1, PNot: 1, OT: 3, OT4: 6}


def _filled(n: int, value, out=None, dtype=np.uint8) -> "np.ndarray":
    """A column of n entries of dtype, each value: out, filled, if given."""
    if out is None:
        return np.full(n, value, dtype=dtype)
    out.fill(value)
    return out


def _ot(choice, if1, if0, out):
    """if1 where the 0/1 column choice is 1, else if0, into out."""
    np.copyto(out, if0)
    np.copyto(out, if1, where=choice.view(bool))
    return out


class _Program(NamedTuple):
    """A protocol compiled for fold: straight-line code over integer slots,
    each slot a column of 0/1 values.  An instruction is (op, out slot,
    operand slots, extra): op is a numpy ufunc or _ot, which write into
    their out= buffer, "def" (assign the operand to the variable extra) or
    "assert" (the operand holds, or the run aborts from command extra on)."""

    inputs: tuple     # (slot, initial variable, constant 0 or 1, or ("choice", column, option))
    code: tuple
    nslots: int
    assigned: tuple   # the variables the commands assign, in order
    schedules: dict   # kept variables (None: all) -> their _schedule, once one is folded


def _compile(protocol: Protocol, family=None, part=None) -> _Program:
    """The program of the protocol's commands: passive with no family, else
    with those that part's corrupt clients compute at family.positions
    tampered and their assertions halting or skipped (see the module
    docstring).  Values are numbered: a Ref resolves to the slot of its
    variable's value, and equal (op, operand slots) pairs, commutative
    operands sorted, share one slot."""
    numbers = {}  # (op, *operand slots), or an input's key -> slot
    current = {}  # (kind, name, owner) of a variable -> the slot that a read gets
    inputs, code, assigned, slots = [], [], {}, itertools.count()

    def leaf(key):
        slot = numbers.get(key)
        if slot is None:
            slot = numbers[key] = next(slots)
            inputs.append((slot, key))
        return slot

    def emit(op, *args):
        key = (op, *(args if op is _ot else sorted(args)))
        slot = numbers.get(key)
        if slot is None:
            slot = numbers[key] = next(slots)
            code.append((op, slot, key[1:], None))
        return slot

    def value(root, client):
        stack = []
        for node, c in postorder(root, client):
            kind = type(node)
            if kind is Ref:  # a tuple key hashes faster than a Var
                name = node.kind, node.name, None if node.kind == REVEAL else c
                slot = current.get(name)
                if slot is None:  # an initial variable
                    slot = current[name] = leaf(Var(*name))
                stack.append(slot)
                continue
            if kind is Const:
                if node.value not in (0, 1):
                    raise EvalError(f"constant {node.value} out of range for F_2")
                stack.append(leaf(node.value))
                continue
            args = stack[-_ARITY[kind]:]
            del stack[-_ARITY[kind]:]
            if kind is BinOp and node.op not in _BINOPS:
                raise EvalError(f"unknown operator {node.op}")
            if kind is BinOp or kind is POr or kind is PAnd:
                op = _BINOPS[node.op] if kind is BinOp else \
                    np.bitwise_or if kind is POr else np.bitwise_and
                stack.append(emit(op, *args))
            elif kind is OT:
                stack.append(emit(_ot, *args))
            elif kind is OT4:  # (c1, c2) = (1,1), (1,0), (0,1), (0,0) pick rows 0 to 3
                c1, c2, *rows = args
                stack.append(emit(_ot, c1, emit(_ot, c2, *rows[:2]), emit(_ot, c2, *rows[2:])))
            else:  # Not, PNot, and Cmp: x != y is x xor y, and x == y its negation
                x = args[0] if len(args) == 1 else emit(np.bitwise_xor, *args)
                negate = kind is not Cmp or node.op == "=="
                stack.append(emit(np.bitwise_xor, x, leaf(1)) if negate else x)
        return stack.pop()

    corrupt = frozenset() if part is None or family is None else part.corrupt
    positions = {} if family is None else {i: j for j, i in enumerate(family.positions)}
    halts = {} if family is None else {i: len(positions) + j for j, i in enumerate(family.aborts)}
    for i, cmd in enumerate(protocol.commands):
        client = computing_client(cmd)
        if isinstance(cmd, AssertCmd):
            if client not in corrupt:
                code.append(("assert", None, (value(cmd.pred, client),), i))
            elif i in halts:  # it holds where a strategy does not halt there
                code.append(("assert", None, (leaf(("choice", halts[i], 0)),), i))
            continue
        slot = value(cmd.expr, client)
        if client in corrupt and i in positions:
            j = positions[i]
            for k, expr in enumerate(family.options[j], 1):
                if expr is not cmd.expr:
                    _check_replacement_visibility(expr, client, part)
                slot = emit(_ot, leaf(("choice", j, k)), value(expr, client), slot)
        var = assigned_var(cmd)
        if var in assigned:
            raise EvalError(f"{var} assigned twice")
        assigned[var] = None
        current[var.kind, var.name, var.owner] = slot
        code.append(("def", None, (slot,), var))
    return _Program(tuple(inputs), tuple(code), next(slots), tuple(assigned), {})


def _schedule(program: _Program, keep=None) -> tuple:
    """The program's instructions for a fold, as (the inputs they read,
    the instructions with a register each: (op, out, args, extra, register
    or None), the number of registers).  With keep, a set of variables,
    only the instructions that the assertions and the assignments of
    keep's variables need.  A linear scan gives each value a register, a
    buffer index, free again after the value's last read unless it is an
    assigned variable's (with keep, a kept one's): a ufunc may write over
    an operand it reads for the last time, _ot never."""
    code = program.code
    if keep is not None:
        needed, kept = set(), []
        for ins in reversed(code):
            op, out, args, extra = ins
            if op == "def" and extra not in keep or out is not None and out not in needed:
                continue
            needed.update(args)
            kept.append(ins)
        code = kept[::-1]
    last = {s: at for at, ins in enumerate(code) for s in ins[2]}
    pinned = {args[0] for op, _, args, _ in code if op == "def"}
    register, free, scheduled, registers = {}, [], [], 0
    for at, (op, out, args, extra) in enumerate(code):
        dying = [register.pop(s) for s in dict.fromkeys(args)
                 if last[s] == at and s in register and s not in pinned]
        inplace = isinstance(op, np.ufunc)
        free += dying if inplace else []
        reg = None
        if out is not None:
            if not free:
                free.append(registers)
                registers += 1
            reg = register[out] = free.pop()
        free += [] if inplace else dying
        scheduled.append((op, out, args, extra, reg))
    inputs = tuple((slot, key) for slot, key in program.inputs if slot in last)
    return inputs, tuple(scheduled), registers


# by whether a family is folded, the last (protocol, family options, the
# family's positions, aborts and corrupt clients) compiled and its program;
# holding the protocol and the options keeps their identity from passing to
# another object, so identity is a sound key for them
_compiled = {}


def _program(protocol: Protocol, family, part) -> _Program:
    """_compile(protocol, family, part), kept for the last passive protocol
    and the last family folded, so the blocks of a count, the chunks of a
    family and a check's passive folds compile it once."""
    options = None if family is None else family.options
    rest = None if family is None else \
        (family.positions, family.aborts, None if part is None else part.corrupt)
    last = _compiled.get(family is None)
    if last is None or last[0] is not protocol or last[1] is not options or last[2] != rest:
        last = _compiled[family is None] = (protocol, options, rest,
                                            _compile(protocol, family, part))
    return last[3]


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
    """The columns of the folds of n runs into it: one uint8 buffer per
    key (a deal variable, a register of the fold's schedule, or a name of
    fold's own), made on first use and rewritten by every later fold, so
    that count_runs' blocks allocate no column of their tables.  keep
    holds the variables a table keeps (None: all), and every other
    assigned variable's value lives in a register only until its last
    read."""

    def __init__(self, n: int, keep=None):
        super().__init__()
        self.n, self.keep = n, None if keep is None else frozenset(keep)

    def __missing__(self, key):  # a uint8 column, as slice_columns and the commands write
        return self.of(key, np.uint8)

    def of(self, key, dtype) -> "np.ndarray":
        """The buffer of n entries of dtype kept under key."""
        if key not in self:
            self[key] = np.empty(self.n, dtype=dtype)
        return self[key]


def _untampered(code, unused) -> list:
    """Scheduled code with each OT that picks an option by a choice column
    in unused, which no row takes, made a copy of its if0 operand (the
    command's own value), and the instructions only such OTs read dropped."""
    needed, kept = set(), []
    for ins in reversed(code):
        op, out, args, extra, reg = ins
        if out is not None and out not in needed:
            continue
        if op is _ot and args[0] in unused:
            ins = (np.positive, out, args[2:], extra, reg)  # a copy into the register
        needed.update(ins[2])
        kept.append(ins)
    return kept[::-1]


def fold(protocol: Protocol, preproc, strategy=None,
         part: Partition = None, block=None, arena=None) -> RunTable:
    """The run table of the protocol: passive with no strategy, else under
    an AdversaryStrategy or every strategy of a Family, stacked (see the
    module docstring).  With block = (lo, hi), only the rows lo..hi-1 of
    that table, as a table of hi - lo rows.  Its columns and masks are the
    buffers of arena, an _Arena of that many entries (a fresh one by
    default), valid until the next fold into it; the table holds the
    initial variables and the assigned ones in arena.keep."""
    if protocol.modulus != 2:
        raise UsageError("the vectorized engine requires F_2")
    if isinstance(strategy, AdversaryStrategy):
        strategy = family_of([strategy])
    runs = _runs(protocol, preproc)
    copies = 1 if strategy is None else len(strategy.choice)
    lo, hi = (0, runs * copies) if block is None else block
    if arena is None:
        arena = _Arena(hi - lo)
    domain, cols, nrows = _initial_columns(protocol, preproc, copies, (lo, hi), arena)
    program = _program(protocol, strategy, part)
    for v in program.assigned:  # validate rejects such a deal before any fold
        if v in cols:
            raise EvalError(f"{v} assigned twice")
    plan = program.schedules.get(arena.keep)
    if plan is None:
        plan = program.schedules[arena.keep] = _schedule(program, arena.keep)
    inputs, code, registers = plan
    registers = [arena["register", r] for r in range(registers)]
    values = [None] * program.nslots
    if strategy is not None:
        # the rows of each strategy the block crosses, row r being strategy r // runs
        s0 = lo // runs
        reps = np.diff(np.clip(np.arange(s0, -(-hi // runs) + 1) * runs, lo, hi))
        chosen = strategy.choice[s0:s0 + len(reps)]
        for slot, key in inputs:  # 1 where a row's strategy chooses option key[2] in column key[1]
            if type(key) is tuple:
                rows = chosen[:, key[1]] == key[2]
                values[slot] = np.repeat(rows, reps) if rows.any() or not key[2] else None
        unused = {slot for slot, key in inputs if type(key) is tuple and values[slot] is None}
        if unused:
            code = _untampered(code, unused)
    for slot, key in inputs:
        if type(key) is Var:
            values[slot] = cols.get(key)
            if values[slot] is None:
                raise EvalError(f"{key} unbound")
        elif type(key) is not tuple:  # a constant column, read-only and shared as bit_range's
            make = _shared if nrows <= BLOCK_ROWS else _shared.__wrapped__
            values[slot] = make(nrows, None, key)
    domain, bots = list(domain), dict.fromkeys(domain)
    alive = _filled(nrows, True, arena.of("alive", bool))
    dead = None  # the BOT mask of later assignments, one array until alive changes
    get = values.__getitem__
    for op, out, args, extra, reg in code:
        if reg is not None:
            values[out] = op(*map(get, args), out=registers[reg])
        elif op == "def":
            cols[extra] = values[args[0]]
            domain.append(extra)
            bots[extra] = dead
        else:  # an assertion: runs stay alive where its operand is 1
            alive &= values[args[0]].view(bool)
            dead = None if alive.all() else \
                np.logical_not(alive, out=arena.of(("dead", extra), bool))
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
    # numpy multiplies 8- and 16-bit keys 2 to 10 times as fast as it shifts
    # them; a scalar of the key's own type takes no conversion per call
    scale = keys.dtype.type(1 << bits) if ncols > 1 else None
    for j, code in enumerate(columns):
        if j:
            np.multiply(keys, scale, out=keys)
        keys |= code
    return keys


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


@functools.lru_cache(maxsize=1)
def _block_index(n: int) -> "np.ndarray":
    """0..n-1 as a read-only column, built once: the full blocks of a
    count then allocate no index, which would be 8 times a key buffer."""
    col = np.arange(n)
    col.flags.writeable = False
    return col


def _first_bins(keys, size: int) -> "np.ndarray":
    """For each of size integer keys, the index of its first run in keys
    (len(keys) where it has none)."""
    n = len(keys)
    found = np.full(size, n, dtype=np.intp)
    np.minimum.at(found, keys, _block_index(n) if n == BLOCK_ROWS else np.arange(n))
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
    return count_parts([(table, rows, lead)], vars_, first)


def _merge(parts):
    """The distinct keys of parts, each (distinct keys in key order,
    counts, first runs or None), in key order, each key's counts added
    and its first run the least: one part as it is, else one stable sort,
    then a sum and a minimum per run of equal keys."""
    if len(parts) == 1:
        return parts[0]
    keys, counts, first = (None if x[0] is None else np.concatenate(x) for x in zip(*parts))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate((keys[:1] == keys[:1], keys[1:] != keys[:-1])))
    first = None if first is None else np.minimum.reduceat(first[order], starts)
    return keys[starts], np.add.reduceat(counts[order], starts), first


def count_parts(parts, vars_, first=True):
    """distinct_rows over vars_ of the runs of several parts counted as
    one table, each part's runs after those of the one before: parts is
    an iterable of one or more (RunTable, bool mask of its counted runs
    or None for all, lead columns), read one at a time.  The module
    docstring gives the counting paths and the merge; a running table of
    bins gets a part's first runs where the part first reaches them."""
    dense = {}   # bits -> running (counts, first runs or -1) of each key
    sparse = {}  # bits -> parts' (distinct keys, counts, first runs), merged as they grow
    spare = {}   # bits -> an integer key buffer, reused by the parts
    most = done = 0  # the most runs of a part, and the runs of earlier parts
    # a part's table is held only until its keys are built
    keyed = (_code_columns(table, vars_, rows, lead) for table, rows, lead in parts)
    for columns, bits, ncols, n in keyed:
        most, width = max(most, n), bits * ncols
        if width <= 64 and (bits not in spare or len(spare[bits]) < n):
            spare[bits] = np.empty(most, np.min_scalar_type(2 ** width - 1))
        keys = _column_keys(columns, bits, ncols, n, spare[bits][:n] if width <= 64 else None)
        if 2 ** width <= most:
            if bits not in dense:
                dense[bits] = np.zeros(2 ** width, np.int64), np.full(2 ** width, -1, np.intp)
            total, found = dense[bits]
            block = np.bincount(keys, minlength=len(total))
            total += block
            if first:
                new = (block > 0) & (found < 0)  # bins this part reaches first
                if new.any():
                    found[new] = _first_bins(keys, len(total))[new] + done
        else:
            keys, *found, counts = np.unique(keys, return_index=first, return_counts=True)
            kept = sparse.setdefault(bits, [])
            kept.append((keys, counts, found[0] + done if first else None))
            # merged once later parts outnumber the first: repeated rows are not kept per part
            if sum(len(k) for k, _, _ in kept[1:]) > len(kept[0][0]):
                kept[:] = [_merge(kept)]
        done += n
    for bits, (total, found) in dense.items():
        keys = np.flatnonzero(total)
        sparse.setdefault(bits, []).append((keys, total[keys], found[keys] if first else None))
    merged = {bits: _merge(entries) for bits, entries in sparse.items()}
    if len(merged) == 2:  # parts with BOT and without: the rows of those without at 2 bits
        keys, counts, found = merged.pop(1)
        keys = _column_keys(_unpack(keys, 1, ncols).T, 2, ncols, len(keys))
        merged[2] = _merge([(keys, counts, found), merged[2]])
    (bits, (keys, counts, found)), = merged.items()
    return _unpack(keys, bits, ncols), counts, found


def count_runs(protocol: Protocol, preproc, vars_, strategy=None, part=None,
               given=None, abort_lead=False, first=True):
    """distinct_rows over vars_ of the runs of fold(protocol, preproc,
    strategy, part) where every variable of the partial memory given holds
    its value (all runs by default), folded BLOCK_ROWS runs at a time and
    counted as the parts of count_parts, so that no whole run table is
    held.  With abort_lead, a column that is 1 where the run aborted leads
    those of vars_.  The blocks fold into one _Arena, which keeps the
    columns of vars_ and given alone; a shorter last block into its own."""
    if isinstance(strategy, AdversaryStrategy):
        strategy = family_of([strategy])
    nrows = _runs(protocol, preproc) * (1 if strategy is None else len(strategy.choice))
    given = dict(given or {})

    def blocks():  # the arena is freed with the last block, before the merge
        arena = _Arena(min(nrows, BLOCK_ROWS), (*vars_, *given))
        for lo in range(0, nrows, BLOCK_ROWS):
            hi = min(lo + BLOCK_ROWS, nrows)
            table = fold(protocol, preproc, strategy, part, (lo, hi),
                         arena if hi - lo == arena.n else _Arena(hi - lo, arena.keep))
            yield (table, rows_matching(table, given) if given else None,
                   [(~table.alive).view(np.uint8)] if abort_lead else ())

    return count_parts(blocks(), vars_, first)


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
