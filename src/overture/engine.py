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

fold runs a program compiled once per protocol and deal (_compile, kept
by _program with the protocol per deal, and for the last family):
straight-line code over integer slots, each slot a column.  A deal that
describes itself (dist.Preprocessing.description) compiles into it: its
free variables and the coin flips are bits of the row index, its pinned
ones constants and its derived ones instructions; another deal is read
from its columns.
Refs resolve to slots, and values are numbered: equal (op, operand slots)
pairs, commutative operands sorted, share one slot, so a sum that an
earlier command built (as m[x1] + m[a1] in the Beaver protocol) is
computed once.  x == y compiles to the negation of x xor y, OT4 to three
OTs, and a strategy's options and halts to OTs and assertions over 0/1
columns of its choices.  Bit columns (bit_column, bit_range) tile a
repeated 0/1 block, with no 64-bit row index, and a column of at most
BLOCK_ROWS rows that is constant or aligned to its bit's period is one
shared read-only array.  A fold of more than MAX_RUNS runs raises
BudgetError before any column is built.

fold(..., block=(lo, hi)) builds only rows lo..hi-1 of the table, as one
block of a plan (_plan): the program specialized, in one symbolic pass,
to blocks of rows, in the way of partial evaluation (Jones, Gomard and
Sestoft, 1993).  A row-index bit that is constant over a block, or a
choice column that every row of it agrees on, is a constant there, and
constants fold through the code by exact F_2 identities: x^0 = x, x&1 =
x, x^x = x&0 = 0, an OT with a constant choice is that operand, and an
assertion of 1 is dropped.  Values are numbered across the blocks, so
one that only low bits decide is computed once for all of them, and a
linear scan over what the blocks compute gives each value a register, a
buffer of the fold's arena (_Arena), free again after its last read
(Poletto and Sarkar, TOPLAS 1999).  Blocks whose kept values, assertions
and BOT masks are the same ids have equal tables, and only the first is
folded.  A passive program keeps its plans, one per kept set and blocks.
A caller of fold gets a plan of its one block and a fresh arena that
keeps every variable.  count_runs plans aligned blocks of the largest
power of two of at most BLOCK_ROWS = 2^16 runs, keeping only the variables
it counts or conditions on, and folds them into one arena: no whole run
table, nor any whole deal column, of a tall deal is held, a block
allocates no column, and a block equal to an earlier one is counted in
that one's weight.  The 2^21-run Beaver deal's 32 blocks differ in five
high bits: for nimo's 12 variables its program's 93 instructions take
102 column operations in all, not 2,976, 20 blocks are folded and 24
registers are held.  This is also the cache-resident, reused vector of
MonetDB/X100 (Boncz, Zukowski and Nes, CIDR 2005): a block's columns are
64 KB, so those an operation reads and writes stay in a core's 2 MB L2
cache, where whole columns of 2 MB do not.  That count over the 2^21
runs, on a 2-core x86 machine (Python 3.11, numpy 2.4; median of 3
processes of 15 counts each, and that process's peak RSS):

    block   whole   2^14    2^15    2^16    2^17    2^18    2^19    2^20
    time    0.06 s  0.03 s  0.02 s  0.02 s  0.02 s  0.01 s  0.03 s  0.04 s
    RSS     152 MB  32 MB   33 MB   35 MB   39 MB   47 MB   63 MB   90 MB

Below 2^16 the fixed cost of a fold and a count per block dominates;
above it the columns leave the cache, the memory grows with the block
and fewer high bits are constant.

A strategy family folds as stacked runs, in the way parallel fault
simulation runs many faults in one pass.  family_of turns a sequence of
AdversaryStrategy into a Family: a matrix of option indices, strategies
by tampered positions, with one tuple of replacement expressions per
position and one 0/1 column per assertion some strategy halts at.  One
fold of a Family of s strategies over n runs gives s * n rows: row r is
run r % n of strategy r // n (a described deal's n is a power of two, so
its columns are the low bits of r).
A tampered command's column is the command's own where a row's option is
0 and the evaluated option expression elsewhere; a halting row is dead
from its assertion on, and corrupt assertions are otherwise skipped.  Every
option is compiled, and checked to read only what the corrupt clients see,
when the family is first folded, whichever strategies a chunk holds; a
chunk evaluates only the options its strategies take, as a choice column
that no row of it takes is the constant 0 in its plan.  A
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
import weakref
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


def _read_columns(protocol: Protocol, preproc, lo: int, hi: int) -> dict:
    """The columns of a deal read from its columns(), and of the coin
    flips, over the rows lo..hi-1 of its runs, stacked: row r holds run r %
    runs, and run = memory index * 2**k + tape for k coin flips, so flip i
    is bit k-1-i of the run.  Rows within one copy of the runs read only
    the memories they cover (slice_columns); a whole deal read without
    flips serves its own columns."""
    flips, runs = protocol.flips(), _runs(protocol, preproc)
    k, a, b = len(flips), lo % runs, (hi - 1) % runs
    whole = hi - lo >= runs or a > b
    first = 0 if whole else a >> k
    pre = preproc.columns() if whole else preproc.slice_columns(first, (b >> k) + 1)
    if (lo, hi, k) == (0, runs, 0):
        return dict(pre)
    run = np.arange(lo, hi) % runs
    cols = {v: pre[v][(run >> k) - first] for v in preproc.domain}
    cols.update((v, (run >> k - 1 - i & 1).astype(np.uint8)) for i, v in enumerate(flips))
    return cols


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
    """if1 where the 0/1 column choice is 1, else if0, into out, which is
    none of them: ((if1 ^ if0) & choice) ^ if0, with no masked copy."""
    np.bitwise_xor(if1, if0, out=out)
    out &= choice
    out ^= if0
    return out


def _simplified(op, args):
    """The operand that an exact F_2 identity reduces op over args to, ids
    0 and 1 being the constants, else None: x^0 = x|0 = x&1 = x, x^x =
    x&0 = 0, x&x = x, x|1 = 1, and an OT picks by a constant choice.  A
    ufunc's two args come sorted, so a constant is the first."""
    if op is _ot:
        c, if1, if0 = args
        return (if0, if1)[c] if c < 2 else None
    x, y = args
    if x == y:
        return 0 if op is np.bitwise_xor else x
    if x < 2 and not (op is np.bitwise_xor and x):
        return y if (op is np.bitwise_and) == x else x
    return None


class _Program(NamedTuple):
    """A protocol and its deal compiled for fold: straight-line code over
    integer slots, each slot a column of 0/1 values.  An input is (slot,
    key), the key 0 or 1 (slots 0 and 1, the constants), ("bit", i) of the
    row index, a variable read from the deal's columns, or ("choice",
    column, option).  An instruction is (op, out slot, operand slots,
    extra): op is a numpy ufunc or _ot, which write into their out=
    buffer, "def" (assign the operand to the variable extra) or "assert"
    (the operand holds, or the run aborts from command extra on)."""

    inputs: tuple
    code: tuple
    nslots: int
    plans: dict  # (kept set or None, block spans, runs) -> a passive _Plan (_plan)


def _compile(protocol: Protocol, preproc, family=None, part=None) -> _Program:
    """The program of the deal and then of the protocol's commands:
    passive with no family, else with those that part's corrupt clients
    compute at family.positions tampered and their assertions halting or
    skipped (see the module docstring).  A described deal's variables are
    bits of the row index, constants and its derived expressions; another
    deal's are read from its columns.  Values are numbered: a Ref resolves
    to the slot of its variable's value, and equal (op, operand slots)
    pairs, commutative operands sorted, share one slot."""
    numbers = {0: 0, 1: 1}  # (op, *operand slots), or an input's key -> slot
    current = {}  # (kind, name, owner) of a variable -> the slot that a read gets
    inputs, code, slots = [(0, 0), (1, 1)], [], itertools.count(2)

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

    def define(var, slot):
        name = var.kind, var.name, var.owner
        if name in current:
            raise EvalError(f"{var} assigned twice")
        current[name] = slot
        code.append(("def", None, (slot,), var))

    def value(root, client):
        stack = []
        for node, c in postorder(root, client):
            kind = type(node)
            if kind is Ref:  # a tuple key hashes faster than a Var
                name = node.kind, node.name, None if node.kind == REVEAL else c
                if name not in current:
                    raise EvalError(f"{Var(*name)} unbound")
                stack.append(current[name])
                continue
            if kind is Const:
                if node.value not in (0, 1):
                    raise EvalError(f"constant {node.value} out of range for F_2")
                stack.append(node.value)
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
                stack.append(emit(np.bitwise_xor, x, 1) if negate else x)
        return stack.pop()

    flips = protocol.flips()
    if preproc.description is None:
        initial = {v: leaf(v) for v in (*preproc.domain, *flips)}
    else:  # run = memory index * 2**k + tape for k coin flips; flip i is bit k-1-i
        free, pinned, derived = preproc.description
        initial = {v: leaf(("bit", len(flips) + i)) for i, v in enumerate(free)}
        initial.update(pinned)
        initial.update((v, leaf(("bit", len(flips) - 1 - i))) for i, v in enumerate(flips))

        def deal_value(e):
            if isinstance(e, Var):
                return initial[e]
            return emit(_BINOPS[e[0]], deal_value(e[1]), deal_value(e[2]))

        initial.update((v, deal_value(e)) for v, e in derived)
    for v in (*preproc.domain, *flips):
        define(v, initial[v])
    corrupt = frozenset() if part is None or family is None else part.corrupt
    positions = {} if family is None else {i: j for j, i in enumerate(family.positions)}
    halts = {} if family is None else {i: len(positions) + j for j, i in enumerate(family.aborts)}
    for i, cmd in enumerate(protocol.commands):
        client = computing_client(cmd)
        if isinstance(cmd, AssertCmd):
            if client not in corrupt:
                slot = value(cmd.pred, client)
            elif i in halts:  # it holds where a strategy does not halt there
                slot = leaf(("choice", halts[i], 0))
            else:
                continue
            code.append(("assert", None, (slot,), i))
            continue
        slot = value(cmd.expr, client)
        if client in corrupt and i in positions:
            j = positions[i]
            for k, expr in enumerate(family.options[j], 1):
                if expr is not cmd.expr:
                    _check_replacement_visibility(expr, client, part)
                slot = emit(_ot, leaf(("choice", j, k)), value(expr, client), slot)
        define(assigned_var(cmd), slot)
    return _Program(tuple(inputs), tuple(code), next(slots), {})


class _Plan(NamedTuple):
    """A program specialized to the blocks of rows that fold into one _Arena."""

    # lo of a block -> (inputs to bind, (id, key) with keys as _compile's; code,
    # (op, id, operand ids, register); events, in command order each the id
    # of a kept variable's value or ~id of an assertion's operand), or the lo
    # of the first block of equal events, if it is not that block
    blocks: dict
    weights: dict    # lo of a first block -> the number of blocks of its events
    kept: tuple      # the variables of the def events, in order
    nids: int
    registers: int


def _plan(program: _Program, keep, blocks, family=None, runs=1) -> _Plan:
    """_specialize(program, keep, blocks, family, runs), kept by a passive
    program, so each kept set and blocks make one symbolic pass."""
    if family is not None:
        return _specialize(program, keep, blocks, family, runs)
    key = keep, tuple(blocks), runs
    if key not in program.plans:
        program.plans[key] = _specialize(program, keep, blocks, None, runs)
    return program.plans[key]


def _specialize(program: _Program, keep, blocks, family=None, runs=1) -> _Plan:
    """The program specialized to each block (lo, hi) of rows, in one
    symbolic pass (see the module docstring), for the family's choices of
    runs stacked runs; with keep, a set of variables, to the assertions
    and keep's assignments.  A bit column's id is keyed by the column; a
    column read from the deal, or a choice column that varies over the
    block, gets a fresh id in each block.  A ufunc may write over an
    operand it reads for the last time, _ot never."""
    code = program.code
    if keep is not None:
        needed, pruned = set(), []
        for ins in reversed(code):
            op, out, args, extra = ins
            if op == "def" and extra not in keep or out is not None and out not in needed:
                continue
            needed.update(args)
            pruned.append(ins)
        code = pruned[::-1]
    read = {a for ins in code for a in ins[2]}
    inputs = [(slot, key) for slot, key in program.inputs if slot in read and slot > 1]
    numbers, made, source, ids = {}, {}, {0: 0, 1: 1}, itertools.count(2)

    def leaf(key, bound):  # an input id, bound to the column of key in fold
        i = numbers.get(key)
        if i is None:
            i = numbers[key] = next(ids)
            source[i] = bound
        return i

    entries, first, weights = {}, {}, {}
    for lo, hi in blocks:
        at = list(range(program.nslots))  # slots 0 and 1 are ids 0 and 1
        for slot, key in inputs:
            if type(key) is Var:
                at[slot] = leaf((key, lo), key)
            elif key[0] == "bit":  # bit i over lo..hi-1 depends on lo mod 2**(i+1) and hi - lo
                i = key[1]
                at[slot] = lo >> i & 1 if lo >> i == (hi - 1) >> i else \
                    leaf((key, lo % (2 << i), hi - lo), key)
            else:  # 1 where a row's strategy takes option key[2] at column key[1]
                taken = family.choice[lo // runs:(hi - 1) // runs + 1, key[1]] == key[2]
                at[slot] = int(taken[0]) if (taken == taken[0]).all() else leaf((key, lo), key)
        events = []
        for op, out, args, _ in code:
            if out is None:  # a def, or an assertion that is not constant 1
                x = at[args[0]]
                if op == "def" or x != 1:
                    events.append(x if op == "def" else ~x)
                continue
            if op is _ot:
                key = (op, *map(at.__getitem__, args))
            else:
                x, y = at[args[0]], at[args[1]]
                key = (op, x, y) if x < y else (op, y, x)
            i = _simplified(op, key[1:])
            if i is None:
                i = numbers.get(key)
                if i is None:
                    i = numbers[key] = next(ids)
                    made[i] = op, key[1:]
            at[out] = i
        events = tuple(events)
        rep = first.setdefault((hi - lo, events), lo)
        entries[lo] = events if rep == lo else rep
        weights[rep] = weights.get(rep, 0) + 1
    # what each first block computes anew, then the ids its table reads
    done, sequence = set(), []
    for lo, events in entries.items():
        if type(events) is int:
            continue
        reads = tuple(e if e >= 0 else ~e for e in events)
        new, stack = set(), list(reads)
        while stack:
            i = stack.pop()
            if i in made and i not in done and i not in new:
                new.add(i)
                stack.extend(made[i][1])
        done |= new
        sequence += [(*made[i], i) for i in sorted(new)]  # ids grow with their operands
        sequence.append((None, reads, lo))
    last = {i: at for at, (_, args, _) in enumerate(sequence) for i in args}
    register, free, registers, block = {}, [], 0, []
    for at, (op, args, out) in enumerate(sequence):
        dying = [register.pop(i) for i in set(args) if i in register and last[i] == at]
        if op is None:  # the end of block out: what it computes, binds and reads
            free += dying
            bound = {i for ins in block for i in ins[2]}.union(args).intersection(source)
            entries[out] = tuple((i, source[i]) for i in sorted(bound)), block, entries[out]
            block = []
            continue
        if op is not _ot:
            free += dying
        if not free:
            free.append(registers)
            registers += 1
        register[out] = free.pop()
        block.append((op, out, args, register[out]))
        if op is _ot:
            free += dying
    kept = tuple(extra for op, _, _, extra in code if op == "def")
    return _Plan(entries, weights, kept, next(ids), registers)


# the last (protocol, deal, family options, (positions, aborts, corrupt
# clients), program) compiled with a family; holding the objects keeps their
# identity from passing to another object, so identity is a sound key
_last_family = (None,) * 5


def _deal_key(preproc):
    """The deal as _compile reads it: its domain and description, made
    hashable; with no description, the deal, equal only to itself."""
    if preproc.description is None:
        return preproc
    free, pinned, derived = preproc.description
    return preproc.domain, free, tuple(pinned.items()), derived


def _program(protocol: Protocol, preproc, family, part) -> _Program:
    """_compile(protocol, preproc, family, part), kept with the protocol
    per deal (_deal_key) when passive, so equal deals compile once in any
    command (a deal with no description only while it lives), and for the
    last family, so its chunks compile it once."""
    global _last_family
    if protocol.modulus != 2:
        raise UsageError("the vectorized engine requires F_2")
    if family is None:
        key, memo = _deal_key(preproc), protocol._memo
        if key is preproc:  # keyed by identity, so kept only while the deal lives
            memo = memo.setdefault("explicit programs", weakref.WeakKeyDictionary())
        else:
            key = "program", key
        if key not in memo:
            memo[key] = _compile(protocol, preproc)
        return memo[key]
    rest = family.positions, family.aborts, None if part is None else part.corrupt
    last = _last_family
    if last[0] is not protocol or last[1] is not preproc \
            or last[2] is not family.options or last[3] != rest:
        last = _last_family = (protocol, preproc, family.options, rest,
                               _compile(protocol, preproc, family, part))
    return last[4]


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
    """The buffers of the folds of one _Plan, over blocks of at most n
    rows: one uint8 buffer per key (a register of the plan, or a name of
    fold's own), made on first use and rewritten by every later fold, so
    that the blocks of a count allocate no column.  columns holds the
    column of each id of the plan, which a later block reads where the
    plan shares its value."""

    def __init__(self, n: int, plan: _Plan):
        super().__init__()
        self.n, self.plan, self.columns = n, plan, [None] * plan.nids

    def __missing__(self, key):  # a uint8 column, as the commands write
        return self.of(key, np.uint8)

    def of(self, key, dtype) -> "np.ndarray":
        """The buffer of n entries of dtype kept under key."""
        if key not in self:
            self[key] = np.empty(self.n, dtype=dtype)
        return self[key]


def fold(protocol: Protocol, preproc, strategy=None,
         part: Partition = None, block=None, arena=None) -> RunTable:
    """The run table of the protocol: passive with no strategy, else under
    an AdversaryStrategy or every strategy of a Family, stacked (see the
    module docstring).  With block = (lo, hi), only the rows lo..hi-1 of
    that table, as a table of hi - lo rows.  Its columns and masks are
    buffers of arena, an _Arena whose plan holds that block (a fresh one,
    keeping every variable, by default), valid until the next fold into
    it; the table holds the variables that the plan keeps."""
    if isinstance(strategy, AdversaryStrategy):
        strategy = family_of([strategy])
    runs = _runs(protocol, preproc)
    copies = 1 if strategy is None else len(strategy.choice)
    lo, hi = (0, runs * copies) if block is None else block
    if arena is None:
        program = _program(protocol, preproc, strategy, part)
        arena = _Arena(hi - lo, _plan(program, None, [(lo, hi)], strategy, runs))
    plan, nrows, columns, read = arena.plan, hi - lo, arena.columns, None
    inputs, code, events = plan.blocks[lo]
    for i, key in inputs:
        if type(key) is int:  # a constant column, read-only and shared as bit_range's
            make = _shared if nrows <= BLOCK_ROWS else _shared.__wrapped__
            columns[i] = make(nrows, None, key)
        elif type(key) is Var:
            if read is None:
                read = _read_columns(protocol, preproc, lo, hi)
            columns[i] = read[key]
        elif key[0] == "bit":
            columns[i] = bit_range(lo, hi, key[1])
        else:  # 1 where a row's strategy chooses option key[2] in column key[1]
            s0 = lo // runs  # the rows of each strategy the block crosses
            reps = np.diff(np.clip(np.arange(s0, -(-hi // runs) + 1) * runs, lo, hi))
            taken = strategy.choice[s0:s0 + len(reps), key[1]] == key[2]
            columns[i] = np.repeat(taken, reps).view(np.uint8)
    registers = [arena["register", r][:nrows] for r in range(plan.registers)]
    get = columns.__getitem__
    for op, out, args, reg in code:
        columns[out] = op(*map(get, args), out=registers[reg])
    alive = _filled(nrows, True, arena.of("alive", bool)[:nrows])
    cols, bots, kept, dead, asserts = {}, {}, iter(plan.kept), None, 0
    for e in events:
        if e >= 0:  # the next kept variable, BOT where a run died before it
            var = next(kept)
            cols[var], bots[var] = columns[e], dead
        else:  # an assertion: runs stay alive where its operand is 1
            alive &= columns[~e].view(bool)
            asserts += 1
            dead = None if alive.all() else \
                np.logical_not(alive, out=arena.of(("dead", asserts), bool)[:nrows])
    return RunTable(tuple(cols), cols, bots, alive, nrows)


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
    or None for all, lead columns[, weight]), read one at a time.  A part
    of weight w counts its runs w times, the first time where it stands:
    the other w - 1 come later, each as an int part, the number of runs
    it counts, which only moves the first runs of the parts after it.
    The module docstring gives the counting paths and the merge; a
    running table of bins gets a part's first runs where the part first
    reaches them."""
    dense = {}   # bits -> running (counts, first runs or -1) of each key
    sparse = {}  # bits -> parts' (distinct keys, counts, first runs), merged as they grow
    spare = {}   # bits -> an integer key buffer, reused by the parts
    most = done = 0  # the most runs of a part, and the runs of earlier parts
    for part in parts:
        if type(part) is int:
            done += part
            continue
        table, rows, lead, *weight = part
        columns, bits, ncols, n = _code_columns(table, vars_, rows, lead)
        weight = weight[0] if weight else 1
        most, width = max(most, n), bits * ncols
        if width <= 64 and (bits not in spare or len(spare[bits]) < n):
            spare[bits] = np.empty(most, np.min_scalar_type(2 ** width - 1))
        keys = _column_keys(columns, bits, ncols, n, spare[bits][:n] if width <= 64 else None)
        if 2 ** width <= most:
            if bits not in dense:
                dense[bits] = np.zeros(2 ** width, np.int64), np.full(2 ** width, -1, np.intp)
            total, found = dense[bits]
            block = np.bincount(keys, minlength=len(total))
            total += block if weight == 1 else block * weight
            if first:
                new = (block > 0) & (found < 0)  # bins this part reaches first
                if new.any():
                    found[new] = _first_bins(keys, len(total))[new] + done
        else:
            keys, *found, counts = np.unique(keys, return_index=first, return_counts=True)
            kept = sparse.setdefault(bits, [])
            kept.append((keys, counts * weight, found[0] + done if first else None))
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
    its value (all runs by default), folded in aligned blocks of the
    largest power of two of at most BLOCK_ROWS runs and counted as the
    parts of count_parts, so that no whole run table is held.  With
    abort_lead, a column that is 1 where the run aborted leads those of
    vars_.  One _plan specializes the program to every block, keeping the
    columns of vars_ and given alone: each block folds into one _Arena,
    and a block whose table equals an earlier one's is not folded but
    counted in that block's weight."""
    if isinstance(strategy, AdversaryStrategy):
        strategy = family_of([strategy])
    runs = _runs(protocol, preproc)
    program = _program(protocol, preproc, strategy, part)
    nrows = runs * (1 if strategy is None else len(strategy.choice))
    given = dict(given or {})
    size = 1 << BLOCK_ROWS.bit_length() - 1
    spans = [(lo, min(lo + size, nrows)) for lo in range(0, nrows, size)]

    def blocks():  # the arena is freed with the last block, before the merge
        plan = _plan(program, frozenset((*vars_, *given)), spans, strategy, runs)
        arena, counted = _Arena(min(size, nrows), plan), {}
        for lo, hi in spans:
            if type(plan.blocks[lo]) is int:  # the runs that an earlier block's weight counts
                yield counted[plan.blocks[lo]]
                continue
            table = fold(protocol, preproc, strategy, part, (lo, hi), arena)
            rows = rows_matching(table, given) if given else None
            counted[lo] = table.nrows if rows is None else int(np.count_nonzero(rows))
            yield (table, rows, [(~table.alive).view(np.uint8)] if abort_lead else (),
                   plan.weights[lo])

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
