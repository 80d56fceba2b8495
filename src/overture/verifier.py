"""Hyperproperty checks over exact run distributions.

The check_* functions decide passive correctness, noninterference modulo
output, gradual release, the AND gate conditioning conditions, the
share-based circuit invariant, cheating detection, and integrity.  Runs
over F_2 are enumerated by the vectorized fold in engine.py, directly or
through bd; every failing verdict carries a witness that can be
recomputed from the distributions.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import dist as dist_mod
from .dist import (
    Functionality, Pmf, UniformPreprocessing, bd, default_preprocessing,
    same_conditional,
)
from .errors import BudgetError, UsageError
from .interp import IDENTITY, AdversaryStrategy
from .lang import (
    BOT, AssertCmd, BinOp, Const, FLIP, GLOBAL, MESG, MesgSend, Not, OT4,
    Partition, Protocol, REVEAL, Ref, SECRET, Var, assigned_var,
    computing_client, corrupt_views, format_memory, honest_views, owned_by,
)

# --- Verdicts ----------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    description: str
    memories: tuple = ()   # pairs (label, memory dict)
    numbers: tuple = ()    # pairs (label, Fraction or int)

    def format(self) -> str:
        lines = [self.description]
        for label, m in self.memories:
            lines.append(f"  {label}: {format_memory(m)}")
        for label, x in self.numbers:
            lines.append(f"  {label} = {x}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    prop: str
    details: tuple = ()
    witness: Optional[Witness] = None

    def format(self) -> str:
        lines = [f"{self.prop}: {'holds' if self.ok else 'FAILS'}"]
        lines += [f"  {d}" for d in self.details]
        if self.witness is not None:
            lines.append(self.witness.format())
        return "\n".join(lines)


# --- Projected distributions --------------------------------------------------

def projected_bd(protocol: Protocol, vars_, preproc=None, strategy=None,
                 part=None) -> Pmf:
    """Marginal of the basic distribution over the given variables."""
    from . import engine

    if preproc is None:
        preproc = default_preprocessing(protocol)
    vars_ = tuple(dict.fromkeys(vars_))
    if protocol.modulus != 2:
        return bd(protocol, preproc, strategy, part).marginal(vars_)
    dist_mod.check_deal(protocol, preproc)
    return engine.project_pmf(engine.fold(protocol, preproc, strategy, part), vars_)


# --- Passive correctness ------------------------------------------------------

def check_passive_correct(protocol: Protocol, fn: Functionality,
                          preproc=None) -> Verdict:
    """Every run computes the functionality of its secrets with probability
    one: outputs equal F(secrets) in each enumerated run, no aborts."""
    import numpy as np

    from . import engine

    prop = "passive-correct"
    if preproc is None:
        preproc = default_preprocessing(protocol)
    dealt = set(v for v in preproc.domain if v.kind == SECRET) | set(protocol.secrets())
    if set(fn.secrets) != dealt:
        raise UsageError("functionality secrets differ from the dealt secrets")
    if set(fn.outputs) != set(protocol.output_vars()):
        raise UsageError("functionality outputs differ from protocol outputs")
    dist_mod.check_deal(protocol, preproc)
    table = engine.fold(protocol, preproc)
    idx = np.zeros(table.nrows, dtype=np.uint64)
    for i, s in enumerate(fn.secrets):
        idx |= table.cols[s].astype(np.uint64) << np.uint64(i)
    bad = ~table.alive
    for j, out_var in enumerate(fn.outputs):
        lut = np.zeros(2 ** len(fn.secrets), dtype=np.uint8)
        for key, out_key in fn.table.items():
            k = sum(x << i for i, x in enumerate(key))
            lut[k] = out_key[j]
        expected = lut[idx]
        bot = table.bots.get(out_var)
        col = table.cols[out_var]
        bad |= expected != col
        if bot is not None:
            bad |= bot
    if not bad.any():
        return Verdict(True, prop, (f"all {table.nrows} runs agree with the functionality",))
    row = int(np.argmax(bad))
    final = engine.memory_at(table, row)
    want = fn.apply({s: final[s] for s in fn.secrets})
    w = Witness(
        "run output differs from the functionality",
        memories=(("run", final), ("expected outputs", want)),
    )
    return Verdict(False, prop, (), w)


# --- Noninterference modulo output -------------------------------------------

def _dealt_secrets(protocol: Protocol, preproc) -> tuple:
    """Secrets of the run distribution: dealt by the preprocessing plus any
    referenced directly by commands."""
    dealt = tuple(v for v in preproc.domain if v.kind == SECRET) \
        if preproc is not None else ()
    return dealt + tuple(v for v in protocol.secrets() if v not in dealt)


def check_nimo(protocol: Protocol, part: Partition, preproc=None) -> Verdict:
    """Corrupt views add nothing to what corrupt secrets and outputs reveal
    about honest secrets: P(S_H | m1) = P(S_H | m1, m2) for every positive
    realization m1 of S_C and the outputs, m2 of the honest-to-corrupt views."""
    prop = f"nimo[corrupt={{{','.join(map(str, sorted(part.corrupt)))}}}]"
    secrets = _dealt_secrets(protocol, preproc)
    s_h = owned_by(secrets, part.honest)
    s_c = owned_by(secrets, part.corrupt)
    outs = protocol.output_vars()
    views = tuple(dict.fromkeys(corrupt_views(protocol, part)))
    x1 = tuple(dict.fromkeys(s_c + outs))
    if not s_h:
        return Verdict(True, prop, ("no honest secrets",))
    p = projected_bd(protocol, x1 + views + s_h, preproc)
    ta = p.conditional(x1, s_h)
    tb = p.conditional(x1 + views, s_h)
    for key12 in sorted(tb.rows, key=str):
        key1 = key12[: len(x1)]
        row_b, n_b = tb.rows[key12], tb.masses[key12]
        row_a, n_a = ta.rows[key1], ta.masses[key1]
        if not same_conditional((n_a, row_a), (n_b, row_b)):
            diff = next(k for k in sorted(set(row_a) | set(row_b), key=str)
                        if row_a.get(k, 0) * n_b != row_b.get(k, 0) * n_a)
            w = Witness(
                "conditioning on corrupt views changes the honest-secret distribution",
                memories=(
                    ("m1 (corrupt secrets and outputs)", dict(zip(x1, key1))),
                    ("m2 (corrupt views)", dict(zip(views, key12[len(x1):]))),
                    ("honest secrets", dict(zip(s_h, diff))),
                ),
                numbers=(
                    ("P(secrets | m1)", Fraction(row_a.get(diff, 0), n_a)),
                    ("P(secrets | m1, m2)", Fraction(row_b.get(diff, 0), n_b)),
                ),
            )
            return Verdict(False, prop, (), w)
    return Verdict(True, prop, (f"{len(tb.rows)} positive view realizations checked",))


# --- Gradual release ----------------------------------------------------------

def check_gradual_release(protocol: Protocol, part: Partition, preproc=None) -> Verdict:
    """Corrupt-received messages are independent of honest secrets: all
    release happens through reveals and outputs."""
    prop = f"gradual-release[corrupt={{{','.join(map(str, sorted(part.corrupt)))}}}]"
    sent = tuple(v for v in protocol.assigned() if v.kind == MESG)
    m_c = owned_by(sent, part.corrupt)
    s_h = owned_by(_dealt_secrets(protocol, preproc), part.honest)
    if not m_c or not s_h:
        return Verdict(True, prop, ("no corrupt messages or no honest secrets",))
    p = projected_bd(protocol, m_c + s_h, preproc)
    witness = p.independent_witness(m_c, s_h)
    if witness is None:
        return Verdict(True, prop, (f"{len(m_c)} corrupt messages independent of honest secrets",))
    k1, k2, lhs, rhs = witness
    w = Witness(
        "corrupt messages are correlated with honest secrets",
        memories=(
            ("corrupt messages", dict(zip(m_c, k1))),
            ("honest secrets", dict(zip(s_h, k2))),
        ),
        numbers=(("P(joint)", lhs), ("P(messages) * P(secrets)", rhs)),
    )
    return Verdict(False, prop, (), w)


# --- AND gate conditioning -----------------------------------------------------

def _and_gate_shape(protocol: Protocol):
    ot_cmds = [c for c in protocol.commands
               if isinstance(c, MesgSend) and isinstance(c.expr, OT4)]
    if len(ot_cmds) != 1:
        raise UsageError("expected exactly one 1-of-4 transfer send")
    ot_cmd = ot_cmds[0]
    e = ot_cmd.expr
    if not (isinstance(e.c1, Ref) and isinstance(e.c2, Ref)
            and e.c1.kind == MESG and e.c2.kind == MESG):
        raise UsageError("transfer choices must read message shares")
    z = ot_cmd.name
    sender, receiver = ot_cmd.src, ot_cmd.dest
    locals_ = [c for c in protocol.commands
               if isinstance(c, MesgSend) and c.name == z and c.dest == sender]
    if len(locals_) != 1 or not isinstance(locals_[0].expr, Ref) or locals_[0].expr.kind != FLIP:
        raise UsageError(f"expected a local flip share for m[{z}]")
    return e.c1.name, e.c2.name, z, sender, receiver


def check_and_gate_tactic(protocol: Protocol) -> Verdict:
    """Conditioning conditions of a single AND gate over uniformly dealt
    input shares: the output wire is determined by the input wires, each
    output share alone is uniform noise, and the output wire is independent
    of the pair of output shares, all conditioned on the input wires."""
    prop = "and-gate-tactic"
    x, y, z, sender, receiver = _and_gate_shape(protocol)
    shares = tuple(Var(MESG, w, c) for w in (x, y) for c in sorted((sender, receiver)))
    preproc = UniformPreprocessing(shares)
    p = bd(protocol, preproc).with_global_views([x, y, z])
    gx, gy, gz = Var(GLOBAL, x), Var(GLOBAL, y), Var(GLOBAL, z)
    z1, z2 = Var(MESG, z, sender), Var(MESG, z, receiver)
    inputs = (gx, gy)
    checks = (
        (f"cond_det({{{gx},{gy}}} -> {gz})", p.cond_det_witness(inputs, (gz,))),
        (f"cond_uni({{{gx},{gy}}} -> {z1})", p.cond_uni_witness(inputs, (z1,))),
        (f"cond_uni({{{gx},{gy}}} -> {z2})", p.cond_uni_witness(inputs, (z2,))),
        (f"cond_sep({{{gx},{gy}}}; {gz}; {{{z1},{z2}}})",
         p.cond_sep_witness(inputs, (gz,), (z1, z2))),
    )
    return _condition_verdict(prop, inputs, checks)


def _condition_verdict(prop, inputs, checks) -> Verdict:
    details = []
    bad = None
    for label, witness in checks:
        details.append(f"{label}: {'holds' if witness is None else 'FAILS'}")
        if witness is not None and bad is None:
            bad = (label, witness)
    if bad is None:
        return Verdict(True, prop, tuple(details))
    label, witness = bad
    row = witness[0]
    w = Witness(
        f"{label} fails at conditioning realization",
        memories=(("conditioned on", dict(zip(inputs, row))),),
    )
    return Verdict(False, prop, tuple(details), w)


# --- Share-based circuit invariant ---------------------------------------------

def check_gmw_invariant(protocol: Protocol, wire: str, part: Partition,
                        preproc=None) -> Verdict:
    """Invariant of share-based circuit evaluation at a wire, before
    decoding: the reconstructed wire is determined by the secrets, the
    messages the corrupt coalition receives from honest clients are joint
    uniform noise given the secrets, and the wire is independent of its
    share pair given the secrets."""
    prop = f"gmw-invariant[{wire}, corrupt={{{','.join(map(str, sorted(part.corrupt)))}}}]"
    secrets = _dealt_secrets(protocol, preproc)
    shares = tuple(sorted((v for v in protocol.message_vars() if v.name == wire),
                          key=lambda v: v.owner))
    if len(shares) != 2:
        raise UsageError(f"wire {wire} does not have exactly two shares")
    received = tuple(v for v in corrupt_views(protocol, part) if v.kind == MESG)
    gw = Var(GLOBAL, wire)
    p = projected_bd(protocol, secrets + shares + received, preproc)
    p = p.with_global_views([wire])
    checks = (
        (f"cond_det(S -> {gw})", p.cond_det_witness(secrets, (gw,))),
        (f"cond_uni(S -> received messages {{{','.join(map(str, received))}}})",
         p.cond_uni_witness(secrets, received)),
        (f"cond_sep(S; {gw}; shares)", p.cond_sep_witness(secrets, (gw,), shares)),
    )
    return _condition_verdict(prop, secrets, checks)


# --- Adversary enumeration ------------------------------------------------------

def corrupt_positions(protocol: Protocol, part: Partition) -> tuple:
    return tuple(i for i, cmd in enumerate(protocol.commands)
                 if not isinstance(cmd, AssertCmd)
                 and computing_client(cmd) in part.corrupt)


def enumerate_adversaries(protocol: Protocol, part: Partition,
                          tables_budget: int = 0, preproc=None,
                          max_strategies: int = 100000,
                          positions=None) -> tuple:
    """Deterministic strategy family, identity first.

    With tables_budget = 0: every combination of constant replacements at
    corrupt-computed commands.  With a positive budget and at most that
    many corrupt positions: every view-dependent replacement, where each
    position may compute any boolean function of the variables its client
    holds at that point (its own initial values, earlier messages, and
    reveals).  positions restricts the tampered commands to a subset of the
    corrupt-computed ones.
    """
    corrupt_pos = corrupt_positions(protocol, part)
    if positions is None:
        positions = corrupt_pos
    else:
        positions = tuple(positions)
        bad = [i for i in positions if i not in corrupt_pos]
        if bad:
            raise UsageError(f"positions {bad} are not corrupt-computed commands")
    tables = bool(tables_budget) and len(positions) <= tables_budget
    count = 1
    for i in positions:
        if tables:
            # keep, or one of the 2^rows truth tables over the visible bits;
            # 2^rows exceeds the budget once rows reaches its bit length,
            # so an astronomical count is never formed
            rows = 2 ** len(_visible_vars(protocol, part, i, preproc))
            if rows >= max_strategies.bit_length():
                raise BudgetError(f"strategy family exceeds {max_strategies}")
            count *= 1 + 2 ** rows
        else:
            count *= 3
        if count > max_strategies:
            raise BudgetError(f"strategy family exceeds {max_strategies}")
    if tables:
        option_lists = [[None] + _table_exprs(protocol, part, i, preproc)
                        for i in positions]
    else:
        option_lists = [[None, Const(0), Const(1)] for _ in positions]
    out = []
    for combo in itertools.product(*option_lists):
        replacements = tuple((i, e) for i, e in zip(positions, combo) if e is not None)
        if not replacements:
            out.append(IDENTITY)
            continue
        label = ", ".join(
            f"{assigned_var(protocol.commands[i])}:={_expr_label(e)}"
            for i, e in replacements
        )
        out.append(AdversaryStrategy(replacements, label=label))
    return tuple(out)


def _expr_label(e) -> str:
    from .ovt import format_expr

    return format_expr(e)


def _visible_vars(protocol: Protocol, part: Partition, position: int, preproc) -> tuple:
    """Variables the computing client of the command can read there."""
    client = computing_client(protocol.commands[position])
    seen = []
    initial = list(preproc.domain) if preproc is not None else []
    for v in protocol.secrets() + protocol.flips():
        if v not in initial:
            initial.append(v)
    for v in initial:
        if v.owner == client:
            seen.append(v)
    for cmd in protocol.commands[:position]:
        v = assigned_var(cmd)
        if v is None:
            continue
        if v.kind == REVEAL or v.owner == client:
            seen.append(v)
    return tuple(dict.fromkeys(seen))


def _table_exprs(protocol, part, position, preproc) -> list:
    vars_ = _visible_vars(protocol, part, position, preproc)
    assignments = list(itertools.product((0, 1), repeat=len(vars_)))
    out = []
    for fn_bits in range(2 ** len(assignments)):
        minterms = []
        for j, values in enumerate(assignments):
            if not (fn_bits >> j) & 1:
                continue
            lits = []
            for v, val in zip(vars_, values):
                ref = Ref(v.kind, v.name)
                lits.append(ref if val else Not(ref))
            term = lits[0] if lits else Const(1)
            for lit in lits[1:]:
                term = BinOp("and", term, lit)
            minterms.append(term)
        if not minterms:
            expr = Const(0)
        elif len(minterms) == len(assignments):
            expr = Const(1)
        else:
            expr = minterms[0]
            for t in minterms[1:]:
                expr = BinOp("or", expr, t)
        out.append(expr)
    return out


# --- Adversarial inputs ----------------------------------------------------------

MAX_SUBSET_TESTS = 2 ** 16  # independence tests of one adversarial_inputs call


def adversarial_inputs(pmf: Pmf, views, targets) -> tuple:
    """Least corrupt-to-honest views not independent of the targets.

    Tests candidate subsets by growing size: if any single view is
    dependent, the result is the set of dependent single views; otherwise
    pairs are tried, and so on, returning the union of the minimal
    dependent subsets of the first size at which any exist.  Before the
    subsets of a size are tried, BudgetError is raised if they would take
    the tests past MAX_SUBSET_TESTS.
    """
    present = tuple(v for v in views if v in pmf.domain)
    targets = tuple(t for t in targets if t in pmf.domain)
    if not targets:
        return ()
    tests = 0
    for k in range(1, len(present) + 1):
        tests += math.comb(len(present), k)
        if tests > MAX_SUBSET_TESTS:
            raise BudgetError(f"{tests} subset tests over {len(present)} views exceed "
                              f"the budget of {MAX_SUBSET_TESTS}")
        found = set()
        for subset in itertools.combinations(present, k):
            if not pmf.independent(subset, targets):
                found.update(subset)
        if found:
            return tuple(sorted(found, key=str))
    return ()


# --- Cheating detection -----------------------------------------------------------

def _scope_vars(protocol: Protocol, part: Partition, preproc, secret_scope: str) -> tuple:
    if secret_scope == "secrets":
        return owned_by(_dealt_secrets(protocol, preproc), part.honest)
    if secret_scope == "initial":
        initial = list(preproc.domain)
        for v in protocol.secrets() + protocol.flips():
            if v not in initial:
                initial.append(v)
        return tuple(v for v in dict.fromkeys(initial) if v.owner in part.honest)
    raise UsageError(f"unknown secret scope {secret_scope!r}")


def _response_vars(protocol: Protocol, part: Partition) -> tuple:
    outs_h = tuple(v for v in protocol.output_vars() if v.owner in part.honest)
    return tuple(dict.fromkeys(corrupt_views(protocol, part) + outs_h))


def _fold_family(protocol, part, strategies, preproc, keep) -> tuple:
    """Fold the passive protocol and every strategy once.  Returns the
    adversarial inputs, then the value matrices over keep of the passive
    table and of each strategy's table.  The adversarial inputs come from
    the dependence test on the uniform mixture of the passive distribution
    with the distribution of every strategy in the family, so views the
    adversary can influence become visible as dependencies."""
    from . import engine

    if preproc is None:
        preproc = default_preprocessing(protocol)
    dist_mod.check_deal(protocol, preproc)
    v_ch = tuple(dict.fromkeys(honest_views(protocol, part)))
    x_h = _response_vars(protocol, part)
    vars_ = tuple(dict.fromkeys(v_ch + x_h))
    passive = engine.fold(protocol, preproc)
    components, values = [], []
    for s in strategies:
        table = engine.fold(protocol, preproc, s, part)
        if s.replacements or s.abort_at:
            components.append(engine.project_pmf(table, vars_))
        values.append(engine.value_matrix(table, keep))
    mixture = engine.project_pmf(passive, vars_).mixed_with(components)
    return (adversarial_inputs(mixture, v_ch, x_h),
            engine.value_matrix(passive, keep), values)


def _first_unexplained(adv, passive) -> Optional[int]:
    """First row of the adversarial value matrix whose values on its
    non-BOT columns no passive row without BOT there shares; None when
    every row is explained.  Rows are tested in groups of one BOT pattern,
    by membership of their keys among the passive keys."""
    import numpy as np

    from . import engine

    defined = adv != engine.BOT_CODE
    patterns, group = np.unique(engine.row_keys(defined.view(np.uint8)),
                                return_inverse=True)
    first = None
    for g in range(len(patterns)):
        rows = np.flatnonzero(group == g)
        cols = defined[rows[0]]
        known = passive[:, cols]
        known = known[(known != engine.BOT_CODE).all(axis=1)]
        missing = ~np.isin(engine.row_keys(adv[rows][:, cols]),
                           engine.row_keys(known))
        if missing.any():
            row = int(rows[np.argmax(missing)])
            first = row if first is None else min(first, row)
    return first


def check_cheating_detection(protocol: Protocol, part: Partition, strategies,
                             preproc=None, secret_scope: str = "secrets") -> Verdict:
    """Every adversarial run is explained by some passive run: a run of the
    unmodified protocol agreeing on the adversarial inputs, the defined
    honest responses, and the honest secrets (secret_scope='secrets') or
    all honest-held initial values (secret_scope='initial')."""
    from . import engine

    prop = f"cheating-detection[scope={secret_scope}, corrupt={{{','.join(map(str, sorted(part.corrupt)))}}}]"
    if preproc is None:
        preproc = default_preprocessing(protocol)
    x_h_all = _response_vars(protocol, part)
    scope = _scope_vars(protocol, part, preproc, secret_scope)
    # the adversarial inputs are honest views, so keep covers every agreement
    keep = tuple(dict.fromkeys(honest_views(protocol, part) + x_h_all + scope))
    x_c, known, values = _fold_family(protocol, part, strategies, preproc, keep)
    inputs = f"adversarial inputs: {', '.join(map(str, x_c)) or '(none)'}"
    agree = tuple(dict.fromkeys(x_c + x_h_all + scope))
    cols = [keep.index(v) for v in agree]
    known = known[:, cols]
    for strategy, adv in zip(strategies, values):
        row = _first_unexplained(adv[:, cols], known)
        if row is not None:
            m = engine.memory_at(engine.fold(protocol, preproc, strategy, part), row)
            w = Witness(
                f"no passive run explains the adversarial run (strategy: {strategy.describe()})",
                memories=(
                    ("adversarial run", m),
                    ("agreement realization", {v: m[v] for v in agree if m[v] is not BOT}),
                ),
            )
            return Verdict(False, prop, (inputs,), w)
    details = (
        inputs,
        f"{len(known) * len(strategies)} adversarial runs over {len(strategies)} strategies explained",
    )
    return Verdict(True, prop, details)


# --- Integrity ----------------------------------------------------------------------

def _count_table(table, cond_vars, resp_vars) -> dict:
    """The runs of a fold grouped by their codes over cond_vars: condition
    key -> [runs, {response key over resp_vars: runs}], each key the
    engine.row_keys of the code row."""
    from . import engine

    codes, counts, _ = engine.distinct_rows(table, cond_vars + resp_vars)
    conds = engine.row_keys(codes[:, :len(cond_vars)]).tolist()
    responses = engine.row_keys(codes[:, len(cond_vars):]).tolist()
    out: dict = {}
    for ck, rk, c in zip(conds, responses, counts.tolist()):
        entry = out.setdefault(ck, [0, {}])
        entry[0] += c
        entry[1][rk] = c
    return out


def _bit_rows(n: int):
    """The 2**n assignments of n bits as uint8 rows, in itertools.product
    order: column j is bit n-1-j of the row index."""
    import numpy as np

    from . import engine

    rows = np.empty((2 ** n, n), dtype=np.uint8)
    for j in range(n):
        rows[:, j] = engine.bit_column(2 ** n, n - 1 - j)
    return rows


def check_integrity(protocol: Protocol, part: Partition, strategies,
                    preproc=None, secret_scope: str = "secrets") -> Verdict:
    """Every adversarial run is explained by substituting corrupt inputs:
    conditioned on the dealt inputs and the messages the adversary actually
    delivered, the distribution of the defined honest responses matches the
    passive conditional under some input memory that agrees with the honest
    inputs (secret_scope='secrets' substitutes corrupt secrets only,
    'initial' also substitutes corrupt preprocessing draws).

    Runs on the F_2 fold: each conditional is a table of integer run
    counts, and two are equal when their counts are proportional."""
    import numpy as np

    from . import engine

    prop = f"integrity[scope={secret_scope}, corrupt={{{','.join(map(str, sorted(part.corrupt)))}}}]"
    if preproc is None:
        preproc = default_preprocessing(protocol)
    dist_mod.check_deal(protocol, preproc)
    x_h_all = _response_vars(protocol, part)
    v_ch = tuple(dict.fromkeys(honest_views(protocol, part)))
    if secret_scope == "secrets":
        inputs = _dealt_secrets(protocol, preproc)
        if 2 ** len(inputs) > engine.MAX_RUNS:
            raise BudgetError(f"{2 ** len(inputs)} candidate inputs exceed "
                              f"the run budget of {engine.MAX_RUNS}")
        candidates = _bit_rows(len(inputs))
    elif secret_scope == "initial":
        inputs = tuple(preproc.domain)
        columns = preproc.columns()
        candidates = np.empty((preproc.count(), len(inputs)), dtype=np.uint8)
        for j, v in enumerate(inputs):
            candidates[:, j] = columns[v]
    else:
        raise UsageError(f"unknown secret scope {secret_scope!r}")
    vars_ = inputs + v_ch + x_h_all
    n_in, n_cond = len(inputs), len(inputs) + len(v_ch)
    honest_cols = [j for j, v in enumerate(inputs) if v.owner in part.honest]
    # candidates sorted by their honest inputs' keys, to be found by searchsorted
    honest = engine.row_keys(candidates[:, honest_cols])
    by_honest = np.argsort(honest)
    honest = honest[by_honest]
    passive = engine.fold(protocol, preproc)
    passive_tables: dict = {}
    for strategy in strategies:
        table = engine.fold(protocol, preproc, strategy, part)
        adv = engine.value_matrix(table, vars_)
        defined = adv != engine.BOT_CODE
        # a condition: inputs, honest views (BOT kept), response BOT pattern
        conditions = np.concatenate([adv[:, :n_cond], defined[:, n_cond:]], axis=1)
        _, first = np.unique(engine.row_keys(conditions), return_index=True)
        rows = np.sort(first)
        adv_tables: dict = {}
        honest_keys = engine.row_keys(adv[rows][:, honest_cols])
        bounds = zip(np.searchsorted(honest, honest_keys).tolist(),
                     np.searchsorted(honest, honest_keys, "right").tolist())
        for row, (lo, hi) in zip(rows.tolist(), bounds):
            delivered = [j for j in range(n_in, n_cond) if defined[row, j]]
            responses = [j for j in range(n_cond, len(vars_)) if defined[row, j]]
            pattern = (tuple(delivered), tuple(responses))
            cond_cols = list(range(n_in)) + delivered
            if pattern not in adv_tables:
                cond_vars = tuple(vars_[j] for j in cond_cols)
                resp_vars = tuple(vars_[j] for j in responses)
                adv_tables[pattern] = _count_table(table, cond_vars, resp_vars)
                if pattern not in passive_tables:
                    passive_tables[pattern] = _count_table(passive, cond_vars, resp_vars)
            # row 0: the condition; then each matching candidate's inputs
            # with the delivered views of the condition
            matching = by_honest[lo:hi]
            lookup = np.empty((1 + len(matching), len(cond_cols)), dtype=np.uint8)
            lookup[0] = adv[row, cond_cols]
            lookup[1:, :n_in] = candidates[matching]
            lookup[1:, n_in:] = adv[row, delivered]
            lhs_key, *keys = engine.row_keys(lookup).tolist()
            lhs = adv_tables[pattern][lhs_key]
            rhs_table = passive_tables[pattern]
            if not any(k in rhs_table and same_conditional(lhs, rhs_table[k])
                       for k in keys):
                m = engine.memory_at(table, row)
                given = {v: m[v] for v in inputs}
                given.update((v, m[v]) for v in v_ch if m[v] is not BOT)
                w = Witness(
                    f"no input substitution reproduces the honest responses "
                    f"(strategy: {strategy.describe()})",
                    memories=(
                        ("adversarial run", m),
                        ("conditioned on", given),
                    ),
                )
                return Verdict(False, prop, (), w)
    return Verdict(True, prop, (f"{len(strategies)} strategies explained",))


# --- Partitions -----------------------------------------------------------------

def all_partitions(protocol: Protocol, max_corrupt: Optional[int] = None) -> tuple:
    """Every partition with a nonempty corrupt strict subset, smallest first."""
    fed = sorted(protocol.federation)
    if max_corrupt is None:
        max_corrupt = len(fed) - 1
    out = []
    for k in range(1, max_corrupt + 1):
        for corrupt in itertools.combinations(fed, k):
            out.append(Partition.of(fed, corrupt))
    return tuple(out)
