"""Hyperproperty checks over exact run distributions.

The check_* functions decide passive correctness, noninterference modulo
output, gradual release, the AND gate conditioning conditions, the
share-based circuit invariant, cheating detection, and integrity.  Each
check tests count tables, dist.Pmf, on whole columns: over F_2 the runs
of the vectorized fold in engine.py counted by engine.distinct_rows (the
passive checks fold and count a block of runs at a time through
projected_bd and engine.count_runs); over F_p the marginal of bd.  No
check builds a key tuple per row.  Every failing verdict carries a
witness that can be recomputed from the distributions.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from . import dist as dist_mod
from .dist import (
    Functionality, Pmf, UniformPreprocessing, bd, bd_domain,
    default_preprocessing,
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

def projected_bd(protocol: Protocol, vars_, preproc=None) -> Pmf:
    """The basic distribution over the given variables, repeats dropped,
    its rows in first-run order: over F_2 counted on the fold block by
    block, with no run table held; over F_p the marginal of bd."""
    from . import engine

    if preproc is None:
        preproc = default_preprocessing(protocol)
    vars_ = tuple(dict.fromkeys(vars_))
    if protocol.modulus != 2:
        return bd(protocol, preproc).marginal(vars_)
    dist_mod.check_deal(protocol, preproc)
    return engine.project_runs(protocol, preproc, vars_)


# --- Passive correctness ------------------------------------------------------

def check_passive_correct(protocol: Protocol, fn: Functionality,
                          preproc=None) -> Verdict:
    """Every run computes the functionality of its secrets with probability
    one: outputs equal F(secrets) in each enumerated run, no aborts."""
    from . import engine

    prop = "passive-correct"
    if preproc is None:
        preproc = default_preprocessing(protocol)
    if set(fn.secrets) != set(_dealt_secrets(protocol, preproc)):
        raise UsageError("functionality secrets differ from the dealt secrets")
    if set(fn.outputs) != set(protocol.output_vars()):
        raise UsageError("functionality outputs differ from protocol outputs")
    dist_mod.check_deal(protocol, preproc)
    # each distinct row of abort bit, secrets and outputs, with its first run
    codes, counts, first = engine.count_runs(
        protocol, preproc, fn.secrets + fn.outputs, abort_lead=True)
    n = 1 + len(fn.secrets)
    bad = [f for row, f in zip(codes.tolist(), first.tolist())
           if row[0] or fn.table.get(tuple(row[1:n])) != tuple(row[n:])]
    if not bad:
        return Verdict(True, prop, (f"all {int(counts.sum())} runs agree with the functionality",))
    row = min(bad)
    final = engine.memory_at(engine.fold(protocol, preproc, block=(row, row + 1)), 0)
    want = fn.apply({s: final[s] for s in fn.secrets})
    w = Witness(
        "run output differs from the functionality",
        memories=(("run", final), ("expected outputs", want)),
    )
    return Verdict(False, prop, (), w)


# --- Noninterference modulo output -------------------------------------------

def _initial_vars(protocol: Protocol, preproc) -> tuple:
    """Variables of the initial memories: the dealt ones, then the secrets
    and coin flips the deal leaves out."""
    dealt = tuple(preproc.domain) if preproc is not None else ()
    return tuple(dict.fromkeys(dealt + protocol.secrets() + protocol.flips()))


def _dealt_secrets(protocol: Protocol, preproc) -> tuple:
    """Secrets of the run distribution: dealt by the preprocessing plus any
    referenced directly by commands."""
    return tuple(v for v in _initial_vars(protocol, preproc) if v.kind == SECRET)


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
    witness = p.cond_shift_witness(x1, views, s_h)
    if witness is None:
        checked = len(p._groups(x1 + views)[1])
        return Verdict(True, prop, (f"{checked} positive view realizations checked",))
    key1, key2, diff, before, after = witness
    w = Witness(
        "conditioning on corrupt views changes the honest-secret distribution",
        memories=(
            ("m1 (corrupt secrets and outputs)", dict(zip(x1, key1))),
            ("m2 (corrupt views)", dict(zip(views, key2))),
            ("honest secrets", dict(zip(s_h, diff))),
        ),
        numbers=(("P(secrets | m1)", before), ("P(secrets | m1, m2)", after)),
    )
    return Verdict(False, prop, (), w)


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
    witness = projected_bd(protocol, m_c + s_h, preproc).independent_witness(m_c, s_h)
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
    p = projected_bd(protocol, bd_domain(protocol, preproc), preproc)
    p = p.with_global_views([x, y, z])
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

MAX_STRATEGIES = 100000  # strategies of one enumerate_adversaries family
MAX_SUBSET_TESTS = 2 ** 16  # independence tests of one adversarial_inputs call


def corrupt_positions(protocol: Protocol, part: Partition) -> tuple:
    return tuple(i for i, cmd in enumerate(protocol.commands)
                 if not isinstance(cmd, AssertCmd)
                 and computing_client(cmd) in part.corrupt)


def enumerate_adversaries(protocol: Protocol, part: Partition,
                          tables_budget: int = 0, preproc=None,
                          positions=None) -> tuple:
    """Deterministic strategy family, identity first.

    With tables_budget = 0: every combination of constant replacements at
    corrupt-computed commands.  With a positive budget and at most that
    many corrupt positions: every view-dependent replacement, where each
    position may compute any boolean function of the variables its client
    holds at that point (its own initial values, earlier messages, and
    reveals).  positions restricts the tampered commands to a subset of the
    corrupt-computed ones, each named once.  A negative budget or a
    repeated position raises UsageError, and a family of more than
    MAX_STRATEGIES strategies BudgetError, before any is built.
    """
    corrupt_pos = corrupt_positions(protocol, part)
    if tables_budget < 0:
        raise UsageError(f"negative strategy budget {tables_budget}")
    if positions is None:
        positions = corrupt_pos
    else:
        positions = tuple(positions)
        bad = [i for i in positions if i not in corrupt_pos]
        if bad or len(set(positions)) < len(positions):
            raise UsageError(f"positions {bad} are not corrupt-computed commands" if bad
                             else f"positions {list(positions)} repeat an index")
    tables = bool(tables_budget) and len(positions) <= tables_budget
    count = 1
    for i in positions:
        if tables:
            # keep, or one of the 2^rows truth tables over the visible bits;
            # 2^rows exceeds the budget once rows reaches its bit length,
            # so an astronomical count is never formed
            rows = 2 ** len(_visible_vars(protocol, part, i, preproc))
            if rows >= MAX_STRATEGIES.bit_length():
                raise BudgetError(f"strategy family exceeds {MAX_STRATEGIES}")
            count *= 1 + 2 ** rows
        else:
            count *= 3
        if count > MAX_STRATEGIES:
            raise BudgetError(f"strategy family exceeds {MAX_STRATEGIES}")
    if tables:
        option_lists = [[None] + _table_exprs(protocol, part, i, preproc)
                        for i in positions]
    else:
        option_lists = [[None, Const(0), Const(1)] for _ in positions]
    # each option once as ((position, expression), label)
    option_lists = [[None] + [((i, e), f"{assigned_var(protocol.commands[i])}:={_expr_label(e)}")
                              for e in options[1:]]
                    for i, options in zip(positions, option_lists)]
    out = []
    for combo in itertools.product(*option_lists):
        chosen = [c for c in combo if c is not None]
        if not chosen:
            out.append(IDENTITY)
            continue
        replacements, labels = zip(*chosen)
        out.append(AdversaryStrategy(replacements, label=", ".join(labels)))
    return tuple(out)


def _expr_label(e) -> str:
    from .ovt import format_expr

    return format_expr(e)


def _visible_vars(protocol: Protocol, part: Partition, position: int, preproc) -> tuple:
    """Variables the computing client of the command can read there."""
    client = computing_client(protocol.commands[position])
    seen = [v for v in _initial_vars(protocol, preproc) if v.owner == client]
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

def adversarial_inputs(dist, views, targets) -> tuple:
    """Least corrupt-to-honest views not independent of the targets in a
    dist.Pmf.

    Tests candidate subsets by growing size: if any single view is
    dependent, the result is the set of dependent single views; otherwise
    pairs are tried, and so on, returning the union of the minimal
    dependent subsets of the first size at which any exist.  Before the
    subsets of a size are tried, BudgetError is raised if they would take
    the tests past MAX_SUBSET_TESTS.
    """
    present = tuple(v for v in views if v in dist.domain)
    targets = tuple(t for t in targets if t in dist.domain)
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
            if not dist.independent(subset, targets):
                found.update(subset)
        if found:
            return tuple(sorted(found, key=str))
    return ()


# --- Cheating detection -----------------------------------------------------------

def _scope_vars(protocol: Protocol, part: Partition, preproc, secret_scope: str) -> tuple:
    if secret_scope == "secrets":
        return owned_by(_dealt_secrets(protocol, preproc), part.honest)
    if secret_scope == "initial":
        return owned_by(_initial_vars(protocol, preproc), part.honest)
    raise UsageError(f"unknown secret scope {secret_scope!r}")


def _response_vars(protocol: Protocol, part: Partition) -> tuple:
    outs_h = tuple(v for v in protocol.output_vars() if v.owner in part.honest)
    return tuple(dict.fromkeys(corrupt_views(protocol, part) + outs_h))


def _first_unexplained(table, agree, known) -> Optional[int]:
    """The first run of the table whose codes over agree, on their non-BOT
    columns, no row of known (the passive runs' distinct code rows over
    agree) without BOT there shares; None when every run is explained.
    The table's distinct rows are tested in groups of one BOT pattern, by
    membership of their keys among the passive keys."""
    import numpy as np

    from . import engine

    adv, _, first = engine.distinct_rows(table, agree)
    defined = adv != engine.BOT_CODE
    patterns, group = np.unique(engine.row_keys(defined), return_inverse=True)
    unexplained = []
    for g in range(len(patterns)):
        rows = np.flatnonzero(group == g)
        cols = defined[rows[0]]
        passive = known[:, cols]
        passive = passive[(passive != engine.BOT_CODE).all(axis=1)]
        missing = ~np.isin(engine.row_keys(adv[rows][:, cols]),
                           engine.row_keys(passive))
        unexplained += first[rows[missing]].tolist()
    return min(unexplained, default=None)


def check_cheating_detection(protocol: Protocol, part: Partition, strategies,
                             preproc=None, secret_scope: str = "secrets") -> Verdict:
    """Every adversarial run is explained by some passive run: a run of the
    unmodified protocol agreeing on the adversarial inputs, the defined
    honest responses, and the honest secrets (secret_scope='secrets') or
    all honest-held initial values (secret_scope='initial').

    The family is folded as stacked runs, chunk by chunk (engine.chunks),
    in two passes.  The first counts the rows over the honest views and
    responses of the passive runs and of every tampering strategy's runs,
    as the parts of one engine.count_parts: in that uniform mixture of the
    passive distribution with each strategy's, the views the adversary can
    influence show as dependencies, and the adversarial inputs are the
    least dependent ones.  The second finds the first stacked row no
    passive run explains: the first failing strategy's first failing run."""
    from . import engine

    prop = f"cheating-detection[scope={secret_scope}, corrupt={{{','.join(map(str, sorted(part.corrupt)))}}}]"
    if preproc is None:
        preproc = default_preprocessing(protocol)
    x_h_all = _response_vars(protocol, part)
    scope = _scope_vars(protocol, part, preproc, secret_scope)
    dist_mod.check_deal(protocol, preproc)
    spans = engine.chunks(protocol, preproc, engine.family_of(strategies))
    v_ch = tuple(dict.fromkeys(honest_views(protocol, part)))
    vars_ = tuple(dict.fromkeys(v_ch + x_h_all))
    passive = engine.fold(protocol, preproc)
    table = None  # the last chunk's table

    def mixture():  # the passive runs, then each chunk's tampered runs
        nonlocal table
        yield passive, None, ()
        for _, family in spans:
            table = engine.fold(protocol, preproc, family, part)
            tampered = family.choice.any(axis=1).repeat(passive.nrows)
            yield table, None if tampered.all() else tampered, ()

    codes, counts, _ = engine.count_parts(mixture(), vars_, first=False)
    x_c = adversarial_inputs(Pmf(vars_, codes, counts, int(counts.sum())), v_ch, x_h_all)
    inputs = f"adversarial inputs: {', '.join(map(str, x_c)) or '(none)'}"
    agree = tuple(dict.fromkeys(x_c + x_h_all + scope))
    known, _, _ = engine.distinct_rows(passive, agree, first=False)
    for lo, family in spans:
        if len(spans) > 1:  # else the one chunk's table is still at hand
            table = engine.fold(protocol, preproc, family, part)
        row = _first_unexplained(table, agree, known)
        if row is not None:
            strategy = strategies[lo + row // passive.nrows]
            m = engine.memory_at(table, row)
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
        f"{passive.nrows * len(strategies)} adversarial runs over {len(strategies)} strategies explained",
    )
    return Verdict(True, prop, details)


# --- Integrity ----------------------------------------------------------------------

def _conditionals(codes, counts, ncond: int, ids: dict):
    """engine.distinct_rows output grouped by its first ncond codes: each
    group's first row and an id from ids, equal exactly when two groups
    give the same conditional: the same response rows with proportional
    counts, which is the same counts once each group's are divided by
    their gcd."""
    import numpy as np

    from . import engine

    cond = engine.row_keys(codes[:, :ncond])
    starts = np.flatnonzero(np.r_[True, cond[1:] != cond[:-1]])
    ends = np.r_[starts[1:], len(cond)]
    reduced = (counts // np.gcd.reduceat(counts, starts).repeat(ends - starts)).tolist()
    # ids are compared only within a pattern: integer keys of two widths can coincide
    responses = engine.row_keys(codes[:, ncond:]).tolist()
    sig = [ids.setdefault(tuple(zip(responses[lo:hi], reduced[lo:hi])), len(ids))
           for lo, hi in zip(starts.tolist(), ends.tolist())]
    return starts, np.array(sig, dtype=np.intp)


def check_integrity(protocol: Protocol, part: Partition, strategies,
                    preproc=None, secret_scope: str = "secrets") -> Verdict:
    """Every adversarial run is explained by substituting corrupt inputs:
    conditioned on the dealt inputs and the messages the adversary actually
    delivered, the distribution of the defined honest responses matches the
    passive conditional under some input memory that agrees with the honest
    inputs (secret_scope='secrets' substitutes corrupt secrets only,
    'initial' also substitutes corrupt preprocessing draws).

    Runs on the F_2 fold, with the family folded as stacked runs chunk by
    chunk (engine.chunks).  The bits of each row's strategy index lead its
    condition key, so one engine.distinct_rows per chunk and response
    pattern counts every strategy's conditionals.  Only the input memories
    of passive runs can match, and each is a dealt memory or an assignment
    of the secrets, so the conditions of a chunk are keyed as one matrix
    and looked up among the passive conditionals: a condition is explained
    when one agrees on the honest inputs and the delivered views and has
    the same id (_conditionals)."""
    import numpy as np

    from . import engine

    prop = f"integrity[scope={secret_scope}, corrupt={{{','.join(map(str, sorted(part.corrupt)))}}}]"
    if preproc is None:
        preproc = default_preprocessing(protocol)
    dist_mod.check_deal(protocol, preproc)
    spans = engine.chunks(protocol, preproc, engine.family_of(strategies))
    x_h_all = _response_vars(protocol, part)
    v_ch = tuple(dict.fromkeys(honest_views(protocol, part)))
    if secret_scope == "secrets":
        inputs = _dealt_secrets(protocol, preproc)
    elif secret_scope == "initial":
        inputs = tuple(preproc.domain)
    else:
        raise UsageError(f"unknown secret scope {secret_scope!r}")
    vars_ = inputs + v_ch + x_h_all
    n_in, n_cond = len(inputs), len(inputs) + len(v_ch)
    honest_cols = [j for j, v in enumerate(inputs) if v.owner in part.honest]
    passive = engine.fold(protocol, preproc)
    passive_tables: dict = {}
    ids: dict = {}
    for lo, family in spans:
        table = engine.fold(protocol, preproc, family, part)
        index = np.arange(len(family.choice))
        lead = [(index >> b & 1).astype(np.uint8).repeat(passive.nrows)
                for b in reversed(range(len(index).bit_length()))]
        # the distinct rows of strategy bits and codes over vars_, by first run
        codes, _, first = engine.distinct_rows(table, vars_, lead=lead)
        order = np.argsort(first)
        codes, first = codes[order], first[order]
        n_lead = len(lead)
        c_in, c_cond = n_lead + n_in, n_lead + n_cond
        defined = codes != engine.BOT_CODE
        # a condition: strategy, inputs, honest views (BOT kept), response BOT pattern
        conditions = np.concatenate([codes[:, :c_cond], defined[:, c_cond:]], axis=1)
        rows = np.sort(np.unique(engine.row_keys(conditions), return_index=True)[1])
        patterns, of_row = np.unique(engine.row_keys(defined[rows, c_in:]),
                                     return_inverse=True)
        failed = []
        for g in range(len(patterns)):
            at = rows[of_row == g]
            delivered = [j for j in range(c_in, c_cond) if defined[at[0], j]]
            responses = [j for j in range(c_cond, codes.shape[1]) if defined[at[0], j]]
            cond_cols = list(range(c_in)) + delivered
            cond_vars = tuple(vars_[j - n_lead] for j in cond_cols[n_lead:])
            resp_vars = tuple(vars_[j - n_lead] for j in responses)
            # what a substitution keeps: the honest inputs and the delivered views
            kept = honest_cols + list(range(n_in, len(cond_vars)))
            pattern = (tuple(delivered), tuple(responses))
            if pattern not in passive_tables:
                known, counts, _ = engine.distinct_rows(passive, cond_vars + resp_vars,
                                                        first=False)
                starts, known_ids = _conditionals(known, counts, len(cond_vars), ids)
                passive_tables[pattern] = known[starts][:, kept], known_ids
            adv, counts, _ = engine.distinct_rows(table, cond_vars + resp_vars, lead=lead,
                                                  first=False)
            starts, adv_ids = _conditionals(adv, counts, len(cond_cols), ids)
            own = np.searchsorted(engine.row_keys(adv[starts][:, :len(cond_cols)]),
                                  engine.row_keys(codes[at][:, cond_cols]))
            known, known_ids = passive_tables[pattern]
            shared = [n_lead + j for j in honest_cols] + delivered
            shared = np.concatenate([known, codes[at][:, shared]])
            _, shared = np.unique(engine.row_keys(shared), return_inverse=True)
            key = shared * len(ids) + np.concatenate([known_ids, adv_ids[own]])
            explained = np.isin(key[len(known):], key[:len(known)])
            failed += at[~explained][:1].tolist()
        if failed:
            row = int(first[min(failed)])
            m = engine.memory_at(table, row)
            given = {v: m[v] for v in inputs}
            given.update((v, m[v]) for v in v_ch if m[v] is not BOT)
            w = Witness(
                f"no input substitution reproduces the honest responses "
                f"(strategy: {strategies[lo + row // passive.nrows].describe()})",
                memories=(
                    ("adversarial run", m),
                    ("conditioned on", given),
                ),
            )
            return Verdict(False, prop, (), w)
    return Verdict(True, prop, (f"{len(strategies)} strategies explained",))


# --- Partitions -----------------------------------------------------------------

def all_partitions(protocol: Protocol, max_corrupt: Optional[int] = None) -> tuple:
    """Every partition with a nonempty corrupt strict subset of at most
    max_corrupt clients (any by default), smallest first."""
    fed = sorted(protocol.federation)
    if max_corrupt is not None and max_corrupt < 1:
        raise UsageError(f"max corrupt {max_corrupt} is below 1: no partition to check")
    out = []
    for k in range(1, min(len(fed) - 1, max_corrupt or len(fed)) + 1):
        for corrupt in itertools.combinations(fed, k):
            out.append(Partition.of(fed, corrupt))
    return tuple(out)
