"""Exact distributions over protocol runs.

A Pmf assigns Fraction weights to memories over a fixed variable domain.
Keys are value tuples aligned with the domain; BOT marks padded entries of
aborted runs.  bd(protocol) is the basic distribution: uniform over the
runs produced by every (preprocessing memory, random tape) pair.

Conditioning predicates quantify over realizations of the conditioning set
with positive probability; rows of probability zero are skipped (the
conditional itself is defined as 0 there).
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Optional

from .errors import EvalError, UsageError
from .interp import IDENTITY, AdversaryStrategy, run, run_adv
from .lang import (
    BOT, GLOBAL, MESG, Partition, Protocol, Var, assigned_var, mem_restrict,
    validate,
)

ZERO = Fraction(0)
ONE = Fraction(1)


# --- Preprocessing enumerators ----------------------------------------------

class Preprocessing:
    """Enumerable set of preprocessing memories over a fixed domain."""

    domain: tuple = ()
    modulus: int = 2

    def count(self) -> int:
        raise NotImplementedError

    def memories(self) -> Iterable[dict]:
        raise NotImplementedError

    def columns(self):
        """Columnar view for the vectorized engine: dict var -> uint8 array."""
        import numpy as np

        n = self.count()
        cols = {v: np.empty(n, dtype=np.uint8) for v in self.domain}
        for i, m in enumerate(self.memories()):
            for v in self.domain:
                cols[v][i] = m[v]
        return cols


class UniformPreprocessing(Preprocessing):
    """All assignments of the given variables: the default deals exactly
    the secrets, uniformly."""

    def __init__(self, domain, modulus: int = 2):
        self.domain = tuple(domain)
        self.modulus = modulus
        if len(set(self.domain)) != len(self.domain):
            raise UsageError("duplicate variables in preprocessing domain")

    def count(self) -> int:
        return self.modulus ** len(self.domain)

    def memories(self):
        for values in itertools.product(range(self.modulus), repeat=len(self.domain)):
            yield dict(zip(self.domain, values))

    def columns(self):
        from .engine import bit_column

        if self.modulus != 2:
            return super().columns()
        n, last = self.count(), len(self.domain) - 1
        return {v: bit_column(n, last - i) for i, v in enumerate(self.domain)}


class ExplicitPreprocessing(Preprocessing):
    def __init__(self, domain, memories, modulus: int = 2):
        self.domain = tuple(domain)
        self.modulus = modulus
        self._memories = [dict(m) for m in memories]
        for m in self._memories:
            if set(m) != set(self.domain):
                raise UsageError("preprocessing memory domain mismatch")
            for v, value in m.items():
                if value not in range(modulus):
                    raise UsageError(f"preprocessing value {value!r} for {v} out of range")

    def count(self) -> int:
        return len(self._memories)

    def memories(self):
        return iter(self._memories)


def default_preprocessing(protocol: Protocol) -> Preprocessing:
    return UniformPreprocessing(protocol.secrets(), protocol.modulus)


# --- Pmf ---------------------------------------------------------------------

def _key_of(memory: dict, domain) -> tuple:
    return tuple(memory[v] for v in domain)


@dataclass(frozen=True)
class Pmf:
    domain: tuple
    weights: dict  # key tuple -> Fraction
    modulus: int = 2

    def __post_init__(self):
        if len(set(self.domain)) != len(self.domain):
            raise UsageError("duplicate variables in pmf domain")

    @staticmethod
    def from_counts(domain, counts: dict, total: int, modulus: int = 2) -> "Pmf":
        w = {k: Fraction(c, total) for k, c in counts.items() if c}
        return Pmf(tuple(domain), w, modulus)

    @staticmethod
    def point(memory: dict, modulus: int = 2) -> "Pmf":
        domain = tuple(sorted(memory, key=str))
        return Pmf(domain, {_key_of(memory, domain): ONE}, modulus)

    def mass(self) -> Fraction:
        return sum(self.weights.values(), ZERO)

    def support(self):
        return self.weights.items()

    def memory(self, key) -> dict:
        return dict(zip(self.domain, key))

    def _positions(self, vars_) -> tuple:
        index = {v: i for i, v in enumerate(self.domain)}
        missing = [v for v in vars_ if v not in index]
        if missing:
            raise UsageError(f"not in pmf domain: {', '.join(map(str, missing))}")
        return tuple(index[v] for v in vars_)

    def marginal(self, vars_) -> "Pmf":
        vars_ = tuple(vars_)
        pos = self._positions(vars_)
        out: dict = {}
        for key, w in self.weights.items():
            sub = tuple(key[i] for i in pos)
            out[sub] = out.get(sub, ZERO) + w
        return Pmf(vars_, out, self.modulus)

    def prob(self, partial: dict) -> Fraction:
        """Probability that all entries of the partial memory hold."""
        pos = self._positions(tuple(partial))
        want = tuple(partial[v] for v in partial)
        total = ZERO
        for key, w in self.weights.items():
            if tuple(key[i] for i in pos) == want:
                total += w
        return total

    def cond_prob(self, m1: dict, m2: dict) -> Fraction:
        """P(m1 | m2); 0 when P(m2) = 0."""
        denom = self.prob(m2)
        if denom == 0:
            return ZERO
        both = dict(m2)
        for v, x in m1.items():
            if v in both and both[v] != x:
                return ZERO
            both[v] = x
        return self.prob(both) / denom

    def conditional(self, x1, x2) -> "CondTable":
        x1, x2 = tuple(x1), tuple(x2)
        p1 = self._positions(x1)
        p2 = self._positions(x2)
        rows: dict = {}
        masses: dict = {}
        for key, w in self.weights.items():
            k1 = tuple(key[i] for i in p1)
            k2 = tuple(key[i] for i in p2)
            rows.setdefault(k1, {})
            rows[k1][k2] = rows[k1].get(k2, ZERO) + w
            masses[k1] = masses.get(k1, ZERO) + w
        for k1, row in rows.items():
            mass = masses[k1]
            for k2 in row:
                row[k2] /= mass
        return CondTable(x1, x2, rows, self.modulus)

    def independent(self, x1, x2) -> bool:
        return self.independent_witness(x1, x2) is None

    def independent_witness(self, x1, x2):
        """None when x1 and x2 are independent; else (k1, k2, joint, product)."""
        x1, x2 = tuple(x1), tuple(x2)
        joint = self.marginal(x1 + x2)
        m1 = self.marginal(x1)
        m2 = self.marginal(x2)
        n1 = len(x1)
        pairs = set()
        for key in joint.weights:
            pairs.add((key[:n1], key[n1:]))
        for k1 in m1.weights:
            for k2 in m2.weights:
                pairs.add((k1, k2))
        for k1, k2 in sorted(pairs, key=str):
            lhs = joint.weights.get(k1 + k2, ZERO)
            rhs = m1.weights.get(k1, ZERO) * m2.weights.get(k2, ZERO)
            if lhs != rhs:
                return (k1, k2, lhs, rhs)
        return None

    def cond_det(self, x1, x2) -> bool:
        return self.cond_det_witness(x1, x2) is None

    def cond_det_witness(self, x1, x2):
        """None when, for every positive x1-realization, some x2-realization
        has conditional probability 1; else an offending row."""
        table = self.conditional(x1, x2)
        for k1, row in table.rows.items():
            if not any(w == ONE for w in row.values()):
                return table.witness(k1)
        return None

    def cond_uni(self, x1, x2) -> bool:
        return self.cond_uni_witness(x1, x2) is None

    def cond_uni_witness(self, x1, x2):
        x2 = tuple(x2)
        want = Fraction(1, self.modulus ** len(x2))
        table = self.conditional(x1, x2)
        full = self.modulus ** len(x2)
        for k1, row in table.rows.items():
            if len(row) != full or any(w != want for w in row.values()):
                return table.witness(k1)
            if any(BOT in k2 for k2 in row):
                return table.witness(k1)
        return None

    def cond_sep(self, x1, x2, x3) -> bool:
        return self.cond_sep_witness(x1, x2, x3) is None

    def cond_sep_witness(self, x1, x2, x3):
        """None when x2 and x3 are independent conditioned on every positive
        x1-realization."""
        x1, x2, x3 = tuple(x1), tuple(x2), tuple(x3)
        joint = self.conditional(x1, x2 + x3)
        t2 = self.conditional(x1, x2)
        t3 = self.conditional(x1, x3)
        n2 = len(x2)
        for k1, row in joint.rows.items():
            row2 = t2.rows.get(k1, {})
            row3 = t3.rows.get(k1, {})
            pairs = set()
            for key in row:
                pairs.add((key[:n2], key[n2:]))
            for a in row2:
                for b in row3:
                    pairs.add((a, b))
            for a, b in pairs:
                lhs = row.get(a + b, ZERO)
                rhs = row2.get(a, ZERO) * row3.get(b, ZERO)
                if lhs != rhs:
                    return (k1, a, b, lhs, rhs)
        return None

    def with_global_views(self, names) -> "Pmf":
        """Extend with synthetic variables <m[w]>: the field sum of all
        shares m[w]@i present in the domain (BOT if any share is BOT)."""
        shares = {}
        for w in names:
            vs = [v for v in self.domain if v.kind == MESG and v.name == w]
            if len(vs) < 2:
                raise UsageError(f"global view <m[{w}]> needs at least two shares in domain")
            shares[w] = self._positions(vs)
        new_domain = self.domain + tuple(Var(GLOBAL, w) for w in shares)
        out: dict = {}
        for key, wt in self.weights.items():
            extra = []
            for w, pos in shares.items():
                vals = [key[i] for i in pos]
                if any(v is BOT for v in vals):
                    extra.append(BOT)
                else:
                    extra.append(sum(vals) % self.modulus)
            k = key + tuple(extra)
            out[k] = out.get(k, ZERO) + wt
        return Pmf(new_domain, out, self.modulus)

    def mixed_with(self, others) -> "Pmf":
        """Uniform mixture of self with the given same-domain pmfs."""
        all_ = [self, *others]
        for p in all_:
            if p.domain != self.domain:
                raise UsageError("mixture requires identical domains")
        n = len(all_)
        out: dict = {}
        for p in all_:
            for key, w in p.weights.items():
                out[key] = out.get(key, ZERO) + w / n
        return Pmf(self.domain, out, self.modulus)


@dataclass(frozen=True)
class CondTable:
    """Conditional distribution over x2 given each positive x1-realization."""

    x1: tuple
    x2: tuple
    rows: dict  # x1 key -> {x2 key -> Fraction}
    modulus: int = 2

    def prob(self, m2_key, m1_key) -> Fraction:
        row = self.rows.get(m1_key)
        if row is None:
            return ZERO
        return row.get(m2_key, ZERO)

    def row_pmf(self, m1_key) -> Pmf:
        return Pmf(self.x2, dict(self.rows.get(m1_key, {})), self.modulus)

    def witness(self, m1_key):
        return (m1_key, dict(self.rows.get(m1_key, {})))


# --- Functionalities ---------------------------------------------------------

@dataclass(frozen=True)
class Functionality:
    """Total map from secret memories to output memories, tabulated."""

    secrets: tuple
    outputs: tuple
    table: dict  # secret key -> output key
    modulus: int = 2

    @staticmethod
    def from_callable(secrets, outputs, fn: Callable, modulus: int = 2) -> "Functionality":
        secrets, outputs = tuple(secrets), tuple(outputs)
        table = {}
        for values in itertools.product(range(modulus), repeat=len(secrets)):
            m = dict(zip(secrets, values))
            result = fn(m)
            if set(result) != set(outputs):
                raise UsageError("functionality returned wrong output domain")
            table[values] = tuple(result[v] for v in outputs)
        return Functionality(secrets, outputs, table, modulus)

    def apply(self, memory: dict) -> dict:
        key = tuple(memory[v] for v in self.secrets)
        if key not in self.table:
            raise UsageError(f"no table row for {key}")
        return dict(zip(self.outputs, self.table[key]))

    def format(self) -> str:
        lines = []
        for key in sorted(self.table):
            ins = " ".join(f"{v}={x}" for v, x in zip(self.secrets, key))
            outs = " ".join(f"{v}={x}" for v, x in zip(self.outputs, self.table[key]))
            lines.append(f"{ins} -> {outs}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str, modulus: int = 2) -> "Functionality":
        from .lang import parse_var

        table = {}
        secrets = outputs = None
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "->" not in line:
                raise UsageError(f"functionality line missing '->': {raw!r}")
            left, right = line.split("->", 1)
            ins = _parse_assignments(left)
            outs = _parse_assignments(right)
            if secrets is None:
                secrets = tuple(v for v, _ in ins)
                outputs = tuple(v for v, _ in outs)
            if tuple(v for v, _ in ins) != secrets or tuple(v for v, _ in outs) != outputs:
                raise UsageError("inconsistent variable order across functionality lines")
            key = tuple(x for _, x in ins)
            if key in table:
                raise UsageError(f"duplicate functionality row {key}")
            table[key] = tuple(x for _, x in outs)
        if secrets is None:
            raise UsageError("empty functionality table")
        if len(table) != modulus ** len(secrets):
            raise UsageError("functionality table is not total")
        return Functionality(secrets, outputs, table, modulus)


def _parse_assignments(text: str):
    from .lang import parse_var

    out = []
    for part in text.split():
        if "=" not in part:
            raise UsageError(f"bad assignment {part!r}")
        var, val = part.rsplit("=", 1)
        out.append((parse_var(var), int(val)))
    return out


def kernel(fn: Functionality, out_memory: dict) -> tuple:
    """Secret memories mapped by the functionality into the given (possibly
    partial) output realization."""
    pos = [(i, out_memory[v]) for i, v in enumerate(fn.outputs) if v in out_memory]
    unknown = set(out_memory) - set(fn.outputs)
    if unknown:
        raise UsageError(f"not outputs of the functionality: {unknown}")
    found = []
    for key, out_key in sorted(fn.table.items()):
        if all(out_key[i] == x for i, x in pos):
            found.append(dict(zip(fn.secrets, key)))
    return tuple(found)


# --- Basic distributions -----------------------------------------------------

def bd_domain(protocol: Protocol, preproc: Preprocessing) -> tuple:
    domain = list(preproc.domain)
    seen = set(domain)
    for v in protocol.flips():
        if v in seen:
            raise UsageError(f"flip {v} clashes with preprocessing domain")
        domain.append(v)
        seen.add(v)
    for v in protocol.assigned():
        if v in seen:
            raise UsageError(f"{v} assigned and preprocessed")
        domain.append(v)
        seen.add(v)
    return tuple(domain)


def _initial_memories(protocol: Protocol, preproc: Preprocessing):
    flips = protocol.flips()
    p = protocol.modulus
    for base in preproc.memories():
        for tape in itertools.product(range(p), repeat=len(flips)):
            m = dict(base)
            m.update(zip(flips, tape))
            yield m


def _validate_for_bd(protocol: Protocol, preproc: Preprocessing):
    if preproc.count() == 0:
        raise UsageError("preprocessing enumerator is empty")
    violations = validate(protocol, preprocessed=preproc.domain)
    if violations:
        raise UsageError("invalid protocol: " + "; ".join(violations))


def bd(protocol: Protocol, preproc: Optional[Preprocessing] = None,
       strategy: Optional[AdversaryStrategy] = None,
       part: Optional[Partition] = None) -> Pmf:
    """Basic distribution of the protocol: uniform over all runs.

    With a strategy and partition, the distribution is over adversarial
    runs, aborted runs BOT-padded.  Over F_2 the runs are enumerated by the
    vectorized fold; over F_p, which the fold does not cover, by the
    reference interpreter.
    """
    if preproc is None:
        preproc = default_preprocessing(protocol)
    _validate_for_bd(protocol, preproc)
    if protocol.modulus == 2:
        from . import engine

        return engine.to_pmf(engine.fold(protocol, preproc, strategy, part))
    domain = bd_domain(protocol, preproc)
    counts: dict = {}
    for m0 in _initial_memories(protocol, preproc):
        final = run(m0, protocol) if strategy is None \
            else run_adv(m0, protocol, strategy, part)
        key = _key_of(final, domain)
        counts[key] = counts.get(key, 0) + 1
    total = preproc.count() * protocol.modulus ** len(protocol.flips())
    return Pmf.from_counts(domain, counts, total, protocol.modulus)


def bd_adv(protocol: Protocol, strategy: AdversaryStrategy, part: Partition,
           preproc: Optional[Preprocessing] = None) -> Pmf:
    """Basic distribution under an active adversary (BOT-padded aborts)."""
    return bd(protocol, preproc, strategy, part)


def format_pmf(pmf: Pmf) -> str:
    """One line per support memory: var=val pairs sorted lexicographically
    by name (equal names keep domain order), then weight=NUM/DEN.

    The text is built column by column: each name, the column order and
    each var=val cell that occurs are made once per call, so the cost is
    linear in support x domain."""
    keys = [key for key, _ in pmf.support()]
    names = [str(v) for v in pmf.domain]
    columns = []
    for i in sorted(range(len(names)), key=names.__getitem__):
        at = itemgetter(i)
        cell = {x: f"{names[i]}={x}" for x in set(map(at, keys))}
        columns.append(map(cell.__getitem__, map(at, keys)))
    columns.append(f"weight={w.numerator}/{w.denominator}" for _, w in pmf.support())
    lines = [" ".join(row) for row in zip(*columns)]
    return "\n".join(sorted(lines)) + "\n"
