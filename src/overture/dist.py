"""Exact distributions over protocol runs.

A Pmf is the one representation of a distribution: an integer matrix of
distinct code rows over a fixed variable domain, each with the number of
runs that end in it, out of one total shared by the whole distribution.
A code is the value, or the modulus for BOT, which pads the entries of
aborted runs.  Marginals, conditionals, mixtures and every check's test
(one conditional-independence test serves independence, conditional
separation and noninterference; conditioned determinism, uniformity and
the <m[w]> global views are column operations) add integers over whole
columns and compare by cross-multiplication.  Fractions are built only
where a probability is returned, and key tuples only for the rows a
witness names, or once per Pmf for its weights view (key tuple ->
Fraction) and the dict-shaped API around it.

bd(protocol) is the basic distribution: uniform over the runs produced by
every (preprocessing memory, random tape) pair.  Over F_2 it is the fold's
count table as engine.project_runs returns it; over F_p, Pmf.from_dict of
the interpreter's runs.

Conditioning predicates quantify over realizations of the conditioning set
with positive probability; rows of probability zero are skipped (the
conditional itself is defined as 0 there).
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Optional

from .errors import BudgetError, UsageError
from .interp import AdversaryStrategy, run, run_adv
from .lang import BOT, GLOBAL, MESG, Partition, Protocol, Var, violations_of

# --- Preprocessing enumerators ----------------------------------------------

class Preprocessing:
    """Enumerable set of preprocessing memories over a fixed domain.

    An F_2 deal may describe itself, so that the engine compiles it into
    the protocol's program: description is (free, pinned, derived), where
    memory i's free[j] is bit j of i (least significant first), pinned maps
    variables to constants, and derived lists (variable, expression) pairs
    in order, an expression being a deal variable or (op, e1, e2) with op
    "xor" or "and".  None: the memories are read from memories(), which a
    described deal reads from its columns."""

    domain: tuple = ()
    modulus: int = 2
    description = None

    def count(self) -> int:
        raise NotImplementedError

    def memories(self) -> Iterable[dict]:
        cols = self.columns()
        for i in range(self.count()):
            yield {v: int(cols[v][i]) for v in self.domain}

    def columns(self):
        """Columnar view for the vectorized engine: dict var -> uint8 array
        of one entry per memory, in memories() order, built from the
        description, else read from memories()."""
        import numpy as np

        from .engine import bit_column

        n = self.count()
        if self.description is None:
            cols = {v: np.empty(n, dtype=np.uint8) for v in self.domain}
            for i, m in enumerate(self.memories()):
                for v in self.domain:
                    cols[v][i] = m[v]
            return cols
        free, pinned, derived = self.description
        cols = {v: bit_column(n, i) for i, v in enumerate(free)}
        cols.update((v, np.full(n, x, dtype=np.uint8)) for v, x in pinned.items())

        def value(e):
            if isinstance(e, Var):
                return cols[e]
            return (np.bitwise_xor if e[0] == "xor" else np.bitwise_and)(value(e[1]), value(e[2]))

        for v, e in derived:
            cols[v] = value(e)
        return cols


class UniformPreprocessing(Preprocessing):
    """All assignments of the given variables: the default deals exactly
    the secrets, uniformly.  Over F_2 memory i's bits, first variable most
    significant, are its description's free variables."""

    def __init__(self, domain, modulus: int = 2):
        self.domain = tuple(domain)
        self.modulus = modulus
        if len(set(self.domain)) != len(self.domain):
            raise UsageError("duplicate variables in preprocessing domain")
        if modulus == 2:
            self.description = (self.domain[::-1], {}, ())

    def count(self) -> int:
        return self.modulus ** len(self.domain)

    def memories(self):
        for values in itertools.product(range(self.modulus), repeat=len(self.domain)):
            yield dict(zip(self.domain, values))


class ExplicitPreprocessing(Preprocessing):
    def __init__(self, domain, memories, modulus: int = 2):
        self.domain = tuple(domain)
        self.modulus = modulus
        self._memories = [dict(m) for m in memories]
        self._columns = None
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

    def columns(self):
        """Preprocessing.columns, built on first use and kept read-only:
        every block of a count reads them."""
        if self._columns is None:
            self._columns = super().columns()
            for col in self._columns.values():
                col.flags.writeable = False
        return self._columns


def default_preprocessing(protocol: Protocol) -> Preprocessing:
    return UniformPreprocessing(protocol.secrets(), protocol.modulus)


# --- Pmf ---------------------------------------------------------------------

def _key_of(memory: dict, domain) -> tuple:
    return tuple(memory[v] for v in domain)


def domain_positions(domain, vars_) -> tuple:
    """Index of each variable in the domain; UsageError names the missing."""
    index = {v: i for i, v in enumerate(domain)}
    missing = [v for v in vars_ if v not in index]
    if missing:
        raise UsageError(f"not in pmf domain: {', '.join(map(str, missing))}")
    return tuple(index[v] for v in vars_)


@dataclass(frozen=True)
class Pmf:
    """A distribution as code rows: counts[i] of total runs end in the
    memory codes[i] over domain, no two rows equal (mixed_with and __eq__
    stack rows that _groups then adds up).  A code is the value, or the
    modulus for BOT, so engine.distinct_rows output (BOT_CODE = 2) is an
    F_2 Pmf.  Every test runs here, on whole columns; "the first" failing
    realization of a conditioning set is the one whose first row comes
    first: first-run order for engine.project_runs and bd, the dict's
    order for from_dict."""

    domain: tuple
    codes: object   # (rows, len(domain)) integer matrix
    counts: object  # run count of each row
    total: int
    modulus: int = 2

    def __post_init__(self):
        if len(set(self.domain)) != len(self.domain):
            raise UsageError("duplicate variables in pmf domain")

    @staticmethod
    def from_dict(domain, counts: dict, total: int, modulus: int = 2) -> "Pmf":
        """The Pmf whose rows are the keys of counts, value tuples over
        domain (BOT where a value is), in the dict's order, each counted
        counts[key] runs out of total."""
        import numpy as np

        codes = np.array([[modulus if x is BOT else x for x in key] for key in counts],
                         dtype=np.int64).reshape(len(counts), len(domain))
        return Pmf(tuple(domain), codes, np.array(list(counts.values()), dtype=np.int64),
                   total, modulus)

    @staticmethod
    def point(memory: dict, modulus: int = 2) -> "Pmf":
        domain = tuple(sorted(memory, key=str))
        return Pmf.from_dict(domain, {_key_of(memory, domain): 1}, 1, modulus)

    def __eq__(self, other):
        """The same domain and rows, with proportional counts."""
        import numpy as np

        if not (isinstance(other, Pmf) and self.domain == other.domain
                and self.modulus == other.modulus):
            return False
        lcm = math.lcm(self.total, other.total)
        stacked = Pmf(self.domain, np.concatenate([self.codes, other.codes]),
                      np.concatenate([self._scaled(lcm), -other._scaled(lcm)]), lcm,
                      self.modulus)
        # each side's rows are distinct, so a row cancels only against the other side's
        return not stacked._groups(self.domain)[1].any()

    def _scaled(self, lcm: int):
        """The counts out of lcm runs instead of total, exact: int64 while
        lcm fits it (no count passes its total), else Python ints."""
        import numpy as np

        return self.counts.astype(np.int64 if lcm < 2 ** 63 else object) * (lcm // self.total)

    @cached_property
    def weights(self) -> dict:
        """key tuple -> Fraction, in row order: the one view that holds a
        key tuple per row, built on first use."""
        counts = self.counts.tolist()
        of = {c: Fraction(c, self.total) for c in set(counts)}
        return {k: of[c] for k, c in zip(self.keys(), counts)}

    def support(self):
        return self.weights.items()

    def memory(self, key) -> dict:
        return dict(zip(self.domain, key))

    def keys(self, vars_=None, rows=slice(None)) -> list:
        """The key tuples over vars_ (the domain by default) of the rows at
        the given indices (all by default), BOT for the code modulus: the
        rows that hold it are cast to objects and BOT written over it."""
        import numpy as np

        codes = (self.codes if vars_ is None else self._columns(vars_))[rows]
        bot = codes == self.modulus
        keys, marked = codes.tolist(), np.flatnonzero(bot.any(axis=1))
        if len(marked):
            objects = codes[marked].astype(object)
            objects[bot[marked]] = BOT
            for j, key in zip(marked.tolist(), objects.tolist()):
                keys[j] = key
        for j, key in enumerate(keys):
            keys[j] = tuple(key)  # in place, so the row lists and the key tuples are never all held at once
        return keys

    def _columns(self, vars_):
        """The code columns of vars_, in their order."""
        return self.codes[:, list(domain_positions(self.domain, vars_))]

    def _where(self, vars_, key):
        """Bool mask of the rows whose key over vars_ is key; a value that
        is no code's matches no row."""
        import numpy as np

        want = [self.modulus if x is BOT else x if x in range(self.modulus) else -1
                for x in key]
        return (self._columns(vars_) == np.array(want, dtype=np.int64)).all(axis=1)

    def _matching(self, vars_, key) -> "Pmf":
        """The rows whose key over vars_ is key, out of their own runs."""
        rows = self._where(vars_, key)
        counts = self.counts[rows]
        return Pmf(self.domain, self.codes[rows], counts, int(counts.sum()), self.modulus)

    def _count(self, partial: dict) -> int:
        return int(self.counts[self._where(tuple(partial), tuple(partial.values()))].sum())

    def prob(self, partial: dict) -> Fraction:
        """Probability that all entries of the partial memory hold."""
        return Fraction(self._count(partial), self.total)

    def cond_prob(self, m1: dict, m2: dict) -> Fraction:
        """P(m1 | m2); 0 when P(m2) = 0."""
        denom = self._count(m2)
        if denom == 0:
            return Fraction(0)
        both = dict(m2)
        for v, x in m1.items():
            if v in both and both[v] != x:
                return Fraction(0)
            both[v] = x
        return Fraction(self._count(both), denom)

    def _first_rows(self, vars_):
        """One row of each realization of vars_ and its run count, in the
        order of their first rows."""
        import numpy as np

        _, mass, first = self._groups(vars_)
        order = np.argsort(first)
        return first[order], mass[order]

    def marginal(self, vars_) -> "Pmf":
        vars_ = tuple(vars_)
        rows, mass = self._first_rows(vars_)
        return Pmf(vars_, self._columns(vars_)[rows], mass, self.total, self.modulus)

    def conditional(self, x1, x2) -> "CondTable":
        x1, x2 = tuple(x1), tuple(x2)
        rows, mass = self._first_rows(tuple(dict.fromkeys(x1 + x2)))
        table: dict = {}
        masses: dict = {}
        for k1, k2, c in zip(self.keys(x1, rows), self.keys(x2, rows), mass.tolist()):
            table.setdefault(k1, {})[k2] = c
            masses[k1] = masses.get(k1, 0) + c
        return CondTable(x1, x2, table, masses, self.modulus)

    def mixed_with(self, others) -> "Pmf":
        """Uniform mixture of self with the given same-domain pmfs: each
        one's counts scaled to the lcm of the totals, equal rows added."""
        import numpy as np

        all_ = [self, *others]
        for p in all_:
            if p.domain != self.domain:
                raise UsageError("mixture requires identical domains")
        lcm = math.lcm(*(p.total for p in all_))
        stacked = Pmf(self.domain, np.concatenate([p.codes for p in all_]),
                      np.concatenate([p._scaled(lcm) for p in all_]),
                      lcm * len(all_), self.modulus)
        return stacked.marginal(self.domain)

    def _groups(self, vars_):
        """Each row's group 0, 1, ... by its codes over vars_, each group's
        run count (exact: Python ints once total ** 2 passes int64) and
        one row of each group."""
        import numpy as np

        from . import engine

        if self.modulus < 256:
            # engine._column_keys' key of each row: every code, BOT's included, fits a byte
            columns = (self.codes[:, j].astype(np.uint8, copy=False)
                       for j in domain_positions(self.domain, vars_))
            keys = engine._column_keys(columns, self.modulus.bit_length(), len(vars_),
                                       len(self.codes))
        else:
            # codes past a byte, which pack_keys cannot pack: each row's own bytes,
            # after a zero column that keeps the key nonempty when vars_ is empty
            codes = self._columns(vars_)
            rows = np.zeros((len(codes), 1 + len(vars_)), dtype=codes.dtype)
            rows[:, 1:] = codes
            keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
        _, first, group = np.unique(keys, return_index=True, return_inverse=True)
        mass = np.zeros(len(first), dtype=np.int64 if self.total < 2 ** 31 else object)
        np.add.at(mass, group, self.counts)
        return group, mass, first

    def _masses(self, *var_sets) -> list:
        """For each set of variables, each row's run count over its
        realization of them."""
        return [mass[group] for group, mass, _ in map(self._groups, var_sets)]

    def _table(self, vars_) -> dict:
        """Key tuple over vars_ -> run count, for the positive keys."""
        _, mass, first = self._groups(vars_)
        return dict(zip(self.keys(vars_, first), mass.tolist()))

    def _dependent(self, x1, x2, x3):
        """The conditional-independence test, one bool per row: whether
        joint(k1, a, b) * m(k1) != m(k1, a) * m(k1, b) at the row's
        realizations k1, a, b of x1, x2, x3, m counting runs.  x2 and x3
        are independent given x1 exactly when no row is: summed over the
        support of a k1, the products m(k1, a) * m(k1, b) then make up
        m(k1) ** 2, all of their mass, so no pair of positive marginals
        lies outside the support."""
        x1, x2, x3 = tuple(x1), tuple(x2), tuple(x3)
        m1, m12, m13, m123 = self._masses(x1, x1 + x2, x1 + x3, x1 + x2 + x3)
        return m123 * m1 != m12 * m13

    def independent(self, x1, x2) -> bool:
        return not self._dependent((), x1, x2).any()

    def _first_failing(self, x1, bad):
        """None when the bool mask bad holds no row; else the first
        x1-realization with a row in it, the one whose first row comes
        first: its key and all of its rows."""
        import numpy as np

        if not bad.any():
            return None
        group = self._groups(x1)[0]
        k1 = self.keys(x1, [np.argmax(np.isin(group, group[bad]))])[0]
        return k1, self._matching(x1, k1)

    def _least_failing(self, x1, x2, x3):
        """None when x2 and x3 are independent given x1; else the str-least
        k1, then k2, then k3 where m(k1, k2, k3) * m(k1) != m(k1, k2) *
        m(k1, k3), m counting runs, with m(k1), m(k1, k2), m(k1, k3) and
        m(k1, k2, k3).  Each of k1 and k2 is the str-least with a row the
        test fails: the conditionals of x3 given it and given the condition
        alone both sum to 1, so where they differ the first is the larger
        somewhere on its own support."""
        bad = self._dependent(x1, x2, x3)
        if not bad.any():
            return None
        k1 = min(set(self.keys(x1, bad)), key=str)
        given = self._matching(x1, k1)
        k2 = min(set(given.keys(x2, given._dependent((), x2, x3))), key=str)
        inner = given._matching(x2, k2)
        m3, joint = given._table(x3), inner._table(x3)
        k3 = min((k for k, c in m3.items() if joint.get(k, 0) * given.total != inner.total * c),
                 key=str)
        return k1, k2, k3, given.total, inner.total, m3[k3], joint.get(k3, 0)

    def independent_witness(self, x1, x2):
        """None when x1 and x2 are independent; else (k1, k2, joint, product)
        at the first pair of realizations, in str order, where the joint
        probability is not the product of the marginals."""
        found = self._least_failing((), x1, x2)
        if found is None:
            return None
        _, k1, k2, n, n1, n2, n12 = found
        return k1, k2, Fraction(n12, n), Fraction(n1 * n2, n * n)

    def _cond_witness(self, x1, x2, bad):
        """(k1, {k2: P(k2 | k1)}) at the first x1-realization with a row in
        the bool mask bad; None when there is none."""
        found = self._first_failing(x1, bad)
        if found is None:
            return None
        k1, rows = found
        return k1, {k2: Fraction(c, rows.total) for k2, c in rows._table(x2).items()}

    def cond_det(self, x1, x2) -> bool:
        return self.cond_det_witness(x1, x2) is None

    def cond_det_witness(self, x1, x2):
        """None when, for every positive x1-realization, some x2-realization
        has conditional probability 1; else an offending row.  Where one
        has, every row of the x1-realization holds it and all of its mass."""
        m1, m12 = self._masses(x1, tuple(x1) + tuple(x2))
        return self._cond_witness(x1, x2, m12 != m1)

    def cond_uni(self, x1, x2) -> bool:
        return self.cond_uni_witness(x1, x2) is None

    def cond_uni_witness(self, x1, x2):
        """None when, given every positive x1-realization, each x2-realization
        present has a modulus ** len(x2)-th of the mass (so all are) and
        none holds BOT; else an offending row."""
        m1, m12 = self._masses(x1, tuple(x1) + tuple(x2))
        full = self.modulus ** len(x2)
        bad = (self._columns(x2) == self.modulus).any(axis=1)
        # with more values than runs none is uniform, and m12 * full could overflow
        bad |= m12 * full != m1 if full <= self.total else True
        return self._cond_witness(x1, x2, bad)

    def cond_sep(self, x1, x2, x3) -> bool:
        return self.cond_sep_witness(x1, x2, x3) is None

    def cond_sep_witness(self, x1, x2, x3):
        """None when x2 and x3 are independent given every positive
        x1-realization; else (k1, a, b, P(a, b | k1), P(a | k1) * P(b | k1))
        at the first failing k1 and its str-least failing pair."""
        found = self._first_failing(x1, self._dependent(x1, x2, x3))
        if found is None:
            return None
        k1, rows = found
        return (k1,) + rows.independent_witness(x2, x3)

    def cond_shift_witness(self, x1, x2, x3):
        """None when x2 and x3 are independent given x1, that is P(x3 | k1)
        = P(x3 | k1, k2) at every positive realization k1, k2 of x1, x2;
        else (k1, k2, k3, P(k3 | k1), P(k3 | k1, k2)) at the str-least
        (k1, k2, k3) where the two differ."""
        found = self._least_failing(x1, x2, x3)
        if found is None:
            return None
        k1, k2, k3, n1, n12, n13, n123 = found
        return k1, k2, k3, Fraction(n13, n1), Fraction(n123, n12)

    def with_global_views(self, names) -> "Pmf":
        """Extend with synthetic variables <m[w]>: the field sum of all
        shares m[w]@i present in the domain (BOT if any share is BOT)."""
        import numpy as np

        names, columns = tuple(dict.fromkeys(names)), [self.codes]
        for w in names:
            vs = [v for v in self.domain if v.kind == MESG and v.name == w]
            if len(vs) < 2:
                raise UsageError(f"global view <m[{w}]> needs at least two shares in domain")
            shares = self._columns(vs).astype(np.int64)
            columns.append(np.where((shares == self.modulus).any(axis=1), self.modulus,
                                    shares.sum(axis=1) % self.modulus))
        return Pmf(self.domain + tuple(Var(GLOBAL, w) for w in names),
                   np.column_stack(columns), self.counts, self.total, self.modulus)


@dataclass(frozen=True)
class CondTable:
    """Conditional distribution over x2 given each positive x1-realization:
    rows[k1][k2] runs out of masses[k1] have x2-realization k2."""

    x1: tuple
    x2: tuple
    rows: dict    # x1 key -> {x2 key -> count}
    masses: dict  # x1 key -> runs with that key
    modulus: int = 2

    def prob(self, m2_key, m1_key) -> Fraction:
        row = self.rows.get(m1_key)
        if row is None:
            return Fraction(0)
        return Fraction(row.get(m2_key, 0), self.masses[m1_key])

    def witness(self, m1_key):
        mass = self.masses.get(m1_key, 1)
        return (m1_key, {k2: Fraction(c, mass)
                         for k2, c in self.rows.get(m1_key, {}).items()})


# --- Functionalities ---------------------------------------------------------

@dataclass(frozen=True)
class Functionality:
    """Total map from secret memories to output memories, tabulated."""

    secrets: tuple
    outputs: tuple
    table: dict  # secret key -> output key
    modulus: int = 2

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
        var = parse_var(var)
        try:
            out.append((var, int(val)))
        except ValueError:
            raise UsageError(f"expected an integer value, got {part!r}")
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


def check_deal(protocol: Protocol, preproc: Preprocessing):
    """UsageError unless the deal is nonempty and covers the protocol's reads."""
    if preproc.count() == 0:
        raise UsageError("preprocessing enumerator is empty")
    violations = violations_of(protocol, preproc.domain)
    if violations:
        raise UsageError("invalid protocol: " + "; ".join(violations))


def bd(protocol: Protocol, preproc: Optional[Preprocessing] = None,
       strategy: Optional[AdversaryStrategy] = None,
       part: Optional[Partition] = None) -> Pmf:
    """Basic distribution of the protocol: uniform over all runs.

    With a strategy and partition, the distribution is over adversarial
    runs, aborted runs BOT-padded.  Over F_2 the runs are enumerated by the
    vectorized fold; over F_p, which the fold does not cover, by the
    reference interpreter.  Either way more than engine.MAX_RUNS runs raise
    BudgetError before the first run.
    """
    from . import engine

    if preproc is None:
        preproc = default_preprocessing(protocol)
    check_deal(protocol, preproc)
    domain = bd_domain(protocol, preproc)
    if protocol.modulus == 2:
        return engine.project_runs(protocol, preproc, domain, strategy, part)
    total = engine._runs(protocol, preproc)
    counts: dict = {}
    for m0 in _initial_memories(protocol, preproc):
        final = run(m0, protocol) if strategy is None \
            else run_adv(m0, protocol, strategy, part)
        key = _key_of(final, domain)
        counts[key] = counts.get(key, 0) + 1
    return Pmf.from_dict(domain, counts, total, protocol.modulus)


def bd_adv(protocol: Protocol, strategy: AdversaryStrategy, part: Partition,
           preproc: Optional[Preprocessing] = None) -> Pmf:
    """Basic distribution under an active adversary (BOT-padded aborts)."""
    return bd(protocol, preproc, strategy, part)


# --- Pmf text ----------------------------------------------------------------

CHUNK_BYTES = 1 << 20  # pmf text is written in pieces of about this size
_PAD = 0  # template byte a cell narrower than its column leaves unfilled
_F2_LABELS = ("0", "1", str(BOT))  # labels of the codes 0, 1 and BOT_CODE


def render_pmf(write, names, labels, codes, counts, total: int) -> None:
    """Write one line per row of codes, in the rows' order: the cells
    names[j]=labels[j][codes[i, j]], then weight=NUM/DEN for counts[i] /
    total in lowest terms, separated by spaces.

    Every line is cut from one byte template that holds each cell at its
    column's widest label and the weight at the widest weight; one weight
    cell is made per distinct count.  The rows are rendered CHUNK_BYTES of
    template at a time (at least one line), and each chunk is passed to
    write as a str before the next is built.  Only when some column's
    labels or the weight cells differ in width are the pad bytes of a
    chunk dropped, with one mask."""
    import numpy as np

    weights, which = np.unique(counts, return_inverse=True)
    wcells = ["{0.numerator}/{0.denominator}".format(Fraction(int(c), total)).encode()
              for c in weights]
    cells = [[x.encode() for x in col] for col in labels]
    widths = [max(map(len, col), default=0) for col in cells]
    wwidth = max(map(len, wcells), default=0)
    padded = any(len(x) != w for col, w in zip(cells, widths) for x in col) \
        or any(len(x) != wwidth for x in wcells)
    # column j's labels are the rows from base[j] on of lut
    base = np.cumsum([0] + [len(col) for col in cells[:-1]], dtype=np.intp)
    lut = _byte_rows([x for col in cells for x in col], max(widths, default=0))
    wtable = _byte_rows(wcells, wwidth)
    template, starts = bytearray(), []
    for name, w in zip(names, widths):
        template += f"{name}=".encode()
        starts.append(len(template))
        template += bytes([_PAD]) * w + b" "
    template += b"weight="
    wstart = len(template)
    template += bytes([_PAD]) * wwidth + b"\n"
    template = np.frombuffer(template, dtype=np.uint8)
    starts, widths = np.array(starts, dtype=np.intp), np.array(widths)
    # byte k of the value slots: the columns at least k + 1 wide
    slots = [np.flatnonzero(widths > k) for k in range(max(widths, default=0))]
    step = max(1, CHUNK_BYTES // len(template))
    for lo in range(0, len(codes), step):
        chunk = codes[lo:lo + step]
        buf = np.empty((len(chunk), len(template)), dtype=np.uint8)
        buf[:] = template
        for k, cols in enumerate(slots):
            buf[:, starts[cols] + k] = lut[chunk[:, cols] + base[cols], k]
        buf[:, wstart:wstart + wwidth] = wtable[which[lo:lo + step]]
        write((buf[buf != _PAD] if padded else buf).tobytes().decode())


def _byte_rows(cells, width: int):
    """The byte strings as the rows of a uint8 matrix width wide, _PAD after each."""
    import numpy as np

    out = np.full((len(cells), width), _PAD, dtype=np.uint8)
    for r, x in enumerate(cells):
        out[r, :len(x)] = np.frombuffer(x, dtype=np.uint8)
    return out


def write_pmf(write, vars_, count) -> int:
    """Write the pmf text over vars_ of the runs that count counts: the
    lines format_pmf gives for that distribution, made with no Pmf and no
    key tuple.  count(vars) returns engine.distinct_rows output over the
    variables in the order given.  Over F_2 every line holds the same
    cells in the same order and "0" < "1" < "bot", with the separator
    below every value character, so the lines sort as the code rows in
    display-column order do: they are counted in that order, and
    render_pmf writes them a chunk at a time.  Returns the number of runs
    counted (with none, no line)."""
    from . import engine

    names = [str(v) for v in vars_]
    order = sorted(range(len(names)), key=names.__getitem__)
    codes, counts, _ = count([vars_[i] for i in order])
    has_bot = (codes == engine.BOT_CODE).any(axis=0).tolist()
    labels = [_F2_LABELS if b else _F2_LABELS[:2] for b in has_bot]
    total = int(counts.sum())
    render_pmf(write, [names[i] for i in order], labels, codes, counts, total)
    return total


def format_pmf(pmf: Pmf) -> str:
    """One line per support memory: var=val pairs sorted lexicographically
    by name (equal names keep domain order), then weight=NUM/DEN.

    Each column's distinct values are ranked by their text, so the lines
    sort as the rank rows do (np.lexsort; every line has the same cells,
    and the separator sorts below every value character, so "10" < "9" as
    text), and render_pmf writes the text; linear in support x domain
    apart from the sort."""
    import numpy as np

    names = [str(v) for v in pmf.domain]
    order = sorted(range(len(names)), key=names.__getitem__)
    codes = np.empty((len(pmf.codes), len(order)), dtype=np.intp)
    labels = []
    for j, i in enumerate(order):
        values, which = np.unique(pmf.codes[:, i], return_inverse=True)
        text = [str(BOT) if x == pmf.modulus else str(x) for x in values.tolist()]
        ranked = sorted(range(len(text)), key=text.__getitem__)
        rank = np.empty(len(text), dtype=np.intp)
        rank[ranked] = np.arange(len(text))
        codes[:, j] = rank[which]
        labels.append([text[r] for r in ranked])
    counts = pmf.counts
    if order:
        sort = np.lexsort(codes.T[::-1])
        codes, counts = codes[sort], counts[sort]
    out: list = []
    render_pmf(out.append, [names[i] for i in order], labels, codes, counts, pmf.total)
    return "".join(out) or "\n"  # no support: one empty line, as ever
