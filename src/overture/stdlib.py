"""Bundled protocols, metaprogram libraries, and preprocessing deals.

The files under protocols/ at the root of the source tree are the only copy
of every bundled text: the manifest, the .ovt/.pre sources and the .fn
functionality tables are read from there when first needed, so the package
runs from a source checkout.  load_package resolves a manifest entry into a
parsed protocol together with its intended functionality and preprocessing.
"""

import functools
import os
from dataclasses import dataclass

from .dist import (
    Functionality, Preprocessing, UniformPreprocessing, default_preprocessing,
)
from .errors import UsageError
from .lang import MESG, SECRET, Protocol, Var
from .ovt import parse_protocol
from .prelude import expand


def gmw_main(inputs, gates, out_wire: str) -> str:
    """Metaprogram source for a circuit: inputs are (secret, owner) pairs,
    gates are (op, wire, lhs, rhs) with op 'and' or 'xor' and operands
    naming earlier wires or inputs."""
    lines = []
    for name, owner in inputs:
        other = 2 if owner == 1 else 1
        lines.append(f'let {name} = encodegmw("{name}", {other}, {owner}) in')
    wires = set(name for name, _ in inputs)
    for op, wire, lhs, rhs in gates:
        if op not in ("and", "xor"):
            raise UsageError(f"unknown gate {op}")
        if wire in wires:
            raise UsageError(f"duplicate wire {wire}")
        if lhs not in wires or rhs not in wires:
            raise UsageError(f"gate {wire} reads an undefined wire")
        wires.add(wire)
        fn = "andgmw" if op == "and" else "xorgmw"
        lines.append(f'let {wire} = {fn}("{wire}", {lhs}, {rhs}) in')
    lines.append(f'decodegmw("{out_wire}")')
    return "\n".join(lines) + "\n"


# --- Authenticated-share preprocessing -----------------------------------------

class BdozPreprocessing(Preprocessing):
    """Correlated deal of mac-authenticated xor shares for two parties.

    Every named value w is dealt as shares m[w1]@1, m[w2]@2 with
    mac(wi) = key(wi) + delta_j * wi, where party j holds key m[keywi]@j and
    its global m[delta]@j.  Values listed in secrets are bound to an input:
    share w2 equals s[w] + w1.  A triple (a, b, c) constrains c = a * b.
    fixed pins chosen free variables to constants, shrinking the deal to a
    slice when full enumeration is not needed."""

    def __init__(self, values=("x",), secrets=None, triple=None, fixed=None):
        self.values = tuple(values)
        self.secret_owners = dict(secrets or {})
        self.triple = tuple(triple) if triple else None
        self.fixed = dict(fixed or {})
        self.modulus = 2
        if self.triple is not None and len(self.triple) != 3:
            raise UsageError("triple must name three values")
        for w in self.secret_owners:
            if w not in self.values:
                raise UsageError(f"secret binding for unknown value {w}")
        if self.triple and any(w not in self.values for w in self.triple):
            raise UsageError("triple names must be dealt values")

        self.secret_vars = tuple(
            Var(SECRET, w, self.secret_owners[w])
            for w in self.values if w in self.secret_owners)
        domain = list(self.secret_vars)
        free = list(self.secret_vars)
        derived_c = self.triple[2] if self.triple else None
        for w in self.values:
            s1, s2 = Var(MESG, f"{w}1", 1), Var(MESG, f"{w}2", 2)
            domain += [s1, s2]
            free.append(s1)
            if w not in self.secret_owners and w != derived_c:
                free.append(s2)
        for w in self.values:
            domain += [Var(MESG, f"mac{w}1", 1), Var(MESG, f"mac{w}2", 2)]
        for w in self.values:
            k1, k2 = Var(MESG, f"key{w}1", 2), Var(MESG, f"key{w}2", 1)
            domain += [k1, k2]
            free += [k1, k2]
        deltas = (Var(MESG, "delta", 1), Var(MESG, "delta", 2))
        domain += list(deltas)
        free += list(deltas)
        for v, value in self.fixed.items():
            if v not in free:
                raise UsageError(f"{v} is not a free deal variable")
            if value not in (0, 1):
                raise UsageError(f"fixed value for {v} out of range")
            free.remove(v)
        self.domain = tuple(domain)
        self._free = tuple(free)
        derived = [(Var(MESG, f"{w}2", 2), ("xor", Var(SECRET, w, owner), Var(MESG, f"{w}1", 1)))
                   for w, owner in self.secret_owners.items()]
        if self.triple:  # c2 = (a1 + a2) * (b1 + b2) + c1
            a1, a2, b1, b2, c1, c2 = (Var(MESG, f"{w}{i}", i) for w in self.triple for i in (1, 2))
            derived.append((c2, ("xor", ("and", ("xor", a1, a2), ("xor", b1, b2)), c1)))
        derived += [(Var(MESG, f"mac{w}{i}", i),  # key(wi) + delta_j * wi, j the other party
                     ("xor", Var(MESG, f"key{w}{i}", 3 - i),
                      ("and", deltas[2 - i], Var(MESG, f"{w}{i}", i))))
                    for w in self.values for i in (1, 2)]
        self.description = (self._free, dict(self.fixed), tuple(derived))

    def count(self) -> int:
        return 2 ** len(self._free)


def bdoz_open_preprocessing() -> BdozPreprocessing:
    return BdozPreprocessing(values=("x",), secrets={"x": 1})


def bdoz_beaver_preprocessing() -> BdozPreprocessing:
    return BdozPreprocessing(values=("x", "y", "a", "b", "c"),
                             secrets={"x": 1, "y": 2},
                             triple=("a", "b", "c"))


def bdoz_beaver_trimmed() -> BdozPreprocessing:
    """Beaver deal sliced to 2^12 memories: triple shares and the keys of a
    and b are pinned to zero.  The opened differences then equal x and y
    directly, and the open checks still draw uniform keys through the x, y,
    and c terms, so abort behavior is exercised unchanged on the slice."""
    fixed = {Var(MESG, "a1", 1): 0, Var(MESG, "a2", 2): 0,
             Var(MESG, "b1", 1): 0, Var(MESG, "b2", 2): 0,
             Var(MESG, "c1", 1): 0,
             Var(MESG, "keya1", 2): 0, Var(MESG, "keya2", 1): 0,
             Var(MESG, "keyb1", 2): 0, Var(MESG, "keyb2", 1): 0}
    return BdozPreprocessing(values=("x", "y", "a", "b", "c"),
                             secrets={"x": 1, "y": 2},
                             triple=("a", "b", "c"), fixed=fixed)


def free_uniform(protocol: Protocol) -> Preprocessing:
    """Uniform deal over every secret or message read but never assigned."""
    assigned = set(protocol.assigned())
    free = set(v for v in protocol.iovars()
               if v not in assigned and v.kind in (SECRET, MESG))
    return UniformPreprocessing(tuple(sorted(free, key=str)), protocol.modulus)


PREPROCS = {
    "uniform": lambda protocol: default_preprocessing(protocol),
    "free": free_uniform,
    "bdoz-open": lambda protocol: bdoz_open_preprocessing(),
    "bdoz-beaver": lambda protocol: bdoz_beaver_preprocessing(),
    "bdoz-beaver-trim": lambda protocol: bdoz_beaver_trimmed(),
}


# --- Packages ----------------------------------------------------------------------

@dataclass(frozen=True)
class ProtocolPackage:
    name: str
    source: str
    libs: tuple = ()
    functionality: str = ""
    preproc: str = ""


def parse_manifest(text: str) -> dict:
    packages = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) < 2:
            raise UsageError(f"bad manifest line: {raw!r}")
        name, source = fields[0], fields[1]
        libs, fn, preproc = [], "", ""
        for opt in fields[2:]:
            if "=" not in opt:
                raise UsageError(f"bad manifest option {opt!r}")
            key, value = opt.split("=", 1)
            if key == "lib":
                libs.append(value)
            elif key == "fn":
                fn = value
            elif key == "preproc":
                preproc = value
            else:
                raise UsageError(f"unknown manifest option {key!r}")
        if name in packages:
            raise UsageError(f"duplicate package {name}")
        packages[name] = ProtocolPackage(name, source, tuple(libs), fn, preproc)
    return packages


def protocols_dir() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.normpath(os.path.join(here, "..", "..", "protocols"))


def read_source(fname: str) -> str:
    """Text of the bundled file fname under protocols_dir()."""
    path = os.path.join(protocols_dir(), fname)
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(f"cannot read bundled file {path}: {e.strerror}")


@functools.cache
def _packages() -> dict:
    return parse_manifest(read_source("manifest.txt"))


@functools.cache
def _functionalities() -> dict:
    names = dict.fromkeys(p.functionality for p in _packages().values() if p.functionality)
    return {name: Functionality.parse(read_source(f"{name}.fn")) for name in names}


def __getattr__(name: str):
    """PACKAGES (the manifest) and FUNCTIONALITIES (each <fn>.fn it names)
    are read on first use, so an unreadable bundled file is a UsageError
    where it is needed, not at import."""
    if name == "PACKAGES":
        return _packages()
    if name == "FUNCTIONALITIES":
        return _functionalities()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@functools.lru_cache(maxsize=32)
def protocol_of(text: str, libs: tuple, field: int, pre: bool, /) -> Protocol:
    """A .pre metaprogram expanded with the library texts libs (pre true),
    else .ovt text parsed over F_field: kept per text (positional, so equal
    arguments are one key), so a process builds it, and Protocol._memo,
    once.  Callers read their files on every call, so an edited file is a
    new text."""
    if pre:
        return expand(text, list(libs))
    return parse_protocol(text, modulus=field)


def load_protocol(pkg: ProtocolPackage) -> Protocol:
    src, pre = read_source(pkg.source), pkg.source.endswith(".pre")
    return protocol_of(src, tuple(read_source(f) for f in pkg.libs) if pre else (), 2, pre)


def load_package(name: str):
    """Resolve a package name to (protocol, functionality, preprocessing)."""
    packages = _packages()
    if name not in packages:
        raise UsageError(f"unknown package {name}; known: {', '.join(sorted(packages))}")
    pkg = packages[name]
    protocol = load_protocol(pkg)
    fn = _functionalities()[pkg.functionality] if pkg.functionality else None
    preproc = None
    if pkg.preproc:
        preproc = PREPROCS[pkg.preproc](protocol)
    return protocol, fn, preproc
