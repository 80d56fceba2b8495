"""Bundled protocols, metaprogram libraries, and preprocessing deals.

Sources are embedded verbatim and also shipped as files under protocols/;
load_package resolves a manifest entry into a parsed protocol together with
its intended functionality and preprocessing.
"""

import os
from dataclasses import dataclass

from .dist import (
    Functionality, Preprocessing, UniformPreprocessing, default_preprocessing,
)
from .errors import UsageError
from .lang import MESG, OUT, SECRET, Protocol, Var
from .ovt import parse_protocol
from .prelude import expand

# --- Protocol sources ---------------------------------------------------------

OTP_OVT = """\
# one-time pad transfer: the ciphertext alone carries nothing
m[z]@2 := s[x] xor r[k] @ 1;
m[k]@2 := r[k] @ 1;
out@2 := m[z] xor m[k] @ 2;
"""

SHAMIR_ADD3_OVT = """\
# three-party additive sharing of each input, then a public sum of shares
m[s1]@2 := r[a] @ 1;
m[s1]@3 := r[b] @ 1;
m[s2]@1 := r[a] @ 2;
m[s2]@3 := r[b] @ 2;
m[s3]@1 := r[a] @ 3;
m[s3]@2 := r[b] @ 3;
p[1] := (s[s1] xor r[a] xor r[b]) xor m[s2] xor m[s3] @ 1;
p[2] := m[s1] xor (s[s2] xor r[a] xor r[b]) xor m[s3] @ 2;
p[3] := m[s1] xor m[s2] xor (s[s3] xor r[a] xor r[b]) @ 3;
out@1 := p[1] xor p[2] xor p[3] @ 1;
out@2 := p[1] xor p[2] xor p[3] @ 2;
out@3 := p[1] xor p[2] xor p[3] @ 3;
"""

LEAKY_OVT = """\
# deliberately broken: client 2 sees the secret in the clear
m[z]@2 := s[x] @ 1;
out@2 := 0 @ 2;
"""

GMW_PRE = """\
# two-party xor-share compiler: encode inputs, evaluate gates on shares,
# decode the output wire in public

encodegmw(w, i1, i2) {
  m[w]@i2 := (s[w] xor r[w]) @ i2;
  m[w]@i1 := r[w] @ i2;
  m[w]
}

andtablegmw(b1, b2, r) {
  { row1 = r xor (b1 xor true) and (b2 xor true);
    row2 = r xor (b1 xor true) and (b2 xor false);
    row3 = r xor (b1 xor false) and (b2 xor true);
    row4 = r xor (b1 xor false) and (b2 xor false) }
}

andgmw(z, x, y) {
  let r = r[z] in
  let table = andtablegmw(x, y, r) in
  m[z]@2 := OT4(x, y, table, 2, 1);
  m[z]@1 := r @ 1;
  m[z]
}

xorgmw(z, x, y) {
  m[z]@1 := (x xor y) @ 1;
  m[z]@2 := (x xor y) @ 2;
  m[z]
}

decodegmw(w) {
  p[w ++ "1"] := m[w] @ 1;
  p[w ++ "2"] := m[w] @ 2;
  out@1 := (p[w ++ "1"] xor p[w ++ "2"]) @ 1;
  out@2 := (p[w ++ "1"] xor p[w ++ "2"]) @ 2
}
"""

GMW_AND_PRE = """\
# z = s1 and s2
let x = encodegmw("s1", 2, 1) in
let y = encodegmw("s2", 1, 2) in
let z = andgmw("z", x, y) in
decodegmw("z")
"""

GMW_XOR_PRE = """\
# z = s1 xor s2
let x = encodegmw("s1", 2, 1) in
let y = encodegmw("s2", 1, 2) in
let z = xorgmw("z", x, y) in
decodegmw("z")
"""

GMW_AND_XOR_PRE = """\
# z = (s1 and s2) xor s3
let x = encodegmw("s1", 2, 1) in
let y = encodegmw("s2", 1, 2) in
let w = encodegmw("s3", 2, 1) in
let g = andgmw("g", x, y) in
let z = xorgmw("z", g, w) in
decodegmw("z")
"""

GMW_GATE_PRE = """\
# one and gate in isolation: input wires x and y arrive as dealt shares
andgmw("z", m["x"], m["y"])
"""

BDOZ_PRE = """\
# two-party authenticated shares: value w is split as w1 + w2, the holder of
# share wi also holds mac(wi) = key(wi) + delta * wi checkable by the other
# party; opening sends share and mac, the checker aborts on a forgery

openbdoz(w, e1, m1, k1, e2, m2, k2) {
  m["sh" ++ w ++ "1"]@2 := e1 @ 1;
  m["mc" ++ w ++ "1"]@2 := m1 @ 1;
  assert(m["mc" ++ w ++ "1"] == k1 + m["delta"] * m["sh" ++ w ++ "1"]) @ 2;
  m["sh" ++ w ++ "2"]@1 := e2 @ 2;
  m["mc" ++ w ++ "2"]@1 := m2 @ 2;
  assert(m["mc" ++ w ++ "2"] == k2 + m["delta"] * m["sh" ++ w ++ "2"]) @ 1;
  p[w ++ "1"] := e1 + m["sh" ++ w ++ "2"] @ 1;
  p[w ++ "2"] := m["sh" ++ w ++ "1"] + e2 @ 2;
  { at1 = p[w ++ "1"]; at2 = p[w ++ "2"] }
}

beavermul(z, x, y, a, b, c) {
  let d = openbdoz(z ++ "d",
    m[x ++ "1"] + m[a ++ "1"],
    m["mac" ++ x ++ "1"] + m["mac" ++ a ++ "1"],
    m["key" ++ x ++ "1"] + m["key" ++ a ++ "1"],
    m[x ++ "2"] + m[a ++ "2"],
    m["mac" ++ x ++ "2"] + m["mac" ++ a ++ "2"],
    m["key" ++ x ++ "2"] + m["key" ++ a ++ "2"]) in
  let e = openbdoz(z ++ "e",
    m[y ++ "1"] + m[b ++ "1"],
    m["mac" ++ y ++ "1"] + m["mac" ++ b ++ "1"],
    m["key" ++ y ++ "1"] + m["key" ++ b ++ "1"],
    m[y ++ "2"] + m[b ++ "2"],
    m["mac" ++ y ++ "2"] + m["mac" ++ b ++ "2"],
    m["key" ++ y ++ "2"] + m["key" ++ b ++ "2"]) in
  openbdoz(z,
    m[c ++ "1"] + d.at1 * m[b ++ "1"] + e.at1 * m[a ++ "1"] + d.at1 * e.at1,
    m["mac" ++ c ++ "1"] + d.at1 * m["mac" ++ b ++ "1"] + e.at1 * m["mac" ++ a ++ "1"],
    m["key" ++ c ++ "1"] + d.at2 * m["key" ++ b ++ "1"] + e.at2 * m["key" ++ a ++ "1"]
      + m["delta"] * (d.at2 * e.at2),
    m[c ++ "2"] + d.at2 * m[b ++ "2"] + e.at2 * m[a ++ "2"],
    m["mac" ++ c ++ "2"] + d.at2 * m["mac" ++ b ++ "2"] + e.at2 * m["mac" ++ a ++ "2"],
    m["key" ++ c ++ "2"] + d.at1 * m["key" ++ b ++ "2"] + e.at1 * m["key" ++ a ++ "2"])
}
"""

BDOZ_OPEN_PRE = """\
# open one authenticated value and output it on both sides
let v = openbdoz("x",
  m["x1"], m["macx1"], m["keyx1"],
  m["x2"], m["macx2"], m["keyx2"]) in
out@1 := v.at1 @ 1;
out@2 := v.at2 @ 2
"""

BDOZ_BEAVER_PRE = """\
# multiply two authenticated inputs with one beaver triple; the product
# goes to client 1
let v = beavermul("z", "x", "y", "a", "b", "c") in
out@1 := v.at1 @ 1
"""


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
        self._deltas = deltas

    def free_bits(self) -> int:
        return len(self._free)

    def count(self) -> int:
        return 2 ** len(self._free)

    def columns(self):
        import numpy as np

        from .engine import bit_column

        col = {v: bit_column(self.count(), i) for i, v in enumerate(self._free)}
        for v, value in self.fixed.items():
            col[v] = np.full(self.count(), value, dtype=np.uint8)
        for w, owner in self.secret_owners.items():
            col[Var(MESG, f"{w}2", 2)] = (
                col[Var(SECRET, w, owner)] ^ col[Var(MESG, f"{w}1", 1)])
        if self.triple:
            a, b, c = self.triple
            av = col[Var(MESG, f"{a}1", 1)] ^ col[Var(MESG, f"{a}2", 2)]
            bv = col[Var(MESG, f"{b}1", 1)] ^ col[Var(MESG, f"{b}2", 2)]
            col[Var(MESG, f"{c}2", 2)] = (av & bv) ^ col[Var(MESG, f"{c}1", 1)]
        d1, d2 = self._deltas
        for w in self.values:
            for i, delta in ((1, col[d2]), (2, col[d1])):
                share = col[Var(MESG, f"{w}{i}", i)]
                key = col[Var(MESG, f"key{w}{i}", 3 - i)]
                col[Var(MESG, f"mac{w}{i}", i)] = key ^ (delta & share)
        return col

    def memories(self):
        cols = self.columns()
        for i in range(self.count()):
            yield {v: int(cols[v][i]) for v in self.domain}


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


# --- Functionalities -------------------------------------------------------------

def _sv(name, owner):
    return Var(SECRET, name, owner)


def _ov(client):
    return Var(OUT, "", client)


def _fn(secrets, outputs, fn) -> Functionality:
    return Functionality.from_callable(secrets, outputs, fn)


def _registry():
    s1, s2, s3 = _sv("s1", 1), _sv("s2", 2), _sv("s3", 1)
    x1, y2 = _sv("x", 1), _sv("y", 2)
    o1, o2, o3 = _ov(1), _ov(2), _ov(3)
    return {
        "ident1": _fn([x1], [o2], lambda m: {o2: m[x1]}),
        "zero1": _fn([x1], [o2], lambda m: {o2: 0}),
        "open1": _fn([x1], [o1, o2], lambda m: {o1: m[x1], o2: m[x1]}),
        "and2": _fn([s1, s2], [o1, o2],
                    lambda m: {o1: m[s1] & m[s2], o2: m[s1] & m[s2]}),
        "xor2": _fn([s1, s2], [o1, o2],
                    lambda m: {o1: m[s1] ^ m[s2], o2: m[s1] ^ m[s2]}),
        "and_xor3": _fn([s1, s2, s3], [o1, o2],
                        lambda m: {o1: (m[s1] & m[s2]) ^ m[s3],
                                   o2: (m[s1] & m[s2]) ^ m[s3]}),
        "mul1": _fn([x1, y2], [o1], lambda m: {o1: m[x1] & m[y2]}),
        "sum3": _fn([_sv("s1", 1), _sv("s2", 2), _sv("s3", 3)], [o1, o2, o3],
                    lambda m: {o1: m[_sv("s1", 1)] ^ m[_sv("s2", 2)] ^ m[_sv("s3", 3)],
                               o2: m[_sv("s1", 1)] ^ m[_sv("s2", 2)] ^ m[_sv("s3", 3)],
                               o3: m[_sv("s1", 1)] ^ m[_sv("s2", 2)] ^ m[_sv("s3", 3)]}),
    }


FUNCTIONALITIES = _registry()


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

SOURCES = {
    "otp.ovt": OTP_OVT,
    "shamir_add3.ovt": SHAMIR_ADD3_OVT,
    "leaky.ovt": LEAKY_OVT,
    "gmw.pre": GMW_PRE,
    "gmw_and.pre": GMW_AND_PRE,
    "gmw_xor.pre": GMW_XOR_PRE,
    "gmw_and_xor.pre": GMW_AND_XOR_PRE,
    "gmw_gate.pre": GMW_GATE_PRE,
    "bdoz.pre": BDOZ_PRE,
    "bdoz_open.pre": BDOZ_OPEN_PRE,
    "bdoz_beaver.pre": BDOZ_BEAVER_PRE,
}

MANIFEST = """\
# name          source              options
otp             otp.ovt             fn=ident1
shamir-add3     shamir_add3.ovt     fn=sum3
leaky           leaky.ovt           fn=zero1
gmw-and         gmw_and.pre         lib=gmw.pre fn=and2
gmw-xor         gmw_xor.pre         lib=gmw.pre fn=xor2
gmw-and-xor     gmw_and_xor.pre     lib=gmw.pre fn=and_xor3
gmw-gate        gmw_gate.pre        lib=gmw.pre preproc=free
bdoz-open       bdoz_open.pre       lib=bdoz.pre fn=open1 preproc=bdoz-open
bdoz-beaver     bdoz_beaver.pre     lib=bdoz.pre fn=mul1 preproc=bdoz-beaver
"""


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


PACKAGES = parse_manifest(MANIFEST)


def protocols_dir() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.normpath(os.path.join(here, "..", "..", "protocols"))


def _read_source(fname: str, root=None) -> str:
    if root is not None:
        path = os.path.join(root, fname)
        with open(path) as fh:
            return fh.read()
    if fname not in SOURCES:
        raise UsageError(f"unknown source {fname}")
    return SOURCES[fname]


def load_protocol(pkg: ProtocolPackage, root=None) -> Protocol:
    src = _read_source(pkg.source, root)
    if pkg.source.endswith(".pre"):
        libs = [_read_source(f, root) for f in pkg.libs]
        return expand(src, libs)
    return parse_protocol(src)


def load_package(name: str, root=None):
    """Resolve a package name to (protocol, functionality, preprocessing)."""
    if name not in PACKAGES:
        raise UsageError(f"unknown package {name}; known: {', '.join(sorted(PACKAGES))}")
    pkg = PACKAGES[name]
    protocol = load_protocol(pkg, root)
    fn = FUNCTIONALITIES.get(pkg.functionality) if pkg.functionality else None
    preproc = None
    if pkg.preproc:
        preproc = PREPROCS[pkg.preproc](protocol)
    return protocol, fn, preproc


def write_sources(root: str):
    """Materialize the bundled sources, tables, and manifest as files."""
    os.makedirs(root, exist_ok=True)
    for fname, text in SOURCES.items():
        with open(os.path.join(root, fname), "w") as fh:
            fh.write(text)
    for name, fn in FUNCTIONALITIES.items():
        with open(os.path.join(root, f"{name}.fn"), "w") as fh:
            fh.write(fn.format())
    with open(os.path.join(root, "manifest.txt"), "w") as fh:
        fh.write(MANIFEST)
