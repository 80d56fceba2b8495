"""Bundled protocols: packages, correlated deals, circuit builder, files."""

import itertools
import os

import pytest

from overture.dist import UniformPreprocessing
from overture.errors import UsageError
from overture.lang import MESG, SECRET, Var, parse_var, validate
from overture.prelude import expand
from overture.stdlib import (
    BdozPreprocessing, PACKAGES, bdoz_beaver_preprocessing, bdoz_beaver_trimmed,
    bdoz_open_preprocessing, free_uniform, gmw_main, load_package, parse_manifest,
    protocols_dir, read_source,
)


def test_every_package_loads_and_validates():
    assert sorted(PACKAGES) == ["bdoz-beaver", "bdoz-open", "gmw-and",
                                "gmw-and-xor", "gmw-gate", "gmw-xor", "leaky",
                                "otp", "shamir-add3"]
    for name in PACKAGES:
        protocol, fn, preproc = load_package(name)
        preprocessed = preproc.domain if preproc is not None else ()
        assert validate(protocol, preprocessed=preprocessed) == [], name
        if fn is not None:
            assert set(fn.outputs) == set(protocol.output_vars()), name


def test_unknown_package():
    with pytest.raises(UsageError):
        load_package("no-such-package")


def test_bdoz_deal_sizes():
    assert bdoz_open_preprocessing().count() == 2 ** 6
    assert bdoz_beaver_preprocessing().count() == 2 ** 21
    assert bdoz_beaver_trimmed().count() == 2 ** 12


def _mac_holds(m, w):
    d1 = m[Var(MESG, "delta", 1)]
    d2 = m[Var(MESG, "delta", 2)]
    mac1 = m[Var(MESG, f"mac{w}1", 1)]
    mac2 = m[Var(MESG, f"mac{w}2", 2)]
    key1 = m[Var(MESG, f"key{w}1", 2)]
    key2 = m[Var(MESG, f"key{w}2", 1)]
    s1 = m[Var(MESG, f"{w}1", 1)]
    s2 = m[Var(MESG, f"{w}2", 2)]
    return mac1 == key1 ^ (d2 & s1) and mac2 == key2 ^ (d1 & s2)


def test_open_deal_equations():
    pre = bdoz_open_preprocessing()
    seen = set()
    for m in pre.memories():
        assert _mac_holds(m, "x")
        shares = m[Var(MESG, "x1", 1)] ^ m[Var(MESG, "x2", 2)]
        assert shares == m[Var(SECRET, "x", 1)]
        seen.add(tuple(m[v] for v in pre.domain))
    assert len(seen) == 64


def test_open_deal_is_the_exhaustive_filter():
    pre = bdoz_open_preprocessing()
    dealt = {tuple(m[v] for v in pre.domain) for m in pre.memories()}
    valid = set()
    for values in itertools.product((0, 1), repeat=len(pre.domain)):
        m = dict(zip(pre.domain, values))
        if _mac_holds(m, "x") and \
                m[Var(MESG, "x1", 1)] ^ m[Var(MESG, "x2", 2)] == m[Var(SECRET, "x", 1)]:
            valid.add(values)
    assert dealt == valid


def test_trimmed_beaver_equations():
    pre = bdoz_beaver_trimmed()
    for m in pre.memories():
        for w in ("x", "y", "a", "b", "c"):
            assert _mac_holds(m, w)
        wire = lambda w: m[Var(MESG, f"{w}1", 1)] ^ m[Var(MESG, f"{w}2", 2)]
        assert wire("x") == m[Var(SECRET, "x", 1)]
        assert wire("y") == m[Var(SECRET, "y", 2)]
        assert wire("c") == wire("a") & wire("b")
        for v, value in pre.fixed.items():
            assert m[v] == value


def test_bdoz_deal_validation():
    with pytest.raises(UsageError):
        BdozPreprocessing(values=("x",), secrets={"y": 1})
    with pytest.raises(UsageError):
        BdozPreprocessing(values=("x",), triple=("x", "y"))
    with pytest.raises(UsageError):
        BdozPreprocessing(values=("x", "y", "z"), triple=("x", "y", "w"))
    # derived shares are not free, so they cannot be pinned
    with pytest.raises(UsageError):
        BdozPreprocessing(values=("x",), secrets={"x": 1},
                          fixed={Var(MESG, "x2", 2): 0})
    with pytest.raises(UsageError):
        BdozPreprocessing(values=("x",), fixed={Var(MESG, "macx1", 1): 0})
    with pytest.raises(UsageError):
        BdozPreprocessing(values=("x",), fixed={Var(MESG, "x1", 1): 2})


def test_free_uniform():
    protocol, _, preproc = load_package("gmw-gate")
    assert isinstance(preproc, UniformPreprocessing)
    assert [str(v) for v in preproc.domain] == ["m[x]@1", "m[x]@2",
                                                "m[y]@1", "m[y]@2"]
    assert preproc.count() == 16
    again = free_uniform(protocol)
    assert again.domain == preproc.domain


def test_gmw_main_builds_the_bundled_circuit():
    src = gmw_main([("s1", 1), ("s2", 2), ("s3", 1)],
                   [("and", "g", "s1", "s2"), ("xor", "z", "g", "s3")], "z")
    built = expand(src, [read_source("gmw.pre")])
    bundled, _, _ = load_package("gmw-and-xor")
    assert built == bundled


def test_gmw_main_rejects_bad_circuits():
    inputs = [("s1", 1), ("s2", 2)]
    with pytest.raises(UsageError):
        gmw_main(inputs, [("nand", "z", "s1", "s2")], "z")
    with pytest.raises(UsageError):
        gmw_main(inputs, [("and", "s1", "s1", "s2")], "s1")
    with pytest.raises(UsageError):
        gmw_main(inputs, [("and", "z", "s1", "missing")], "z")


def test_manifest_parsing():
    packages = parse_manifest("name src.ovt fn=and2 preproc=free lib=a.pre\n")
    pkg = packages["name"]
    assert pkg.source == "src.ovt"
    assert pkg.functionality == "and2"
    assert pkg.preproc == "free"
    assert pkg.libs == ("a.pre",)
    for bad in ("lonely\n", "a b c\n", "a b weird=x\n", "x s.ovt\nx s.ovt\n"):
        with pytest.raises(UsageError):
            parse_manifest(bad)


def test_bundled_files_are_exactly_the_manifest():
    named = {"manifest.txt"}
    for pkg in PACKAGES.values():
        named |= {pkg.source, *pkg.libs}
        if pkg.functionality:
            named.add(f"{pkg.functionality}.fn")
    assert set(os.listdir(protocols_dir())) == named
