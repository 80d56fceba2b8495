"""The benchmark's tracer around the CLI: perfbench/tracing.py wraps names
inside overture's modules (engine.fold, the deals' columns and memories,
cli.main, ...), so a change of one of their signatures would make every
traced pass fail.  Each command below must run under the tracer to a
verdict or its text (exit 0 or 1), with folds counted; cheating detection
must also count its subset tests, the Pmf.independent calls inside
verifier.adversarial_inputs."""

import contextlib
import io
import os
import sys

import pytest

from overture import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from tracing import Tracer  # noqa: E402

COMMANDS = (
    ["verify", "bdoz-beaver", "--property", "correct"],
    ["pmf", "gmw-and", "--marginal", "out@1,s[s1]@1", "--given", "s[s2]@2=1"],
    ["verify", "bdoz-beaver", "--preproc", "bdoz-beaver-trim", "--corrupt", "2",
     "--positions", "3,4", "--property", "cheating-detection"],
)


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[:3]))
def test_traced_commands_run(argv):
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = cli.main(argv)
    finally:
        tracer.uninstall()
    assert rc in (0, 1), err.getvalue()
    assert out.getvalue()
    assert tracer.counts["engine.fold_calls"] > 0
    assert tracer.spans and not tracer.stack
    if "cheating-detection" in argv:
        assert tracer.counts["verifier.subset_tests"] > 0
