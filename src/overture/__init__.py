"""Workbench for low-level MPC protocols: define them directly or generate
them from metaprograms, then verify security hyperproperties by exact
distribution computation over all runs."""

from .errors import (
    BudgetError, EvalError, MetaEvalError, OvertureError, ParseError,
    StratificationError, UsageError, ValidationError,
)
from .lang import (
    BOT, AssertCmd, BinOp, Cmp, Const, MesgSend, Not, OT, OT4, OutputCmd,
    Partition, Protocol, Ref, RevealCmd, Var, corrupt_views, honest_views,
    parse_var, validate,
)
from .interp import AdversaryStrategy, IDENTITY, eval_expr, run, run_adv, step
from .ovt import format_protocol, parse_protocol
from .dist import (
    CondTable, ExplicitPreprocessing, Functionality, Pmf, Preprocessing,
    UniformPreprocessing, bd, bd_adv, default_preprocessing, format_pmf,
    kernel,
)
from .verifier import (
    Verdict, Witness, adversarial_inputs, all_partitions,
    check_and_gate_tactic, check_cheating_detection, check_gmw_invariant,
    check_gradual_release, check_integrity, check_nimo,
    check_passive_correct, enumerate_adversaries, projected_bd,
)

__version__ = "0.1.0"
