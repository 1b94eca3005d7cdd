"""Executors: one per request family, each calling a public entry point.

Table requests go through `extremal.cli.main(argv)` in-process, with stdout
captured; finer requests call the library directly.  The package is imported
inside the executors so that importing this module imports nothing of it:
the session imports exactly the modules its workload calls, and times that.
"""

from __future__ import annotations

import contextlib
import io
from fractions import Fraction


class CliFailed(RuntimeError):
    pass


def _fr(x):
    return Fraction(x)


def run_cli(args, state):
    from extremal.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(args["argv"]))
    if code != 0:
        raise CliFailed("exit code %d" % code)
    return buf.getvalue()


def cgc_proj(args, state):
    from extremal.wigner2 import cgc_projector

    return cgc_projector(*(_fr(x) for x in args["jm"]))


def _system(n):
    from extremal.algebra import build_root_system

    return build_root_system(n)


def _tensor_module(l1, l2):
    from extremal.repmod import su3_irrep, tensor

    return tensor(su3_irrep(*l1), su3_irrep(*l2))


def _labels(args, *names):
    return [tuple(_fr(x) for x in args[n]) for n in names]


def pme(args, state):
    from extremal.su3cgc import projector_matrix_element

    g1, g2, g3, g3p, g1p, g2p = _labels(args, "g1", "g2", "g3", "g3p", "g1p", "g2p")
    return projector_matrix_element(
        tuple(args["L1"]), g1, tuple(args["L2"]), g2, tuple(args["L3"]),
        g3, g3p, g1p, g2p, route=args["route"],
    )


def apply_proj(args, state):
    from extremal.projector import apply_projector
    from extremal.su3gt import su3_engine

    M = _tensor_module(args["L1"], args["L2"])
    return apply_projector(_system(3), M.basis_vector(args["index"]), M,
                           engine=su3_engine())


def ef(args, state):
    from extremal.pbw import RewriteEngine, rewrite_word

    sys_ = _system(2)
    word = [((1, 2), args["a"]), ((2, 1), args["b"])]
    return rewrite_word(word, sys_, engine=RewriteEngine(sys_))


def letters(word):
    """JSON word letters -> rewrite_word items: [i, j] or ["h", k]."""
    return [tuple(x) for x in word]


def word(args, state):
    from extremal.pbw import RewriteEngine, rewrite_word

    n = args["n"]
    sys_ = _system(n)
    engines = state.setdefault("engines", {})
    if n not in engines:
        engines[n] = RewriteEngine(sys_)
    return rewrite_word(letters(args["word"]), sys_, engine=engines[n])


def su4_proj(args, state):
    from extremal.projector import extremal_projector

    return extremal_projector(_system(4), N=args["N"])


def no_go(args, state):
    from extremal.projector import no_go_polynomial_residual

    return no_go_polynomial_residual(_system(2), args["N"])


EXECUTORS = {
    "cgc-su2": run_cli,
    "sixj": run_cli,
    "ninej": run_cli,
    "cgc-proj": cgc_proj,
    "gt-basis": run_cli,
    "cgc-su3": run_cli,
    "pme-direct": pme,
    "pme-formula": pme,
    "apply-proj": apply_proj,
    "verify": run_cli,
    "projector": run_cli,
    "ef": ef,
    "word": word,
    "su4-proj": su4_proj,
    "no-go": no_go,
}

# Modules each workload calls, imported during set-up.
IMPORTS = {
    "su2-tables": ["extremal.cli", "extremal.wigner2"],
    "su3-modules": ["extremal.cli", "extremal.algebra", "extremal.projector",
                    "extremal.repmod", "extremal.su3gt", "extremal.su3cgc"],
    "symbolic": ["extremal.cli", "extremal.algebra", "extremal.pbw",
                 "extremal.projector"],
}


def serialize(answer):
    """Canonical text of an answer, for comparing sessions exactly."""
    from extremal.pbw import TaylorElement
    from extremal.repmod import ModuleVector

    if isinstance(answer, str):
        return answer
    if isinstance(answer, TaylorElement):
        return answer.dump()
    if isinstance(answer, ModuleVector):
        return ";".join("%d:%s" % (k, answer.coords[k]) for k in sorted(answer.coords))
    return str(answer)
