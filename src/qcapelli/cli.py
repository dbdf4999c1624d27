"""Command-line front end.

Exit codes: 0 all requested verifications passed, 1 a verification
failed, 2 configuration error, 3 resource-cap abort, 4 internal error
(an unexpected exception, or an output closed before the verdict was
written; never a verdict).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import rcatalog
from .capelli import (
    RewriteContext,
    VerifyError,
    verify_cap1,
    verify_classical,
    verify_consum,
    verify_exchange_general,
    verify_h_copy,
    verify_matrix_identity,
    verify_mre,
    verify_re_ideal,
    verify_rigor,
    verify_shift_scan,
    verify_traced,
)
from .rcatalog import CatalogError, CatalogValidationError
from .rewrite import CapacityError, DegreeCapError, RewriteError
from .scalar import QConfig, ScalarError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

class ConfigError(Exception):
    pass


def _env_int(name, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError("%s must be an integer, got %r" % (name, raw))


def _build_parser():
    top = argparse.ArgumentParser(
        prog="qcapelli",
        description="Exact verification of matrix Capelli identities "
                    "over reflection equation algebras.")
    sub = top.add_subparsers(dest="command", required=True)

    def add_rmatrix(p):
        p.add_argument("--rmatrix",
                       help="dj | flip | file:PATH (default dj)")
        p.add_argument("--N", type=int, default=2,
                       help="dimension for catalog families (default 2)")
        p.add_argument("--q",
                       help="'symbolic' or a rational a/b (default symbolic)")

    ver = sub.add_parser("verify", help="verify one identity")
    add_rmatrix(ver)
    ver.add_argument("--identity", default="th", choices=IDENTITIES)
    ver.add_argument("--k", type=int, help="chain length (default 2)")
    ver.add_argument("--p", type=int, help="leg position (default 1)")
    ver.add_argument("--alpha",
                     help="override the final diagonal shift (scalar text)")
    ver.add_argument("--rigor", action="store_true",
                     help="prove by evaluation at degree-bound+1 points")
    ver.add_argument("--format", default="text",
                     choices=("text", "structured"))

    val = sub.add_parser("validate", help="validate an R-matrix source")
    add_rmatrix(val)
    val.add_argument("--format", default="text",
                     choices=("text", "structured"))

    sui = sub.add_parser("suite", help="run a named verification suite")
    sui.add_argument("name", help="full")
    sui.add_argument("--stretch", action="store_true",
                     help="append the non-gating large job")
    sui.add_argument("--format", default="text",
                     choices=("text", "structured"))
    return top


def _config_for(args):
    spec = args.q
    if spec == "symbolic":
        return QConfig.symbolic()
    try:
        return QConfig.fixed(Fraction(spec))
    except (ValueError, ZeroDivisionError):
        raise ConfigError("--q must be 'symbolic' or a rational, got %r"
                          % (spec,))
    except ScalarError as e:
        raise ConfigError(str(e))


def _symmetry_for(args):
    src = args.rmatrix
    if src == "dj":
        return rcatalog.dj(args.N, _config_for(args))
    if src == "flip":
        if args.q not in ("symbolic", "1"):
            raise ConfigError("the flip family is fixed at q = 1")
        return rcatalog.flip(args.N)
    if src.startswith("file:"):
        path = src[5:]
        if not os.path.exists(path):
            raise ConfigError("no such file: %s" % (path,))
        return rcatalog.load(path)
    raise ConfigError("--rmatrix must be dj, flip, or file:PATH, got %r"
                      % (src,))


def _emit(reports, fmt, out):
    ok = True
    for rep in reports:
        ok = ok and rep.passed()
        if fmt == "structured":
            out.write(json.dumps(rep.to_record(), sort_keys=True) + "\n")
        else:
            line = "%s  %s  %s  %s" % (
                "PASS" if rep.passed() else "FAIL", rep.identity,
                rep.rmatrix, json.dumps(rep.params, sort_keys=True))
            out.write(line + "\n")
            if not rep.passed():
                out.write("      residual entries: %d\n"
                          % rep.residual_entries)
                for s in rep.residual_sample[:3]:
                    out.write("      %s\n" % json.dumps(s))
    return ok


def _caps():
    return {"rule_cap": _env_int("QCAPELLI_RULE_CAP", 4000),
            "max_degree": _env_int("QCAPELLI_MAX_DEGREE", 12)}


def _ctx(args):
    return RewriteContext(_symmetry_for(args), **_caps())


def _alpha(args, sym):
    if args.alpha is None:
        return None
    try:
        return sym.q_config.parse(args.alpha)
    except ScalarError as e:
        raise ConfigError("bad --alpha: %s" % (e,))


def _projector(variant):
    def run(args):
        if args.rigor:
            if args.alpha is not None:
                raise ConfigError("--alpha does not apply with --rigor")
            return verify_rigor(_symmetry_for(args), args.k, variant,
                                **_caps())
        ctx = _ctx(args)
        return verify_matrix_identity(ctx, args.k, variant,
                                      alpha=_alpha(args, ctx.sym))
    return run


# The symmetry flags --rmatrix and --q, and the defaults of every flag an
# identity may read; --N is read by all.
SYMMETRY = ("rmatrix", "q")
DEFAULTS = {"rmatrix": "dj", "q": "symbolic", "k": 2, "p": 1}

# identity -> (the flags it reads, its verifier on the parsed arguments).
# The verifiers name verify_* at call time, so a replaced module
# attribute is the one that runs.
IDENTITIES = {
    "th": (SYMMETRY + ("k", "alpha", "rigor"), _projector("column")),
    "th-s": (SYMMETRY + ("k", "alpha", "rigor"), _projector("row")),
    "cap-as": (SYMMETRY + ("k",),
               lambda a: verify_traced(_ctx(a), a.k, "column")),
    "cap-s": (SYMMETRY + ("k",), lambda a: verify_traced(_ctx(a), a.k, "row")),
    "cap1": (SYMMETRY, lambda a: verify_cap1(_ctx(a))),
    "mre": (SYMMETRY, lambda a: verify_mre(_ctx(a))),
    "re-ideal": (SYMMETRY, lambda a: verify_re_ideal(_ctx(a))),
    "consum": (SYMMETRY + ("k",), lambda a: verify_consum(_ctx(a), a.k)),
    "h-copy": (SYMMETRY + ("p",), lambda a: verify_h_copy(_ctx(a), a.p)),
    "exchange-general": (SYMMETRY + ("p", "k"),
                         lambda a: verify_exchange_general(_ctx(a), a.p,
                                                           a.k)),
    "shift-scan": (SYMMETRY + ("k",),
                   lambda a: verify_shift_scan(_ctx(a), a.k)),
    "classical": ((), lambda a: verify_classical(a.N)),
}


def _apply_defaults(args):
    for flag, value in DEFAULTS.items():
        if getattr(args, flag, value) is None:
            setattr(args, flag, value)


def _run_verify(args, out):
    reads, verifier = IDENTITIES[args.identity]
    for flag in sorted({f for fs, _ in IDENTITIES.values() for f in fs}):
        if getattr(args, flag) not in (None, False) and flag not in reads:
            raise ConfigError("--%s does not apply to %s, which reads --%s"
                              % (flag, args.identity,
                                 ", --".join(("N",) + reads)))
    _apply_defaults(args)
    return _emit([verifier(args)], args.format, out)


def _run_validate(args, out):
    _apply_defaults(args)
    try:
        sym = _symmetry_for(args)
    except CatalogValidationError as e:
        out.write("FAIL  %s check: %s\n" % (e.check, e))
        return None
    except CatalogError as e:
        raise ConfigError(str(e))
    record = {
        "rmatrix": sym.name,
        "N": sym.N,
        "backend": sym.q_config.describe(),
        "rank": sym.rank,
        "checks": ["braid", "hecke", "rank", "skew-invertibility"],
        "outcome": "pass",
    }
    if args.format == "structured":
        out.write(json.dumps(record, sort_keys=True) + "\n")
    else:
        out.write("PASS  %s: braid, hecke, rank=%d, skew-invertible\n"
                  % (sym.name, sym.rank))
    return True


def _run_suite(args, out):
    from . import suites

    if args.name != "full":
        raise ConfigError("unknown suite %r (expected full)" % (args.name,))
    if args.format == "structured":
        ok, results = suites.run_suite(stretch=args.stretch,
                                       emit=lambda line: None)
        for res in results:
            for rep in res.reports:
                out.write(json.dumps(rep.to_record(), sort_keys=True) + "\n")
            out.write(json.dumps({
                "criterion": res.number, "label": res.label,
                "outcome": "pass" if res.ok else "fail",
                "checks": len(res.checks),
                "seconds": round(res.seconds, 3)}, sort_keys=True) + "\n")
        return ok
    ok, _ = suites.run_suite(stretch=args.stretch,
                             emit=lambda s: out.write(s + "\n"))
    return ok


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_PASS
    try:
        code = _run(args, out)
        if out is sys.stdout:
            # a buffered verdict is only delivered once it is flushed
            out.flush()
        return code
    except BrokenPipeError:
        # the reader closed the output: no verdict was delivered, and
        # nothing more can be written; on the real stdout, the flush at
        # interpreter exit goes to devnull instead
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return EXIT_INTERNAL


def _run(args, out):
    try:
        if args.command == "verify":
            ok = _run_verify(args, out)
        elif args.command == "validate":
            ok = _run_validate(args, out)
        else:
            ok = _run_suite(args, out)
    except BrokenPipeError:
        raise
    except ConfigError as e:
        out.write("configuration error: %s\n" % (e,))
        return EXIT_CONFIG
    except (CapacityError, DegreeCapError) as e:
        out.write("resource cap: %s\n" % (e,))
        return EXIT_RESOURCE
    except (VerifyError, RewriteError, ScalarError, CatalogError) as e:
        out.write("configuration error: %s\n" % (e,))
        return EXIT_CONFIG
    except Exception as e:
        out.write("internal error: %s: %s\n" % (type(e).__name__, e))
        return EXIT_INTERNAL
    return EXIT_PASS if ok else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
