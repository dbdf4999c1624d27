"""Command-line front end.

Exit codes: 0 all requested verifications passed, 1 a verification
failed, 2 configuration error, 3 resource-cap abort, 4 internal error
(an unexpected exception, never a verdict).
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

IDENTITIES = ("th", "th-s", "cap-as", "cap-s", "cap1", "mre", "re-ideal",
              "consum", "h-copy", "exchange-general", "shift-scan",
              "classical")


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
        p.add_argument("--rmatrix", default="dj",
                       help="dj | flip | file:PATH (default dj)")
        p.add_argument("--N", type=int, default=2,
                       help="dimension for catalog families (default 2)")
        p.add_argument("--q", default="symbolic",
                       help="'symbolic' or a rational a/b (default symbolic)")

    ver = sub.add_parser("verify", help="verify one identity")
    add_rmatrix(ver)
    ver.add_argument("--identity", default="th", choices=IDENTITIES)
    ver.add_argument("--k", type=int, default=2)
    ver.add_argument("--p", type=int, default=1)
    ver.add_argument("--alpha", default=None,
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
    sui.add_argument("name", help="smoke | full")
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


def _run_verify(args, out):
    ident = args.identity
    if args.alpha is not None and (args.rigor or ident not in
                                   ("th", "th-s", "shift-scan")):
        raise ConfigError("--alpha applies to th, th-s and shift-scan only, "
                          "without --rigor")

    if ident == "classical":
        return _emit([verify_classical(args.N)], args.format, out)

    caps = {"rule_cap": _env_int("QCAPELLI_RULE_CAP", 4000),
            "max_degree": _env_int("QCAPELLI_MAX_DEGREE", 12)}

    if args.rigor:
        if ident not in ("th", "th-s"):
            raise ConfigError("--rigor applies to th and th-s only")
        variant = "column" if ident == "th" else "row"
        rep = verify_rigor(_symmetry_for(args), args.k, variant, **caps)
        return _emit([rep], args.format, out)

    sym = _symmetry_for(args)
    ctx = RewriteContext(sym, **caps)
    alpha = None
    if args.alpha is not None:
        try:
            alpha = sym.q_config.parse(args.alpha)
        except ScalarError as e:
            raise ConfigError("bad --alpha: %s" % (e,))

    if ident in ("th", "th-s"):
        variant = "column" if ident == "th" else "row"
        rep = verify_matrix_identity(ctx, args.k, variant, alpha=alpha)
    elif ident in ("cap-as", "cap-s"):
        variant = "column" if ident == "cap-as" else "row"
        rep = verify_traced(ctx, args.k, variant)
    elif ident == "cap1":
        rep = verify_cap1(ctx)
    elif ident == "mre":
        rep = verify_mre(ctx)
    elif ident == "re-ideal":
        rep = verify_re_ideal(ctx)
    elif ident == "consum":
        rep = verify_consum(ctx, args.k)
    elif ident == "h-copy":
        rep = verify_h_copy(ctx, args.p)
    elif ident == "exchange-general":
        rep = verify_exchange_general(ctx, args.p, args.k)
    elif ident == "shift-scan":
        if alpha is not None:
            rep = verify_matrix_identity(ctx, args.k, "column", alpha=alpha,
                                         identity="shift-scan")
        else:
            rep = verify_shift_scan(ctx, args.k)
    else:
        raise ConfigError("unhandled identity %r" % (ident,))
    return _emit([rep], args.format, out)


def _run_validate(args, out):
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

    if args.name not in ("smoke", "full"):
        raise ConfigError("unknown suite %r (expected smoke or full)"
                          % (args.name,))
    if args.format == "structured":
        lines = []
        ok, results = suites.run_suite(args.name, stretch=args.stretch,
                                       emit=lines.append)
        for res in results:
            for rep in res.reports:
                out.write(json.dumps(rep.to_record(), sort_keys=True) + "\n")
            out.write(json.dumps({
                "criterion": res.number, "label": res.label,
                "outcome": "pass" if res.ok else "fail",
                "checks": len(res.checks),
                "seconds": round(res.seconds, 3)}, sort_keys=True) + "\n")
        return ok
    ok, _ = suites.run_suite(args.name, stretch=args.stretch,
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
        if args.command == "verify":
            ok = _run_verify(args, out)
        elif args.command == "validate":
            ok = _run_validate(args, out)
        else:
            ok = _run_suite(args, out)
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
