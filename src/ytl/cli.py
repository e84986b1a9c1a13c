"""Command-line front end.

Commands:
    dim {y|tl|ftl|ctl} -d D -n N
    enumerate {dpartitions|tableaux|jonespairs|cosets} ...
    rep -d D -n N --shape JSON
    mul -d D -n N "expr"
    basis {ftl|ctl} -d D -n N
    verify -d D -n N [--suite relations|idempotents|iso|quotients|dims|basis|all]

Output is JSON (stdout or --output). Exit codes: 0 success, 1 verification
failure, 2 usage error. Results of verify and basis runs are cached on disk
(override the directory with --cache-dir or the YTL_CACHE_DIR variable);
cached entries are keyed by the command parameters, a convention version and
the package version, so warm results are bit-identical to cold ones. Entries
are written atomically, and an entry that is unreadable or does not answer
its request is recomputed.

Each command imports only the modules it runs, so a dimension formula or a
cache hit does not pay for loading the algebra.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

from . import __version__

CONVENTION_VERSION = 1
# dim ftl and dim ctl sum over the compositions of n into d parts; basis and
# enumerate list items, and rep prints matrix entries: 10^5 of either take a
# few seconds, and a listing of 10^5 items up to about 230 MB
MAX_ITEMS = 100_000


# ---------------------------------------------------------------------------
# cache


def _cache_dir(args):
    if getattr(args, "cache_dir", None):
        return args.cache_dir
    env = os.environ.get("YTL_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "ytl")


def _cache_path(args, kind, key):
    name = "%s-%s-v%d-%s.json" % (kind, key, CONVENTION_VERSION, __version__)
    return os.path.join(_cache_dir(args), name)


def _cache_load(args, kind, key, answers):
    """The cached payload, or None on a miss. An entry that cannot be read,
    or for which answers(payload) is false, is a miss, and the store after
    the recomputation overwrites it."""
    if getattr(args, "no_cache", False):
        return None
    try:
        with open(_cache_path(args, kind, key)) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) and answers(payload) else None


def _has_fields(payload, **fields):
    """Whether payload holds each field with the same type and value."""
    return all(type(payload.get(k)) is type(v) and payload[k] == v
               for k, v in fields.items())


def _cache_store(args, kind, key, payload):
    """Write the entry to a temporary file and rename it into place, so a
    reader never sees a partial entry. A store that the file system refuses
    only warns on stderr: the result is printed all the same."""
    if getattr(args, "no_cache", False):
        return
    directory = _cache_dir(args)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, _cache_path(args, kind, key))
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        print("ytl: warning: result not cached: %s" % exc, file=sys.stderr)


# ---------------------------------------------------------------------------
# output


def _write_json(args, payload):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _error(args, message, code=2):
    _write_json(args, {"error": message})
    return code


# ---------------------------------------------------------------------------
# commands


def _digit_limit():
    """The most decimal digits an int may have in the JSON output."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return limit or 4300


def cmd_dim(args):
    kind = args.kind
    d, n = args.d, args.n
    # every dimension printed is at most dim Y = d^n n!: estimate its digits
    # before any work
    digits, limit = (n * math.log(d) + math.lgamma(n + 1)) / math.log(10), _digit_limit()
    if digits > limit:
        return _error(args, "dim %s at d=%d, n=%d has up to %d digits, more than the %d "
                            "an output number may have" % (kind, d, n, digits, limit))
    count = math.comb(n + d - 1, d - 1)
    if kind in ("ftl", "ctl") and n >= 3 and count > MAX_ITEMS:
        return _error(args, "dim %s at d=%d, n=%d sums over %d compositions, more than %d"
                            % (kind, d, n, count, MAX_ITEMS))
    from .tableaux import dim_CTL, dim_FTL, dim_TL, dim_Y
    if kind == "y":
        value = dim_Y(d, n)
    elif kind == "tl":
        value = dim_TL(n)
    elif kind == "ftl":
        value = dim_FTL(d, n) if n >= 3 else dim_Y(d, n)
    else:
        value = dim_CTL(d, n) if n >= 3 else dim_Y(d, n)
    _write_json(args, {"kind": kind, "d": d, "n": n, "dim": value})
    return 0


def _item_count(what, log_lower, count):
    """count(), the number of items a command is about to list, or a
    ValueError (exit 2) that names it past MAX_ITEMS. log_lower, the natural
    log of a lower bound of the count, is checked first: a count past the
    bound by more than a factor e is not computed, since its closed form
    alone takes seconds or more at large n."""
    if log_lower > math.log(MAX_ITEMS) + 1:
        raise ValueError("%s lists at least 10^%.1f items, more than %d"
                         % (what, log_lower / math.log(10), MAX_ITEMS))
    value = count()
    if value > MAX_ITEMS:
        raise ValueError("%s lists %d items, more than %d" % (what, value, MAX_ITEMS))
    return value


def _log_d_partitions_lower(d, n):
    """The natural log of a lower bound of the number of d-partitions of n:
    the compositions of n into d parts, and the 2^k partitions of n into
    distinct parts from 1..k, padded with ones, for k(k+1)/2 <= n."""
    k = (math.isqrt(8 * n + 1) - 1) // 2
    return max(math.lgamma(n + d) - math.lgamma(d) - math.lgamma(n + 1), k * math.log(2))


def cmd_enumerate(args):
    from .permutations import compositions, coset_system
    from .tableaux import (catalan, count_d_partitions, count_standard_tableaux,
                           enumerate_d_partitions, jones_pairs, multinomial,
                           standard_tableaux)
    d, n = args.d, args.n
    what = args.what
    if what == "dpartitions":
        _item_count("enumerate dpartitions at d=%d, n=%d" % (d, n),
                    _log_d_partitions_lower(d, n), lambda: count_d_partitions(d, n))
        payload = {"dpartitions": [[list(comp) for comp in s]
                                   for s in enumerate_d_partitions(d, n)]}
    elif what == "tableaux":
        what = "enumerate tableaux at d=%d, n=%d" % (d, n)
        if args.shape:
            shapes = [_parse_shape(args.shape, d, n)]
            _item_count(what, 0, lambda: count_standard_tableaux(shapes[0]))
        else:
            # at least d^n (one row per component) and at least the 2^(n-1)
            # tableaux of one partition of n, as many as involutions of n
            _item_count(what, max(n * math.log(d), (n - 1) * math.log(2)),
                        lambda: sum(count_standard_tableaux(s)
                                    for s in enumerate_d_partitions(d, n)))
            shapes = enumerate_d_partitions(d, n)
        payload = {"tableaux": [
            {"shape": [list(c) for c in s],
             "standard": [t.to_json() for t in standard_tableaux(s)]}
            for s in shapes]}
    elif what == "jonespairs":
        # catalan(n) and n! are at least 2^(n-1)
        _item_count("enumerate jonespairs at n=%d" % n, (n - 1) * math.log(2),
                    lambda: catalan(n) if args.mode == "TL" else math.factorial(n))
        payload = {"mode": args.mode, "count": None,
                   "pairs": [p.to_json() for p in jones_pairs(n, args.mode)]}
        payload["count"] = len(payload["pairs"])
    else:  # cosets
        what = "enumerate cosets at d=%d, n=%d" % (d, n)
        if args.mu:
            mus = [_parse_mu(args.mu, d, n)]
            _item_count(what, math.lgamma(n + 1) - sum(math.lgamma(p + 1) for p in args.mu),
                        lambda: multinomial(args.mu))
        else:
            _item_count(what, n * math.log(d), lambda: d ** n)
            mus = compositions(d, n)
        payload = {"cosets": [
            {"mu": list(m.parts),
             "representatives": [w.to_json() for w in coset_system(m)]}
            for m in mus]}
    _write_json(args, payload)
    return 0


def _parse_mu(parts, d, n):
    from .permutations import Composition
    if len(parts) != d or any(p < 0 for p in parts) or sum(parts) != n:
        raise ValueError("--mu must be %d non-negative integers summing to %d: %r"
                         % (d, n, parts))
    return Composition(tuple(parts))


def _parse_shape(text, d, n):
    from .reps import check_shape
    return check_shape(json.loads(text), d, n)


def cmd_rep(args):
    d, n = args.d, args.n
    try:
        shape = _parse_shape(args.shape, d, n)
    except ValueError as exc:
        return _error(args, "bad shape: %s" % exc)
    from .tableaux import count_standard_tableaux
    # dim^2 entries for each of the n matrices t_j and the 2(n-1) matrices
    # g_i and e_i
    _item_count("rep at d=%d, n=%d" % (d, n), 0,
                lambda: count_standard_tableaux(shape) ** 2 * (3 * n - 2))
    from .reps import rep_e, rep_g, rep_module, rep_t
    from .verify import module_relations
    module = rep_module(d, shape)
    def render(mat):
        return [[entry.pretty() for entry in row] for row in mat]
    payload = {
        "d": d, "n": n, "shape": [list(c) for c in shape],
        "dim": module.dim,
        "basis": [t.to_json() for t in module.basis],
        "t": {str(j): render(rep_t(module, j)) for j in range(1, n + 1)},
        "g": {str(i): render(rep_g(module, i)) for i in range(1, n)},
        "e": {str(i): render(rep_e(module, i)) for i in range(1, n)},
    }
    report = module_relations(d, n, [shape])
    payload["relation_check"] = {"ok": report["ok"],
                                 "checks": report["checks"]}
    _write_json(args, payload)
    return 0 if report["ok"] else 1


def cmd_mul(args):
    from .exprparse import EvalError, ParseError, parse_and_evaluate
    d, n = args.d, args.n
    try:
        element = parse_and_evaluate(args.expr, d, n)
    except (ParseError, EvalError) as exc:
        return _error(args, str(exc))
    payload = {"d": d, "n": n, "expr": args.expr,
               "element": element.to_json(),
               "pretty": repr(element)}
    _write_json(args, payload)
    return 0


def cmd_basis(args):
    d, n = args.d, args.n
    kind = args.kind.upper()
    key = "%s-d%d-n%d" % (args.kind, d, n)
    cached = _cache_load(args, "basis", key, lambda p: (
        isinstance(p.get("elements"), list)
        and _has_fields(p, kind=args.kind, d=d, n=n, count=len(p["elements"]))))
    if cached is not None:
        _write_json(args, cached)
        return 0 if cached["count"] == cached.get("expected") else 1
    from .tableaux import dim_CTL, dim_FTL, dim_Y
    # a basis has at least d^n elements (the E_chi) and at least
    # catalan(n) >= 2^(n-1) (the block of (n, 0, ..., 0))
    expected = _item_count(
        "basis %s at d=%d, n=%d" % (args.kind, d, n), max(n * math.log(d), (n - 1) * math.log(2)),
        lambda: (dim_FTL(d, n) if kind == "FTL" else dim_CTL(d, n)) if n >= 3 else dim_Y(d, n))
    from . import isomaps as iso
    descriptors = iso.ftl_basis(d, n) if kind == "FTL" else iso.ctl_basis(d, n)
    items = []
    for mu, bkey, k, l in descriptors:
        if kind == "FTL":
            rendered = [p.to_json() for p in bkey]
        else:
            rendered = {"first": bkey[0].to_json(),
                        "rest": [w.to_json() for w in bkey[1:]]}
        items.append({"mu": list(mu.parts), "key": rendered, "k": k, "l": l})
    payload = {"kind": args.kind, "d": d, "n": n,
               "count": len(items), "expected": expected,
               "elements": items}
    _cache_store(args, "basis", key, payload)
    _write_json(args, payload)
    return 0 if len(items) == expected else 1


def cmd_verify(args):
    d, n = args.d, args.n
    key = "%s-d%d-n%d-s%d" % (args.suite, d, n, args.seed)
    cached = _cache_load(args, "verify", key, lambda p: (
        _has_fields(p, d=d, n=n, suite=args.suite, seed=args.seed)
        and isinstance(p.get("ok"), bool)
        and isinstance(p.get("checks"), list)))
    if cached is not None:
        _write_json(args, cached)
        return 0 if cached["ok"] else 1
    from .verify import run_suite
    report = run_suite(d, n, args.suite, seed=args.seed)
    # an exception inside a suite may come from the run (memory, recursion
    # depth), not from (d, n, seed): its report is not kept
    if not any(chk["name"].endswith(".raised") for chk in report["checks"]):
        _cache_store(args, "verify", key, report)
    _write_json(args, report)
    return 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ytl",
        description="Exact computations in framed Hecke algebras and their "
                    "Temperley-Lieb-type quotients.")
    parser.add_argument("--output", "-o", help="write JSON to this file")
    parser.add_argument("--cache-dir", help="cache directory "
                        "(default: YTL_CACHE_DIR or ~/.cache/ytl)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk cache")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dn(p, need_d=True):
        if need_d:
            p.add_argument("-d", type=int, default=1, help="framing order (>= 1)")
        p.add_argument("-n", type=int, required=True, help="number of strands")

    p = sub.add_parser("dim", help="dimension of an algebra")
    p.add_argument("kind", choices=["y", "tl", "ftl", "ctl"])
    add_dn(p)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("enumerate", help="combinatorial enumerations")
    p.add_argument("what", choices=["dpartitions", "tableaux", "jonespairs", "cosets"])
    add_dn(p)
    p.add_argument("--shape", help="restrict tableaux to one shape (JSON)")
    p.add_argument("--mode", choices=["TL", "All"], default="TL",
                   help="jonespairs flavor")
    p.add_argument("--mu", type=int, nargs="+", help="composition for cosets")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("rep", help="representation matrices for one shape")
    add_dn(p)
    p.add_argument("--shape", required=True, help="d-partition as JSON, "
                   "e.g. '[[2,1],[1]]'")
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("mul", help="evaluate an expression to normal form")
    add_dn(p)
    p.add_argument("expr", help="e.g. 'g1*g1 - (q-1)*e1*g1'")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("basis", help="explicit quotient basis")
    p.add_argument("kind", choices=["ftl", "ctl"])
    add_dn(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("verify", help="run a verification suite")
    add_dn(p)
    p.add_argument("--suite", default="all",
                   choices=["relations", "idempotents", "iso", "quotients",
                            "dims", "basis", "all"])
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized property checks")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.output:
        # fail before the work, not after it
        try:
            open(args.output, "a").close()
        except OSError as exc:
            path, args.output = args.output, None
            return _error(args, "cannot write --output %s: %s" % (path, exc.strerror))
    if args.d < 1 or args.n < 1:
        return _error(args, "d and n must be positive")
    try:
        return args.func(args)
    except ValueError as exc:
        return _error(args, str(exc))


if __name__ == "__main__":
    sys.exit(main())
