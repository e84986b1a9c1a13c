"""Tracing for the benchmark's traced run: spans around every operation,
per-module cProfile self time and call counts, timings of chosen library
entry points, lru_cache hit ratios, and the scalar probe.

Everything is observed from outside the library: entry points are wrapped by
replacing module attributes for the length of the traced pass, and restored
after it.
"""

from __future__ import annotations

import cProfile
import fractions
import glob
import json
import os
import pstats
import statistics
import time
import timeit
from collections import defaultdict

MODULES = ("scalars", "permutations", "tableaux", "linalg", "yokonuma",
           "reps", "isomaps", "exprparse", "verify", "cli")

# entry points timed per call in the traced pass: (module, attribute)
TIMED_CALLS = (
    ("yokonuma", "YElement.__mul__"),
    ("reps", "rep_element"),
    ("reps", "ideal_membership"),
    ("isomaps", "psi_n"),
    ("isomaps", "phi_n"),
    ("isomaps", "ftl_psi"),
    ("isomaps", "ftl_phi"),
    ("isomaps", "ctl_psi"),
    ("isomaps", "ctl_phi"),
)

# functions whose profiled call counts become metrics: metric -> (module, attribute)
COUNTED_CALLS = {
    "scalars.ratfunc_normalize_calls": ("scalars", "RatFunc._normalize"),
    "scalars.laurent_gcd_calls": ("scalars", "_laurent_gcd"),
    "scalars.cyclotomic_mul_calls": ("scalars", "Cyclotomic.__mul__"),
    "permutations.perm_new_calls": ("permutations", "Perm.__post_init__"),
    "linalg.mat_mul_calls": ("linalg", "mat_mul"),
    "yokonuma.mul_calls": ("yokonuma", "YElement.__mul__"),
    "yokonuma.e_chi_calls": ("yokonuma", "E_chi"),
    "reps.rep_element_calls": ("reps", "rep_element"),
    "isomaps.psi_mu_calls": ("isomaps", "psi_mu"),
    "isomaps.phi_mu_calls": ("isomaps", "phi_mu"),
}

# lru_cache tables whose hit ratio becomes a metric
HIT_RATIOS = {
    "permutations.coset_system_hit_ratio": "permutations.coset_system",
    "tableaux.standard_tableaux_hit_ratio": "tableaux.standard_tableaux",
    "reps.rep_word_hit_ratio": "reps._rep_word_cached",
    "reps.rep_g_hit_ratio": "reps.rep_g_cached",
    "isomaps.rho_perm_hit_ratio": "isomaps._rho_perm",
}

VERIFY_SUITES = ("relations", "idempotents", "quotients", "iso")


def resolve(lib, module, attr):
    """The object at module.attr (attr may be Class.member), or None."""
    obj = getattr(lib, module, None)
    for part in attr.split("."):
        obj = getattr(obj, part, None) if obj is not None else None
    return obj


def code_key(obj):
    """(file, first line, name) of a function, as cProfile keys it."""
    func = getattr(obj, "__wrapped__", obj)
    func = getattr(func, "__func__", func)
    code = getattr(func, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def cache_infos(lib):
    """{module.function: (hits, misses)} for every lru_cache in ytl."""
    out = {}
    for module in MODULES:
        mod = getattr(lib, module)
        for attr, obj in vars(mod).items():
            info = getattr(obj, "cache_info", None)
            if info is not None and getattr(obj, "__module__", None) == mod.__name__:
                hits, misses = info()[:2]
                out["%s.%s" % (module, attr)] = (hits, misses)
    return out


def cache_delta(before, after):
    return {k: (after[k][0] - before.get(k, (0, 0))[0], after[k][1] - before.get(k, (0, 0))[1])
            for k in after}


class Tracer:
    """Collects spans, a profile and per-call timings during a traced pass."""

    def __init__(self, lib, workload):
        self.lib = lib
        self.workload = workload
        self.spans = []
        self.profile = cProfile.Profile()
        self.durations = defaultdict(list)
        self.product_terms = []
        self._undo = []

    def install(self):
        for module, attr in TIMED_CALLS:
            orig = resolve(self.lib, module, attr)
            if orig is None:
                continue
            wrapper = self._timed(module + "." + attr.split(".")[-1], orig,
                                  attr == "YElement.__mul__")
            if "." in attr:
                owner = resolve(self.lib, module, attr.rsplit(".", 1)[0])
                name = attr.rsplit(".", 1)[1]
                self._undo.append((owner, name, orig))
                setattr(owner, name, wrapper)
                continue
            # replace every module-level reference, including `from x import f`
            for other in MODULES:
                mod = getattr(self.lib, other)
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, name, orig))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def _timed(self, name, func, record_terms):
        sink = self.durations[name]
        terms = self.product_terms

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = func(*args, **kwargs)
            sink.append(time.perf_counter() - t0)
            if record_terms:
                terms.append(len(getattr(result, "terms", ())))
            return result
        return wrapper

    def call(self, workload, op, inputs):
        start = time.perf_counter()
        self.profile.enable()
        try:
            return workload.call(op, inputs)
        finally:
            self.profile.disable()
            self.spans.append((self.workload + "." + op.kind, start, time.perf_counter(),
                               self.workload, list(op.cell), op.kind))


def profile_summary(stats, lib):
    """Self time per ytl module, stdlib fractions self time, and call counts
    of the functions named in COUNTED_CALLS, from a pstats table."""
    package = os.path.dirname(lib.scalars.__file__)
    self_s = dict.fromkeys(MODULES, 0.0)
    fraction_s = 0.0
    calls = defaultdict(int)
    for (filename, line, func), (_, nc, tt, _, _) in stats.items():
        calls[(filename, line, func)] += nc
        if os.path.dirname(filename) == package:
            module = os.path.basename(filename)[:-3]
            if module in self_s:
                self_s[module] += tt
        elif filename == fractions.__file__:
            fraction_s += tt
    counts = {}
    for metric, (module, attr) in COUNTED_CALLS.items():
        key = code_key(resolve(lib, module, attr))
        counts[metric] = calls.get(key, 0) if key else 0
    key = code_key(fractions.Fraction.__new__)
    counts["scalars.fraction_new_calls"] = calls.get(key, 0)
    return self_s, fraction_s, counts


def cumulative_per_file(files, lib, module, attr):
    """Cumulative time of one function in each profile dump that calls it."""
    key = code_key(resolve(lib, module, attr))
    out = []
    for path in files:
        entry = pstats.Stats(path).stats.get(key)
        if entry:
            out.append(entry[3])
    return out


def quantile(values, q):
    """The q-quantile (0 < q < 1) of values, 0.0 for an empty list."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def scalar_probe(lib):
    """Microseconds per call of a few scalar operations; median of 7 repeats."""
    S = lib.scalars
    RatFunc, Cyclotomic = S.RatFunc, S.Cyclotomic
    q = RatFunc.q(3)
    z = RatFunc.from_scalar(Cyclotomic.root_power(3, 1), 3)
    one = RatFunc.one(3)
    a = one + q * 2 + z * q * q
    b = one * 3 - q.inv() + z * z * q
    u = a * (q + one).inv()
    v = b * (q - one).inv()
    c1 = Cyclotomic.root_power(3, 1) + Cyclotomic.from_rational(2, 3)
    c2 = Cyclotomic.root_power(3, 2) * 3 - Cyclotomic.from_rational(1, 3)
    f1, f2 = fractions.Fraction(3, 7), fractions.Fraction(5, 11)
    probes = {
        "scalars.ratfunc_one_us": (lambda: RatFunc.one(3), 2000),
        "scalars.ratfunc_mul_laurent_us": (lambda: a * b, 200),
        "scalars.ratfunc_add_diffden_us": (lambda: u + v, 50),
        "scalars.cyclotomic_mul_us": (lambda: c1 * c2, 2000),
        "scalars.fraction_mul_us": (lambda: f1 * f2, 20000),
    }
    out = {}
    for name, (func, number) in probes.items():
        runs = timeit.Timer(func).repeat(repeat=7, number=number)
        out[name] = statistics.median(runs) / number * 1e6
    return out


# ---------------------------------------------------------------------------
# the per-layer metrics of a traced run

LAYER_UNITS = {
    "s": ["%s.self_s" % m for m in MODULES]
         + ["scalars.fraction_s", "isomaps.first_touch_m4_s", "cli.import_s"],
    "count": ["scalars.fraction_new_calls"] + list(COUNTED_CALLS)
             + ["cli.warm_recompute_calls"],
    "us": ["scalars.ratfunc_one_us", "scalars.ratfunc_mul_laurent_us",
           "scalars.ratfunc_add_diffden_us", "scalars.cyclotomic_mul_us",
           "scalars.fraction_mul_us"],
    "ms": ["yokonuma.mul_ms_p50", "yokonuma.mul_ms_p90", "reps.rep_element_ms_p50",
           "reps.ideal_membership_ms_p50", "reps.ideal_membership_ms_p90"]
          + ["isomaps.%s_ms_p50" % f for f in
             ("psi_n", "phi_n", "ftl_psi", "ftl_phi", "ctl_psi", "ctl_phi")]
          + ["exprparse.parse_and_evaluate_ms_p50"]
          + ["verify.run_suite_%s_ms_p50" % s for s in VERIFY_SUITES]
          + ["cli.cold_ms_p50", "cli.warm_ms_p50", "cli.rep_ms_p50", "cli.verify_cold_ms_p90"],
    "ratio": list(HIT_RATIOS) + ["trace.overhead_ratio", "fail_ratio"],
    "terms": ["yokonuma.product_terms"],
    "bytes": ["cli.cache_bytes_written"],
}


def layer_units():
    return {name: unit for unit, names in LAYER_UNITS.items() for name in names}


def cli_metrics(records, workdir, import_s):
    """cli.* metrics from the untraced rounds of the cli workload."""
    def ms(kinds):
        return [r.latency * 1e3 for r in records if r.op.kind in kinds]
    written = sum(os.path.getsize(p) for p in glob.glob(os.path.join(workdir, "cache-r*", "*")))
    return {
        "cli.cold_ms_p50": quantile(ms({"verify_cold", "basis_cold"}), 0.5),
        "cli.warm_ms_p50": quantile(ms({"verify_warm", "basis_warm"}), 0.5),
        "cli.rep_ms_p50": quantile(ms({"rep"}), 0.5),
        "cli.verify_cold_ms_p90": quantile(ms({"verify_cold"}), 0.9),
        "cli.import_s": statistics.median(import_s),
        "cli.cache_bytes_written": written,
    }


def layer_metrics(lib, tracer, children, delta, first_touch, cli_extra,
                  untraced_s, traced_s, fail_ratio):
    """Every per-layer metric; 0 for a layer the workload does not reach.

    children: (op, stats file) of the cli commands of the traced pass.
    delta: lru_cache (hits, misses) of the traced pass in this process.
    """
    files = [path for _, path in children]
    stats = pstats.Stats(tracer.profile)
    if files:
        stats.add(*files)
    self_s, fraction_s, counts = profile_summary(stats.stats, lib)
    m = dict.fromkeys(layer_units(), 0.0)
    for module, seconds in self_s.items():
        m[module + ".self_s"] = seconds
    m["scalars.fraction_s"] = fraction_s
    m.update(counts)
    m.update(scalar_probe(lib))
    durations = {k: [v * 1e3 for v in vs] for k, vs in tracer.durations.items()}
    mul = durations.get("yokonuma.__mul__", [])
    m["yokonuma.mul_ms_p50"] = quantile(mul, 0.5)
    m["yokonuma.mul_ms_p90"] = quantile(mul, 0.9)
    terms = tracer.product_terms
    m["yokonuma.product_terms"] = sum(terms) / len(terms) if terms else 0.0
    m["reps.rep_element_ms_p50"] = quantile(durations.get("reps.rep_element", []), 0.5)
    member = durations.get("reps.ideal_membership", [])
    m["reps.ideal_membership_ms_p50"] = quantile(member, 0.5)
    m["reps.ideal_membership_ms_p90"] = quantile(member, 0.9)
    for f in ("psi_n", "phi_n", "ftl_psi", "ftl_phi", "ctl_psi", "ctl_phi"):
        m["isomaps.%s_ms_p50" % f] = quantile(durations.get("isomaps." + f, []), 0.5)
    m["isomaps.first_touch_m4_s"] = first_touch
    for metric, table in HIT_RATIOS.items():
        hits, misses = _children_cache(files, table) if files else delta.get(table, (0, 0))
        m[metric] = hits / (hits + misses) if hits + misses else 0.0
    # functions each cli child calls at most once: their cumulative time in
    # that child's profile is the duration of the call
    parse = cumulative_per_file(files, lib, "exprparse", "parse_and_evaluate")
    m["exprparse.parse_and_evaluate_ms_p50"] = quantile([v * 1e3 for v in parse], 0.5)
    for suite in VERIFY_SUITES:
        suite_files = [p for op, p in children
                       if op.kind == "verify_cold" and op.params[0] == suite]
        runs = cumulative_per_file(suite_files, lib, "verify", "run_suite")
        m["verify.run_suite_%s_ms_p50" % suite] = quantile([v * 1e3 for v in runs], 0.5)
    warm_files = [p for op, p in children if op.kind.endswith("_warm")]
    m["cli.warm_recompute_calls"] = sum(
        len(cumulative_per_file(warm_files, lib, module, attr))
        for module, attr in (("verify", "run_suite"), ("isomaps", "ftl_basis"),
                             ("isomaps", "ctl_basis")))
    m.update(cli_extra)
    m["trace.overhead_ratio"] = traced_s / untraced_s if untraced_s else 0.0
    m["fail_ratio"] = fail_ratio
    return m


def _children_cache(files, table):
    hits = misses = 0
    for path in files:
        with open(path + ".cache.json") as fh:
            h, mi = json.load(fh).get(table, (0, 0))
        hits += h
        misses += mi
    return hits, misses
