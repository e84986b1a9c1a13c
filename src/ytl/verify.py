"""Machine-verification suites: each suite runs a family of exact identity
checks at a given (d, n) and returns a JSON-able report. All arithmetic is
exact; a single counterexample fails the suite. A check over many instances
is a tally (its instance count and the detail of its first failing
instance), and each suite reports its checks in a fixed order at its end.
"""

from __future__ import annotations

import itertools
import random
from functools import reduce
from math import factorial

from .linalg import identity_matrix, mat_mul
from .permutations import (ConsistencyError, Perm, all_perms, compositions,
                           coset_system)
from .scalars import RatFunc
from .tableaux import (catalan, dim_bruteforce, dim_CTL, dim_FTL, dim_TL, dim_Y,
                       enumerate_d_partitions, enumerate_partitions, jones_pairs,
                       jones_permutation, standard_tableaux, tl_factors, two_column)
from . import yokonuma as yk
from .reps import ideal_membership, passes_to_quotient, rep_e, rep_g, rep_module, rep_t
from . import isomaps as iso


def _check(report, name, instances, passed, detail=""):
    report["checks"].append({
        "name": name, "instances": instances, "passed": bool(passed),
        "detail": detail})
    if not passed:
        report["ok"] = False


class _Tally:
    """One check over many instances: how many ran, and the detail of the
    first that failed (None while every one has held)."""

    def __init__(self, name):
        self.name, self.instances, self.detail = name, 0, None

    def add(self, holds, fmt, *args):
        """Count one instance; the first to fail sets the detail fmt % args."""
        self.instances += 1
        if not holds and self.detail is None:
            self.detail = fmt % args


def _report(report, *tallies):
    """Each tally as one check, in the order given."""
    for t in tallies:
        _check(report, t.name, t.instances, t.detail is None, t.detail or "")


def _counts_agree(report, name, cases):
    """One check that got == want for each case (label, got, want), one
    instance per case; the detail names the first case that differs, with
    both counts."""
    cases = list(cases)
    detail = next(("%s: %d != %d" % case for case in cases if case[1] != case[2]), "")
    _check(report, name, len(cases), not detail, detail)


def _new_report(d, n, suite, seed):
    return {"d": d, "n": n, "suite": suite, "seed": seed,
            "convention_version": 1, "checks": [], "ok": True}


def _random_basis_element(d, n, rng):
    a = tuple(rng.randrange(d) for _ in range(n))
    perms = all_perms(n)
    w = perms[rng.randrange(len(perms))]
    return yk.YElement(d, n, {(a, w): RatFunc.one(d)})


def _random_element(d, n, rng, terms=2):
    out = yk.zero(d, n)
    for _ in range(terms):
        c = RatFunc.from_scalar(rng.randrange(1, 5), d)
        out = out + _random_basis_element(d, n, rng).scale(c)
    return out


# ---------------------------------------------------------------------------
# suites


def suite_dims(d, n, seed=0):
    report = _new_report(d, n, "dims", seed)
    _counts_agree(report, "catalan_two_column_sum", (
        ("dim_TL(%d) vs its squared two-column tableaux counts" % m, dim_TL(m),
         sum(len(standard_tableaux((p,))) ** 2
             for p in enumerate_partitions(m) if two_column(p)))
        for m in range(1, n + 1)))
    _counts_agree(report, "squared_tableaux_sum", [(
        "squared tableaux counts vs dim_Y(%d, %d)" % (d, n),
        sum(len(standard_tableaux(s)) ** 2 for s in enumerate_d_partitions(d, n)),
        dim_Y(d, n))])
    for name, which, dim in (("ftl_formula_vs_bruteforce", "FTL", dim_FTL),
                             ("ctl_formulas_agree_and_match_bruteforce", "CTL", dim_CTL)):
        _counts_agree(report, name, [(
            "dim_%s(%d, %d) vs the brute-force count" % (which, d, n), dim(d, n),
            dim_bruteforce(d, n, tl_factors(which, d)))])
    return report


def suite_relations(d, n, seed=0):
    """Defining relations as matrix identities on every irreducible."""
    return module_relations(d, n, enumerate_d_partitions(d, n), seed)


def module_relations(d, n, shapes, seed=0):
    """The relations report over the irreducibles of the given shapes; the
    instance counts are summed over those modules, and each check's detail
    names its first failing instance: the relation and the shape."""
    report = _new_report(d, n, "relations", seed)
    q, one, z = RatFunc.q(d), RatFunc.one(d), RatFunc.zero(d)
    braid, frame, quad, diag, hecke = map(_Tally, (
        "braid_relations", "framing_relations", "quadratic_relation",
        "diagonal_actions", "hecke_seminormal_match"))

    def mm(a, b):
        return mat_mul(a, b, z)

    for shape in shapes:
        module = rep_module(d, shape)
        ident = identity_matrix(module.dim, z, one)
        G = [rep_g(module, i) for i in range(1, n)]
        Tm = [rep_t(module, j) for j in range(1, n + 1)]
        E = [rep_e(module, i) for i in range(1, n)]
        for i in range(n - 1):
            for j in range(i + 2, n - 1):
                braid.add(mm(G[i], G[j]) == mm(G[j], G[i]),
                          "g_%d g_%d != g_%d g_%d at shape %r",
                          i + 1, j + 1, j + 1, i + 1, shape)
            if i + 1 < n - 1:
                braid.add(mm(mm(G[i], G[i + 1]), G[i]) == mm(mm(G[i + 1], G[i]), G[i + 1]),
                          "g_%d g_%d g_%d != g_%d g_%d g_%d at shape %r",
                          i + 1, i + 2, i + 1, i + 2, i + 1, i + 2, shape)
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                frame.add(mm(Tm[a - 1], Tm[b - 1]) == mm(Tm[b - 1], Tm[a - 1]),
                          "t_%d t_%d != t_%d t_%d at shape %r", a, b, b, a, shape)
        for i in range(1, n):
            for j in range(1, n + 1):
                sj = j + 1 if j == i else (j - 1 if j == i + 1 else j)
                frame.add(mm(Tm[j - 1], G[i - 1]) == mm(G[i - 1], Tm[sj - 1]),
                          "t_%d g_%d != g_%d t_%d at shape %r", j, i, i, sj, shape)
        for j in range(n):
            frame.add(reduce(mm, [Tm[j]] * d) == ident,
                      "t_%d^%d != 1 at shape %r", j + 1, d, shape)
        for i in range(n - 1):
            eg = mm(E[i], G[i])
            rhs = [[(q if r == c else z) + (q - one) * eg[r][c]
                    for c in range(module.dim)] for r in range(module.dim)]
            quad.add(mm(G[i], G[i]) == rhs,
                     "g_%d^2 != q + (q - 1) e_%d g_%d at shape %r", i + 1, i + 1, i + 1, shape)
            quad.add(mm(E[i], G[i]) == mm(G[i], E[i]),
                     "e_%d g_%d != g_%d e_%d at shape %r", i + 1, i + 1, i + 1, i + 1, shape)
            # e_i through the framing generators matches the projector
            diag.add(E[i] == _projector(module, i + 1),
                     "rep(e_%d) != the projector E_%d at shape %r", i + 1, i + 1, shape)
        for j in range(n):
            diag.add(all(Tm[j][r][c].is_zero()
                         for r in range(module.dim) for c in range(module.dim) if r != c),
                     "t_%d is not diagonal at shape %r", j + 1, shape)
        if d == 1:
            # the one-component action must equal the classical Hoefsmit form
            for i in range(n - 1):
                hecke.add(G[i] == _hoefsmit_matrix(module, i + 1),
                          "g_%d != the Hoefsmit matrix at shape %r", i + 1, shape)
    _report(report, braid, frame, quad, diag)
    if d == 1:
        _report(report, hecke)
    return report


def _projector(module, i):
    """The diagonal projector of e_i from the tableaux alone: 1 where entries
    i and i+1 sit in the same component, 0 otherwise."""
    one, z = RatFunc.one(module.d), RatFunc.zero(module.d)
    return [[one if r == c and tab.position(i) == tab.position(i + 1) else z
             for c in range(module.dim)] for r, tab in enumerate(module.basis)]


def _hoefsmit_matrix(module, i):
    """Classical seminormal matrix from quantum contents only (d=1), through
    RatFunc.inv, independent of the int word rows that reps.rep_g reads."""
    d = module.d
    q, z = RatFunc.q(d), RatFunc.zero(d)
    out = [[z for _ in range(module.dim)] for _ in range(module.dim)]
    for col, tab in enumerate(module.basis):
        c_i = RatFunc.q_power(tab.content_exponent(i), d)
        c_next = RatFunc.q_power(tab.content_exponent(i + 1), d)
        denom = (c_next - c_i).inv()
        out[col][col] = (q * c_next - c_next) * denom
        swapped = tab.apply_transposition(i)
        if swapped is not None:
            out[module.index[swapped]][col] = (q * c_next - c_i) * denom
    return out


def suite_idempotents(d, n, seed=0):
    """Each check's detail names its first failing instance: the character,
    the pair, the generator or the composition."""
    report = _new_report(d, n, "idempotents", seed)
    idem, orth, eig, sel, central, orth_mu = map(_Tally, (
        "character_idempotents", "character_orthogonality", "framing_eigenvalues",
        "projector_selection_rules", "central_idempotents_commute",
        "central_idempotents_orthogonal"))
    zero, unit = yk.zero(d, n), yk.unit(d, n)
    chars = list(itertools.product(range(d), repeat=n))
    Es = {c: yk.E_chi(d, n, c) for c in chars}
    for c1, c2 in itertools.combinations(chars, 2):
        orth.add((Es[c1] * Es[c2]).is_zero(),
                 "E_chi E_psi != 0 for chi = %s, psi = %s", list(c1), list(c2))
    chars_complete = sum(Es.values(), zero) == unit
    for c, Ec in Es.items():
        idem.add(Ec * Ec == Ec, "E_chi^2 != E_chi for chi = %s", list(c))
        for j in range(1, n + 1):
            tmon = tuple(1 if m == j - 1 else 0 for m in range(n))
            val = RatFunc.from_scalar(yk.chi_value(d, c, tmon), d)
            eig.add(yk.gen_t(d, n, j) * Ec == Ec.scale(val),
                    "t_%d E_chi != chi(t_%d) E_chi for chi = %s", j, j, list(c))
        for i in range(1, n):
            hit = c[i - 1] == c[i]
            sel.add(yk.e(d, n, i) * Ec == (Ec if hit else zero),
                    "e_%d E_chi != %s for chi = %s", i, "E_chi" if hit else "0", list(c))
        for j in range(1, n + 1):
            hit = c[j - 1] % d == 0
            sel.add(yk.T(d, n, j) * Ec == (Ec if hit else zero),
                    "T_%d E_chi != %s for chi = %s", j, "E_chi" if hit else "0", list(c))
    gens = [("g_%d" % i, yk.gen_g(d, n, i)) for i in range(1, n)] + \
           [("t_%d" % j, yk.gen_t(d, n, j)) for j in range(1, n + 1)]
    mus = compositions(d, n)
    Emus = {mu: yk.E_mu(d, n, mu) for mu in mus}
    for mu, Em in Emus.items():
        for label, g in gens:
            central.add(Em * g == g * Em,
                        "E_mu %s != %s E_mu for mu = %s", label, label, list(mu.parts))
    mus_complete = sum(Emus.values(), zero) == unit
    for mu, nu in itertools.combinations(mus, 2):
        orth_mu.add((Emus[mu] * Emus[nu]).is_zero(),
                    "E_mu E_nu != 0 for mu = %s, nu = %s", list(mu.parts), list(nu.parts))
    _report(report, idem, orth)
    _check(report, "character_completeness", 1, chars_complete,
           "" if chars_complete else "the E_chi do not sum to 1")
    _report(report, eig, sel, central)
    _check(report, "central_idempotents_sum", 1, mus_complete,
           "" if mus_complete else "the E_mu do not sum to 1")
    _report(report, orth_mu)
    return report


def _membership_check(name, cases):
    """The tally of (label, x, which, member) cases: x is expected in the
    ideal of the quotient `which` exactly when member is True."""
    tally = _Tally(name)
    for label, x, which, member in cases:
        tally.add(ideal_membership(x, which) == member,
                  "%s is %sin the %s ideal", label, "not " if member else "", which)
    return tally


def suite_quotients(d, n, seed=0):
    report = _new_report(d, n, "quotients", seed)
    admissible = _Tally("two_column_vs_annihilation")
    for shape in enumerate_d_partitions(d, n):
        for which in ("FTL", "CTL"):
            try:
                passes_to_quotient(d, shape, which)
                admissible.add(True, "")
            except ConsistencyError as exc:
                admissible.add(False, "%s", exc)
    members = []
    if n >= 3:
        ftl = ("ftl_generator(%d, %d)" % (d, n), yk.ftl_generator(d, n))
        ctl = ("ctl_generator(%d, %d)" % (d, n), yk.ctl_generator(d, n))
        unit = ("unit(%d, %d)" % (d, n), yk.unit(d, n))
        members = [
            _membership_check("ftl_generator_in_ideal", [ftl + ("FTL", True)]),
            _membership_check("ctl_generator_in_ideal", [ctl + ("CTL", True)]),
            _membership_check("ctl_ideal_contains_ftl_generator_image",
                              [ctl + ("FTL", True)]),
            _membership_check("unit_not_in_ideal",
                              [unit + ("FTL", False), unit + ("CTL", False)])]
    _report(report, admissible, *members)
    return report


def suite_iso(d, n, seed=0, hom_pairs=30):
    report = _new_report(d, n, "iso", seed)
    rng = random.Random(seed)
    mus = compositions(d, n)
    report["blocks"] = [[list(mu.parts), coset_system(mu).m] for mu in mus]
    inverse, mat_inverse, hom, diag, trips = map(_Tally, (
        "phi_after_psi_identity", "psi_after_phi_identity", "homomorphism_property",
        "framing_images_diagonal", "quotient_round_trips_mod_ideal"))
    # inverse pair on the full standard basis
    for a in itertools.product(range(d), repeat=n):
        for w in all_perms(n):
            x = yk.YElement(d, n, {(a, w): RatFunc.one(d)})
            inverse.add(iso.phi_n(iso.psi_n(x)) == x,
                        "phi_n(psi_n(x)) != x for x = t^%s g_%s", list(a), list(w.images))
    # inverse on the matrix side, sampled per block
    for mu in mus:
        m = coset_system(mu).m
        young = mu.young_subgroup()
        for _ in range(min(hom_pairs, m * m * len(young))):
            w = young[rng.randrange(len(young))]
            k = rng.randrange(m)
            l = rng.randrange(m)
            hterm = iso.hecke_term(n, w, RatFunc.one(d))
            hmat = [[hterm if (i, j) == (k, l) else yk.zero(1, n)
                     for j in range(m)] for i in range(m)]
            mat_inverse.add(iso.psi_mu(mu, iso.phi_mu(mu, hmat)) == hmat,
                            "psi_mu(phi_mu(h)) != h for mu = %s, h = g_%s in cell (%d, %d)",
                            list(mu.parts), list(w.images), k, l)
    # homomorphism property on random pairs
    for mu in mus:
        for pair in range(hom_pairs):
            x = _random_element(d, n, rng)
            y = _random_element(d, n, rng)
            px, py = iso.psi_mu(mu, x), iso.psi_mu(mu, y)
            hom.add(iso.psi_mu(mu, x * y) == mat_mul(px, py, yk.zero(1, n)),
                    "psi_mu(x y) != psi_mu(x) psi_mu(y) for mu = %s, pair %d",
                    list(mu.parts), pair)
    # diagonal action of the framing generators on each block
    for mu in mus:
        m = coset_system(mu).m
        chars = iso.block_characters(mu)
        for j in range(1, n + 1):
            mat = iso.psi_mu(mu, yk.gen_t(d, n, j))
            tmon = tuple(1 if jj == j - 1 else 0 for jj in range(n))
            vals = [RatFunc.from_scalar(yk.chi_value(d, chi, tmon), d) for chi in chars]
            want = [[iso.hecke_term(n, Perm.identity(n), vals[k]) if k == l else yk.zero(1, n)
                     for l in range(m)] for k in range(m)]
            diag.add(mat == want,
                     "psi_mu(t_%d) != diag(chi(t_%d)) for mu = %s", j, j, list(mu.parts))
    kills = []
    if n >= 3:
        for name, psi, gen in (("ftl", iso.ftl_psi, yk.ftl_generator),
                               ("ctl", iso.ctl_psi, yk.ctl_generator)):
            kill = _Tally("%s_psi_kills_generator" % name)
            kills.append(kill)
            mu = iso.nonzero_block(psi(gen(d, n)))
            kill.add(mu is None, "%s_psi(%s_generator(%d, %d)) is nonzero in the block of "
                     "mu = %s", name, name, d, n, None if mu is None else list(mu.parts))
        # quotient round trips on random standard-basis elements
        rounds = 10 if d ** n * factorial(n) > 100 else 20
        for _ in range(rounds):
            x = _random_basis_element(d, n, rng)
            ((a, w), _), = x.terms
            for psi, phi, which in ((iso.ftl_psi, iso.ftl_phi, "FTL"),
                                    (iso.ctl_psi, iso.ctl_phi, "CTL")):
                trips.add(ideal_membership(phi(psi(x)) - x, which),
                          "%s round trip of t^%s g_%s is not congruent to it modulo the "
                          "ideal", which, list(a), list(w.images))
    _report(report, inverse, mat_inverse, hom, diag)
    if n >= 3:
        _report(report, *kills, trips)
    _basis_counts(report, d, n)
    return report


def suite_basis(d, n, seed=0):
    report = _new_report(d, n, "basis", seed)
    _counts_agree(report, "jones_tl_count", (
        ("TL Jones pairs vs catalan(%d)" % m, len(jones_pairs(m, "TL")), catalan(m))
        for m in range(1, n + 1)))
    bijection = _Tally("jones_words_reduced_bijection")
    for m in range(1, n + 1):
        words = {jones_permutation(m, p): p.word() for p in jones_pairs(m, "All")}
        if len(words) != factorial(m):
            bijection.add(False, "the Jones words for m = %d do not biject onto S_%d", m, m)
        else:
            bijection.add(all(w.length() == len(word) for w, word in words.items()),
                          "a Jones word for m = %d is not reduced", m)
    _report(report, bijection)
    _basis_counts(report, d, n)
    return report


def _basis_counts(report, d, n):
    """The checks ftl_basis_count and ctl_basis_count: each quotient basis
    has the dimension its formula gives."""
    for which, basis, dim in (("ftl", iso.ftl_basis, dim_FTL), ("ctl", iso.ctl_basis, dim_CTL)):
        _counts_agree(report, "%s_basis_count" % which, [(
            "the size of %s_basis(%d, %d) vs dim_%s" % (which, d, n, which.upper()),
            len(basis(d, n)), dim(d, n))])


SUITES = {
    "dims": suite_dims,
    "relations": suite_relations,
    "idempotents": suite_idempotents,
    "quotients": suite_quotients,
    "iso": suite_iso,
    "basis": suite_basis,
}


def _guarded(name, d, n, seed, raised):
    """The report of one suite; an exception it raises becomes its one
    failed check, named raised, whose detail is the exception's type and
    text."""
    try:
        return SUITES[name](d, n, seed=seed)
    except Exception as exc:
        report = _new_report(d, n, name, seed)
        _check(report, raised, 1, False, "%s: %s" % (type(exc).__name__, exc))
        return report


def run_suite(d, n, suite, seed=0):
    """The report of a suite, or of every suite for "all", with each check
    of a sub-suite named <suite>.<check>. A suite that raises an Exception
    reports the failed check <suite>.raised in place of its checks."""
    if suite == "all":
        combined = _new_report(d, n, "all", seed)
        for name in SUITES:
            sub = _guarded(name, d, n, seed, "raised")
            for chk in sub["checks"]:
                _check(combined, "%s.%s" % (name, chk["name"]), chk["instances"],
                       chk["passed"], chk["detail"])
            if "blocks" in sub:
                combined["blocks"] = sub["blocks"]
        return combined
    if suite not in SUITES:
        raise ValueError("unknown suite %r" % suite)
    return _guarded(suite, d, n, seed, "%s.raised" % suite)
