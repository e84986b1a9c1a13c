"""Machine-verification suites: each suite runs a family of exact identity
checks at a given (d, n) and returns a JSON-able report. All arithmetic is
exact; a single counterexample fails the suite.
"""

from __future__ import annotations

import itertools
import random
from math import factorial

from .linalg import identity_matrix, mat_mul
from .permutations import (ConsistencyError, Perm, all_perms, compositions,
                           coset_system)
from .scalars import NonIntegralExponent, RatFunc
from .tableaux import (catalan, dim_CTL, dim_FTL, dim_FTL_bruteforce,
                       dim_CTL_bruteforce, dim_TL, dim_Y, enumerate_d_partitions,
                       enumerate_partitions, jones_pairs, jones_permutation,
                       standard_tableaux, two_column)
from . import yokonuma as yk
from .reps import (ideal_membership, passes_to_quotient, rep_e, rep_element,
                   rep_g, rep_module, rep_t)
from . import isomaps as iso


def _check(report, name, instances, passed, detail=""):
    report["checks"].append({
        "name": name, "instances": instances, "passed": bool(passed),
        "detail": detail})
    if not passed:
        report["ok"] = False


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
    _check(report, "catalan_two_column_sum", n,
           all(dim_TL(m) == sum(len(standard_tableaux((p,))) ** 2
                                for p in enumerate_partitions(m) if two_column(p))
               for m in range(1, n + 1)))
    _check(report, "squared_tableaux_sum", 1,
           sum(len(standard_tableaux(s)) ** 2
               for s in enumerate_d_partitions(d, n)) == dim_Y(d, n))
    _check(report, "ftl_formula_vs_bruteforce", 1,
           dim_FTL(d, n) == dim_FTL_bruteforce(d, n))
    _check(report, "ctl_formulas_agree_and_match_bruteforce", 1,
           dim_CTL(d, n) == dim_CTL_bruteforce(d, n))
    return report


def suite_relations(d, n, seed=0):
    """Defining relations as matrix identities on every irreducible."""
    return module_relations(d, n, enumerate_d_partitions(d, n), seed)


def module_relations(d, n, shapes, seed=0):
    """The relations report over the irreducibles of the given shapes; the
    instance counts are summed over those modules, and each check's detail
    names its first failing instance: the relation and the shape."""
    report = _new_report(d, n, "relations", seed)
    q = RatFunc.q(d)
    one = RatFunc.one(d)
    z = RatFunc.zero(d)
    braid = framing = quad = torsion = diag = hecke = 0
    failed = dict.fromkeys(("braid", "frame", "quad", "diag", "hecke"), "")
    for shape in shapes:
        module = rep_module(d, shape)
        if module.dim == 0:
            continue
        ident = identity_matrix(module.dim, z, one)
        G = [rep_g(module, i) for i in range(1, n)]
        Tm = [rep_t(module, j) for j in range(1, n + 1)]
        E = [rep_e(module, i) for i in range(1, n)]
        def mm(a, b):
            return mat_mul(a, b, z)
        def note(check, holds, relation, *indices):
            if not holds and not failed[check]:
                failed[check] = (relation % indices) + " at shape %r" % (shape,)
        for i in range(n - 1):
            for j in range(i + 2, n - 1):
                note("braid", iso.block_equal(mm(G[i], G[j]), mm(G[j], G[i])),
                     "g_%d g_%d != g_%d g_%d", i + 1, j + 1, j + 1, i + 1); braid += 1
            if i + 1 < n - 1:
                note("braid", iso.block_equal(mm(mm(G[i], G[i + 1]), G[i]),
                                              mm(mm(G[i + 1], G[i]), G[i + 1])),
                     "g_%d g_%d g_%d != g_%d g_%d g_%d",
                     i + 1, i + 2, i + 1, i + 2, i + 1, i + 2); braid += 1
        for a in range(n):
            for b in range(a + 1, n):
                note("frame", iso.block_equal(mm(Tm[a], Tm[b]), mm(Tm[b], Tm[a])),
                     "t_%d t_%d != t_%d t_%d", a + 1, b + 1, b + 1, a + 1); framing += 1
        for i in range(1, n):
            for j in range(1, n + 1):
                sj = j + 1 if j == i else (j - 1 if j == i + 1 else j)
                note("frame", iso.block_equal(mm(Tm[j - 1], G[i - 1]),
                                              mm(G[i - 1], Tm[sj - 1])),
                     "t_%d g_%d != g_%d t_%d", j, i, i, sj); framing += 1
        for j in range(n):
            acc = ident
            for _ in range(d):
                acc = mm(acc, Tm[j])
            note("frame", iso.block_equal(acc, ident), "t_%d^%d != 1", j + 1, d); torsion += 1
        for i in range(n - 1):
            eg = mm(E[i], G[i])
            rhs = [[(q if r == c else z) + (q - one) * eg[r][c]
                    for c in range(module.dim)] for r in range(module.dim)]
            note("quad", iso.block_equal(mm(G[i], G[i]), rhs),
                 "g_%d^2 != q + (q - 1) e_%d g_%d", i + 1, i + 1, i + 1); quad += 1
            note("quad", iso.block_equal(mm(E[i], G[i]), mm(G[i], E[i])),
                 "e_%d g_%d != g_%d e_%d", i + 1, i + 1, i + 1, i + 1); quad += 1
            # e_i through the framing generators matches the projector
            note("diag", iso.block_equal(rep_element(module, yk.e(d, n, i + 1)), E[i]),
                 "rep(e_%d) != the projector E_%d", i + 1, i + 1); diag += 1
        for j in range(n):
            note("diag", all(Tm[j][r][c].is_zero()
                             for r in range(module.dim) for c in range(module.dim)
                             if r != c),
                 "t_%d is not diagonal", j + 1); diag += 1
        if d == 1:
            # the one-component action must equal the classical Hoefsmit form
            for i in range(n - 1):
                want = _hoefsmit_matrix(module, i + 1)
                note("hecke", iso.block_equal(G[i], want),
                     "g_%d != the Hoefsmit matrix", i + 1); hecke += 1
    _check(report, "braid_relations", braid, not failed["braid"], failed["braid"])
    _check(report, "framing_relations", framing + torsion, not failed["frame"],
           failed["frame"])
    _check(report, "quadratic_relation", quad, not failed["quad"], failed["quad"])
    _check(report, "diagonal_actions", diag, not failed["diag"], failed["diag"])
    if d == 1:
        _check(report, "hecke_seminormal_match", hecke, not failed["hecke"],
               failed["hecke"])
    return report


def _hoefsmit_matrix(module, i):
    """Classical seminormal matrix from quantum contents only (d=1)."""
    d = module.d
    q = RatFunc.q(d)
    z = RatFunc.zero(d)
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
    chars = list(itertools.product(range(d), repeat=n))
    Es = {c: yk.E_chi(d, n, c) for c in chars}
    total = yk.zero(d, n)
    idem = orth = ""
    for c, Ec in Es.items():
        total = total + Ec
        if Ec * Ec != Ec and not idem:
            idem = "E_chi^2 != E_chi for chi = %s" % (list(c),)
    pairs = 0
    for c1, c2 in itertools.combinations(chars, 2):
        if not (Es[c1] * Es[c2]).is_zero() and not orth:
            orth = "E_chi E_psi != 0 for chi = %s, psi = %s" % (list(c1), list(c2))
        pairs += 1
    _check(report, "character_idempotents", len(chars), not idem, idem)
    _check(report, "character_orthogonality", pairs, not orth, orth)
    complete = total == yk.unit(d, n)
    _check(report, "character_completeness", 1, complete,
           "" if complete else "the E_chi do not sum to 1")
    gens = [("g_%d" % i, yk.gen_g(d, n, i)) for i in range(1, n)] + \
           [("t_%d" % j, yk.gen_t(d, n, j)) for j in range(1, n + 1)]
    eig_detail = sel_detail = ""
    eig = sel = 0
    for c, Ec in Es.items():
        for j in range(1, n + 1):
            tmon = tuple(1 if m == j - 1 else 0 for m in range(n))
            val = RatFunc.from_scalar(yk.chi_value(d, c, tmon), d)
            if yk.gen_t(d, n, j) * Ec != Ec.scale(val) and not eig_detail:
                eig_detail = "t_%d E_chi != chi(t_%d) E_chi for chi = %s" % (j, j, list(c))
            eig += 1
        for i in range(1, n):
            hit = c[i - 1] == c[i]
            if yk.e(d, n, i) * Ec != (Ec if hit else yk.zero(d, n)) and not sel_detail:
                sel_detail = "e_%d E_chi != %s for chi = %s" % (
                    i, "E_chi" if hit else "0", list(c))
            sel += 1
        for j in range(1, n + 1):
            hit = c[j - 1] % d == 0
            if yk.T(d, n, j) * Ec != (Ec if hit else yk.zero(d, n)) and not sel_detail:
                sel_detail = "T_%d E_chi != %s for chi = %s" % (
                    j, "E_chi" if hit else "0", list(c))
            sel += 1
    _check(report, "framing_eigenvalues", eig, not eig_detail, eig_detail)
    _check(report, "projector_selection_rules", sel, not sel_detail, sel_detail)
    mus = compositions(d, n)
    Emus = {mu: yk.E_mu(d, n, mu) for mu in mus}
    central = ""
    cnt = 0
    for mu, Em in Emus.items():
        for label, g in gens:
            if Em * g != g * Em and not central:
                central = "E_mu %s != %s E_mu for mu = %s" % (label, label, list(mu.parts))
            cnt += 1
    _check(report, "central_idempotents_commute", cnt, not central, central)
    s = yk.zero(d, n)
    for Em in Emus.values():
        s = s + Em
    complete = s == yk.unit(d, n)
    _check(report, "central_idempotents_sum", 1, complete,
           "" if complete else "the E_mu do not sum to 1")
    orth = ""
    cnt = 0
    for mu, nu in itertools.combinations(mus, 2):
        if not (Emus[mu] * Emus[nu]).is_zero() and not orth:
            orth = "E_mu E_nu != 0 for mu = %s, nu = %s" % (list(mu.parts), list(nu.parts))
        cnt += 1
    _check(report, "central_idempotents_orthogonal", cnt, not orth, orth)
    return report


def _membership_check(report, name, cases):
    """One check over (label, x, which, member) cases: x is expected in the
    ideal of the quotient `which` exactly when member is True. The detail
    names the first case that disagrees."""
    detail = ""
    for label, x, which, member in cases:
        if ideal_membership(x, which) != member and not detail:
            detail = "%s is %sin the %s ideal" % (label, "not " if member else "", which)
    _check(report, name, len(cases), not detail, detail)


def suite_quotients(d, n, seed=0):
    report = _new_report(d, n, "quotients", seed)
    shapes = enumerate_d_partitions(d, n)
    detail = ""
    for shape in shapes:
        try:
            passes_to_quotient(d, shape, "FTL")
            passes_to_quotient(d, shape, "CTL")
        except ConsistencyError as exc:
            detail = detail or str(exc)
    _check(report, "two_column_vs_annihilation", 2 * len(shapes), not detail, detail)
    if n >= 3:
        ftl = ("ftl_generator(%d, %d)" % (d, n), yk.ftl_generator(d, n))
        ctl = ("ctl_generator(%d, %d)" % (d, n), yk.ctl_generator(d, n))
        unit = ("unit(%d, %d)" % (d, n), yk.unit(d, n))
        _membership_check(report, "ftl_generator_in_ideal", [ftl + ("FTL", True)])
        _membership_check(report, "ctl_generator_in_ideal", [ctl + ("CTL", True)])
        _membership_check(report, "ctl_ideal_contains_ftl_generator_image",
                          [ctl + ("FTL", True)])
        _membership_check(report, "unit_not_in_ideal",
                          [unit + ("FTL", False), unit + ("CTL", False)])
    return report


def suite_iso(d, n, seed=0, hom_pairs=30):
    report = _new_report(d, n, "iso", seed)
    rng = random.Random(seed)
    mus = compositions(d, n)
    report["blocks"] = [[list(mu.parts), coset_system(mu).m] for mu in mus]
    nonintegral = []

    def images(fn, *args):
        """fn(*args), or None when an image has a non-integral q-power; such
        a call fails its own check and integrality_of_images."""
        try:
            return fn(*args)
        except NonIntegralExponent as exc:
            nonintegral.append(exc)
            return None

    # inverse pair on the full standard basis
    inv_detail = ""
    cnt = 0
    for a in itertools.product(range(d), repeat=n):
        for w in all_perms(n):
            x = yk.YElement(d, n, {(a, w): RatFunc.one(d)})
            blocks = images(iso.psi_n, x)
            if (blocks is None or iso.phi_n(blocks) != x) and not inv_detail:
                inv_detail = "phi_n(psi_n(x)) != x for x = t^%s g_%s" % (
                    list(a), list(w.images))
            cnt += 1
    _check(report, "phi_after_psi_identity", cnt, not inv_detail, inv_detail)
    # inverse on the matrix side, sampled per block
    mat_detail = ""
    cnt = 0
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
            back = images(lambda: iso.psi_mu(mu, iso.phi_mu(mu, hmat)))
            if (back is None or not iso.block_equal(back, hmat)) and not mat_detail:
                mat_detail = "psi_mu(phi_mu(h)) != h for mu = %s, h = g_%s in cell (%d, %d)" \
                    % (list(mu.parts), list(w.images), k, l)
            cnt += 1
    _check(report, "psi_after_phi_identity", cnt, not mat_detail, mat_detail)
    # homomorphism property on random pairs
    hom_detail = ""
    cnt = 0
    for mu in mus:
        for pair in range(hom_pairs):
            x = _random_element(d, n, rng)
            y = _random_element(d, n, rng)
            lhs = images(iso.psi_mu, mu, x * y)
            px, py = images(iso.psi_mu, mu, x), images(iso.psi_mu, mu, y)
            if (None in (lhs, px, py) or not iso.block_equal(lhs, iso.block_mat_mul(px, py))) \
                    and not hom_detail:
                hom_detail = "psi_mu(x y) != psi_mu(x) psi_mu(y) for mu = %s, pair %d" % (
                    list(mu.parts), pair)
            cnt += 1
    _check(report, "homomorphism_property", cnt, not hom_detail, hom_detail)
    hom_cnt = cnt
    # diagonal action of the framing generators on each block
    diag_detail = ""
    diag_cnt = 0
    for mu in mus:
        m = coset_system(mu).m
        chars = iso.block_characters(mu)
        for j in range(1, n + 1):
            mat = images(iso.psi_mu, mu, yk.gen_t(d, n, j))
            diag_cnt += 1
            tmon = tuple(1 if jj == j - 1 else 0 for jj in range(n))
            want = [iso.hecke_term(n, Perm.identity(n),
                                   RatFunc.from_scalar(yk.chi_value(d, chars[k], tmon), d))
                    for k in range(m)]
            diagonal = mat is not None and all(
                mat[k][l] == want[k] if k == l else mat[k][l].is_zero()
                for k in range(m) for l in range(m))
            if not diagonal and not diag_detail:
                diag_detail = "psi_mu(t_%d) != diag(chi(t_%d)) for mu = %s" % (
                    j, j, list(mu.parts))
    if n >= 3:
        kills = {}  # the failure detail of each check, "" when it passes
        for name, psi, gen in (("ftl", iso.ftl_psi, yk.ftl_generator),
                               ("ctl", iso.ctl_psi, yk.ctl_generator)):
            blocks = images(psi, gen(d, n))
            image = "%s_psi(%s_generator(%d, %d))" % (name, name, d, n)
            if blocks is None:
                kills[name] = image + " raised NonIntegralExponent"
            else:
                mu = iso.nonzero_block(blocks)
                kills[name] = "" if mu is None else "%s is nonzero in the block of mu = %s" % (
                    image, list(mu.parts))
        # quotient round trips on random standard-basis elements
        rt_detail = ""
        rt_cnt = 0
        rounds = 10 if d ** n * factorial(n) > 100 else 20
        for _ in range(rounds):
            x = _random_basis_element(d, n, rng)
            ((a, w), _), = x.terms
            for psi, phi, which in ((iso.ftl_psi, iso.ftl_phi, "FTL"),
                                    (iso.ctl_psi, iso.ctl_phi, "CTL")):
                back = images(lambda: phi(psi(x)))
                if back is None:
                    failure = "raised NonIntegralExponent"
                elif not ideal_membership(back - x, which):
                    failure = "is not congruent to it modulo the ideal"
                else:
                    continue
                rt_detail = rt_detail or "%s round trip of t^%s g_%s %s" % (
                    which, list(a), list(w.images), failure)
            rt_cnt += 2
    # every psi image above has been computed before this check is reported
    _check(report, "integrality_of_images", hom_cnt, not nonintegral,
           "integer q-exponents asserted during every psi computation")
    _check(report, "framing_images_diagonal", diag_cnt, not diag_detail, diag_detail)
    if n >= 3:
        _check(report, "ftl_psi_kills_generator", 1, not kills["ftl"], kills["ftl"])
        _check(report, "ctl_psi_kills_generator", 1, not kills["ctl"], kills["ctl"])
        _check(report, "quotient_round_trips_mod_ideal", rt_cnt, not rt_detail, rt_detail)
    # basis counts
    _check(report, "ftl_basis_count", 1,
           len(iso.ftl_basis(d, n)) == dim_FTL(d, n))
    _check(report, "ctl_basis_count", 1,
           len(iso.ctl_basis(d, n)) == dim_CTL(d, n))
    return report


def suite_basis(d, n, seed=0):
    report = _new_report(d, n, "basis", seed)
    _check(report, "jones_tl_count", n,
           all(len(jones_pairs(m, "TL")) == catalan(m) for m in range(n + 1)))
    bij_detail = ""
    for m in range(1, n + 1):
        pairs = jones_pairs(m, "All")
        if len({jones_permutation(m, p) for p in pairs}) != factorial(m):
            bij_detail = "the Jones words for m = %d do not biject onto S_%d" % (m, m)
        elif not all(jones_permutation(m, p).length() == len(p.word()) for p in pairs):
            bij_detail = "a Jones word for m = %d is not reduced" % m
        if bij_detail:
            break
    _check(report, "jones_words_reduced_bijection", n, not bij_detail, bij_detail)
    _check(report, "ftl_basis_count", 1, len(iso.ftl_basis(d, n)) == dim_FTL(d, n))
    _check(report, "ctl_basis_count", 1, len(iso.ctl_basis(d, n)) == dim_CTL(d, n))
    return report


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
                chk = dict(chk, name="%s.%s" % (name, chk["name"]))
                combined["checks"].append(chk)
                if not chk["passed"]:
                    combined["ok"] = False
            if "blocks" in sub:
                combined["blocks"] = sub["blocks"]
        return combined
    if suite not in SUITES:
        raise ValueError("unknown suite %r" % suite)
    return _guarded(suite, d, n, seed, "%s.raised" % suite)
