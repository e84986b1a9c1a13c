import json
import os
import subprocess
import sys

import pytest

from ytl.verify import SUITES, run_suite


def test_all_suites_small():
    report = run_suite(2, 2, "all", seed=0)
    assert report["ok"]
    assert report["d"] == 2 and report["n"] == 2
    names = {c["name"] for c in report["checks"]}
    # every registered suite contributes prefixed checks
    for suite in SUITES:
        assert any(name.startswith(suite + ".") for name in names)
    json.dumps(report)  # report is JSON-serializable


def test_single_suites():
    for suite in ("dims", "idempotents", "quotients"):
        report = run_suite(2, 3, suite, seed=1)
        assert report["ok"], suite
        assert all(c["passed"] for c in report["checks"])


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite(2, 2, "nope")


def test_an_exception_in_a_suite_is_a_failed_check(monkeypatch, capsys, tmp_path):
    from ytl import cli, verify

    def raising(d, n, seed=0):
        raise ZeroDivisionError("forced at n=%d" % n)

    monkeypatch.setitem(verify.SUITES, "dims", raising)
    failed = {"name": "dims.raised", "instances": 1, "passed": False,
              "detail": "ZeroDivisionError: forced at n=2"}
    report = run_suite(2, 2, "dims")
    assert report["ok"] is False and report["checks"] == [failed]
    # under all, the other suites still run and report their checks
    report = run_suite(2, 2, "all")
    assert report["ok"] is False and failed in report["checks"]
    others = [c for c in report["checks"] if c != failed]
    assert others and all(c["passed"] for c in others)
    assert {c["name"].split(".")[0] for c in others} == set(SUITES) - {"dims"}
    # the command prints the report and exits 1, with no traceback, and does
    # not cache it
    code = cli.main(["--cache-dir", str(tmp_path), "verify", "-d", "2", "-n", "2",
                     "--suite", "dims"])
    out = capsys.readouterr()
    assert code == 1 and json.loads(out.out)["checks"] == [failed]
    assert "Traceback" not in out.err
    assert not os.listdir(tmp_path)


def test_seed_determinism():
    a = run_suite(2, 2, "iso", seed=7)
    b = run_suite(2, 2, "iso", seed=7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.fixture
def inverted_admissibility(monkeypatch):
    """The admissibility predicate of reps negated, for both quotients; the
    quotient_shapes read under it are dropped from its cache afterwards."""
    import ytl.reps as reps

    original = reps.quotient_admissible
    monkeypatch.setattr(reps, "quotient_admissible",
                        lambda shape, r: not original(shape, r))
    reps.quotient_shapes.cache_clear()
    yield reps
    reps.quotient_shapes.cache_clear()


def test_admissibility_mismatch_fails_the_check(inverted_admissibility):
    from ytl.permutations import ConsistencyError
    from ytl.verify import suite_quotients

    reps = inverted_admissibility
    with pytest.raises(ConsistencyError):
        reps.passes_to_quotient(1, ((2, 1),), "FTL")
    report = suite_quotients(1, 3)
    check, = [c for c in report["checks"]
              if c["name"] == "two_column_vs_annihilation"]
    assert check["passed"] is False and report["ok"] is False


def test_admissibility_mismatch_fails_under_optimize():
    # python -O strips assert statements; the check must still fail
    script = (
        "import ytl.reps as reps\n"
        "from ytl.verify import suite_quotients\n"
        "original = reps.quotient_admissible\n"
        "reps.quotient_admissible = lambda shape, r: not original(shape, r)\n"
        "report = suite_quotients(1, 3)\n"
        "print([c['passed'] for c in report['checks']"
        " if c['name'] == 'two_column_vs_annihilation'])\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[False]"


def test_failed_membership_names_the_instance(monkeypatch):
    import re
    import ytl.verify as verify

    drawn = []
    original = verify._random_basis_element

    def recording(d, n, rng):
        x = original(d, n, rng)
        drawn.append(x)
        return x

    monkeypatch.setattr(verify, "_random_basis_element", recording)
    monkeypatch.setattr(verify, "ideal_membership", lambda x, which: False)
    report = run_suite(1, 3, "iso")
    checks = {c["name"]: c for c in report["checks"]}
    trip = checks["quotient_round_trips_mod_ideal"]
    assert trip["passed"] is False and trip["instances"] == 40
    # the round trips draw the last 20 basis elements; the first fails first
    ((a, w), _), = drawn[-20].terms
    assert trip["detail"] == (
        "FTL round trip of t^%s g_%s is not congruent to it modulo the ideal"
        % (list(a), list(w.images)))
    assert re.fullmatch(r"FTL round trip of t\^\[0, 0, 0\] g_\[[123], [123], [123]\] .*",
                        trip["detail"])

    checks = {c["name"]: c for c in run_suite(2, 3, "quotients")["checks"]}
    assert checks["ftl_generator_in_ideal"]["detail"] == \
        "ftl_generator(2, 3) is not in the FTL ideal"
    assert checks["ctl_ideal_contains_ftl_generator_image"]["detail"] == \
        "ctl_generator(2, 3) is not in the FTL ideal"
    assert checks["unit_not_in_ideal"] == {
        "name": "unit_not_in_ideal", "instances": 2, "passed": True, "detail": ""}
    monkeypatch.setattr(verify, "ideal_membership", lambda x, which: which == "CTL")
    checks = {c["name"]: c for c in run_suite(2, 3, "quotients")["checks"]}
    assert checks["unit_not_in_ideal"]["passed"] is False
    assert checks["unit_not_in_ideal"]["detail"] == "unit(2, 3) is in the CTL ideal"
    assert checks["ctl_generator_in_ideal"]["passed"] is True


def test_admissibility_mismatch_names_the_shape(inverted_admissibility):
    check, = [c for c in run_suite(1, 3, "quotients")["checks"]
              if c["name"] == "two_column_vs_annihilation"]
    assert check["passed"] is False
    assert "at shape ((3,),) (FTL)" in check["detail"]


def test_wrong_character_idempotent_is_named(monkeypatch):
    import ytl.yokonuma as yk
    from ytl.verify import suite_idempotents

    original = yk.E_chi

    def doubled(d, n, chi):
        e = original(d, n, chi)
        return e.scale(2) if tuple(chi) == (1, 0) else e

    monkeypatch.setattr(yk, "E_chi", doubled)
    report = suite_idempotents(2, 2)
    checks = {c["name"]: c for c in report["checks"]}
    assert report["ok"] is False
    assert checks["character_idempotents"] == {
        "name": "character_idempotents", "instances": 4, "passed": False,
        "detail": "E_chi^2 != E_chi for chi = [1, 0]"}
    assert checks["character_completeness"]["detail"] == "the E_chi do not sum to 1"
    assert checks["central_idempotents_commute"]["detail"] == \
        "E_mu g_1 != g_1 E_mu for mu = [1, 1]"
    assert checks["central_idempotents_sum"]["detail"] == "the E_mu do not sum to 1"
    for name in ("character_orthogonality", "framing_eigenvalues",
                 "projector_selection_rules", "central_idempotents_orthogonal"):
        assert checks[name]["passed"] is True and checks[name]["detail"] == ""


def test_overlapping_character_idempotents_name_the_pair(monkeypatch):
    import ytl.yokonuma as yk
    from ytl.verify import suite_idempotents

    original = yk.E_chi

    def merged(d, n, chi):
        e = original(d, n, chi)
        return e + original(d, n, (0, 0)) if tuple(chi) == (1, 1) else e

    monkeypatch.setattr(yk, "E_chi", merged)
    checks = {c["name"]: c for c in suite_idempotents(2, 2)["checks"]}
    # a sum of orthogonal idempotents is idempotent: only the pairs fail
    assert checks["character_idempotents"]["passed"] is True
    assert checks["character_orthogonality"]["detail"] == \
        "E_chi E_psi != 0 for chi = [0, 0], psi = [1, 1]"
    assert checks["framing_eigenvalues"]["detail"] == \
        "t_1 E_chi != chi(t_1) E_chi for chi = [1, 1]"
    assert checks["projector_selection_rules"]["detail"] == \
        "T_1 E_chi != 0 for chi = [1, 1]"
    assert checks["central_idempotents_orthogonal"]["detail"] == \
        "E_mu E_nu != 0 for mu = [2, 0], nu = [0, 2]"


def test_module_relations_name_the_failing_instance(monkeypatch):
    import ytl.verify as verify

    rep_g, rep_t = verify.rep_g, verify.rep_t

    def doubled_g2(module, i):
        g = rep_g(module, i)
        return [[2 * x for x in row] for row in g] if i == 2 else g

    monkeypatch.setattr(verify, "rep_g", doubled_g2)
    checks = {c["name"]: c for c in verify.suite_relations(1, 3)["checks"]}
    assert checks["braid_relations"]["detail"] == \
        "g_1 g_2 g_1 != g_2 g_1 g_2 at shape ((3,),)"
    assert checks["quadratic_relation"]["detail"] == \
        "g_2^2 != q + (q - 1) e_2 g_2 at shape ((3,),)"
    assert checks["hecke_seminormal_match"] == {
        "name": "hecke_seminormal_match", "instances": 6, "passed": False,
        "detail": "g_2 != the Hoefsmit matrix at shape ((3,),)"}
    for name in ("framing_relations", "diagonal_actions"):
        assert checks[name]["passed"] is True and checks[name]["detail"] == ""

    def doubled_t3(module, j):
        t = rep_t(module, j)
        return [[2 * x for x in row] for row in t] if j == 3 else t

    monkeypatch.setattr(verify, "rep_g", rep_g)
    monkeypatch.setattr(verify, "rep_t", doubled_t3)
    checks = {c["name"]: c for c in verify.suite_relations(2, 3)["checks"]}
    assert checks["framing_relations"]["detail"] == "t_2 g_2 != g_2 t_3 at shape ((3,), ())"
    # t_3 doubled stays diagonal, and rep(e_2) does not read rep_t
    assert checks["diagonal_actions"]["passed"] is True


def test_jones_count_reports_the_cases_it_compares(monkeypatch):
    # one instance per catalan comparison that suite_basis makes
    import ytl.verify as verify

    compared = []
    original = verify.jones_pairs

    def counted(m, mode="TL"):
        if mode == "TL":
            compared.append(m)
        return original(m, mode)

    monkeypatch.setattr(verify, "jones_pairs", counted)
    checks = {c["name"]: c for c in verify.suite_basis(1, 3)["checks"]}
    assert checks["jones_tl_count"]["instances"] == len(compared) == 3


def test_hecke_match_catches_a_wrong_closed_form(monkeypatch):
    # the int word rows divide each column of g_i by the q-integer [k] of a
    # content difference k, and the Hoefsmit matrix inverts q^b - q^a
    # through RatFunc.inv, so a column left undivided shows; entries 1 and 2
    # always share a row or a column, so g_2 is the first generator with
    # k >= 2
    import ytl.reps as reps
    from ytl.verify import suite_relations

    original = reps._g_columns

    def undivided(d, shape, i):
        return tuple((alpha, c2, beta, 1) for alpha, c2, beta, _ in original(d, shape, i))

    def clear():
        reps.rep_g_cached.cache_clear()
        reps._rep_word_cached.cache_clear()

    clear()
    monkeypatch.setattr(reps, "_g_columns", undivided)
    try:
        checks = {c["name"]: c for c in suite_relations(1, 4)["checks"]}
    finally:
        monkeypatch.undo()
        clear()
    hecke = checks["hecke_seminormal_match"]
    assert hecke["passed"] is False
    assert hecke["detail"].startswith("g_2 != the Hoefsmit matrix at shape ((")
    assert suite_relations(1, 4)["ok"] is True


def test_relations_read_the_row_components(monkeypatch):
    # rep_t and rep_e act through the components the membership oracle
    # reads (reps._row_components): with entry 1 moved to the next
    # component, t_1 no longer commutes past g_1 as t_2 and e_1 no longer
    # satisfies the quadratic relation with g_1
    import ytl.reps as reps
    from ytl.verify import suite_relations

    original = reps._row_components

    def moved(d, shape):
        return tuple(((row[0] + 1) % d,) + row[1:] for row in original(d, shape))

    monkeypatch.setattr(reps, "_row_components", moved)
    try:
        checks = {c["name"]: c for c in suite_relations(2, 3)["checks"]}
    finally:
        monkeypatch.undo()
    for name in ("framing_relations", "quadratic_relation", "diagonal_actions"):
        assert checks[name]["passed"] is False, name
    assert suite_relations(2, 3)["ok"] is True


def test_wrong_shaped_images_fail(monkeypatch):
    # a block with a row too many, or one too few, is not equal to the block
    import ytl.isomaps as iso
    import ytl.verify as verify
    from ytl.linalg import mat_mul

    preimages = []

    def phi_mu(mu, matrix):
        preimages.append(iso.phi_mu(mu, matrix))
        return preimages[-1]

    def psi_mu(mu, x):
        out = iso.psi_mu(mu, x)
        return out + [out[0]] if any(x is p for p in preimages) else out

    def short_mat_mul(a, b, zero):
        return mat_mul(a, b, zero)[:-1]

    _iso_with(monkeypatch, psi_mu=psi_mu, phi_mu=phi_mu)
    checks = _iso_checks()
    assert checks["psi_after_phi_identity"]["passed"] is False
    assert checks["homomorphism_property"]["passed"] is True
    monkeypatch.undo()
    monkeypatch.setattr(verify, "mat_mul", short_mat_mul)
    checks = _iso_checks()
    assert checks["homomorphism_property"]["passed"] is False
    assert checks["psi_after_phi_identity"]["passed"] is True


def _iso_with(monkeypatch, **fakes):
    """suite_iso's view of isomaps, with some functions replaced; isomaps
    itself, and every call inside it, keeps the originals."""
    import types

    import ytl.isomaps as iso
    import ytl.verify as verify

    view = types.ModuleType("isomaps_view")
    view.__dict__.update(vars(iso))
    view.__dict__.update(fakes)
    monkeypatch.setattr(verify, "iso", view)


def _iso_checks():
    from ytl.verify import suite_iso

    report = suite_iso(2, 2, hom_pairs=4)
    assert report["ok"] is False
    return {c["name"]: c for c in report["checks"]}


def test_kill_checks_name_the_block(monkeypatch):
    import ytl.isomaps as iso
    import ytl.yokonuma as yk
    from ytl.permutations import compositions
    from ytl.verify import suite_iso

    d, n = 2, 3
    mu, nu = compositions(d, n)[-1], compositions(d, n)[0]

    def ftl_psi(x):
        # the generator's image gets one nonzero cell, in the last block
        blocks = iso.ftl_psi(x)
        if x == yk.ftl_generator(d, n):
            blocks[mu][0][0] = {"nonzero": 1}
        return blocks

    def ctl_psi(x):
        # and the CTL one in the first block
        blocks = iso.ctl_psi(x)
        if x == yk.ctl_generator(d, n):
            blocks[nu][0][0] = {"nonzero": 1}
        return blocks

    passing = {c["name"]: c for c in suite_iso(d, n, hom_pairs=1)["checks"]}
    assert passing["ftl_psi_kills_generator"]["detail"] == ""
    assert passing["ctl_psi_kills_generator"]["detail"] == ""
    _iso_with(monkeypatch, ftl_psi=ftl_psi, ctl_psi=ctl_psi)
    checks = {c["name"]: c for c in suite_iso(d, n, hom_pairs=1)["checks"]}
    assert checks["ftl_psi_kills_generator"] == {
        "name": "ftl_psi_kills_generator", "instances": 1, "passed": False,
        "detail": "ftl_psi(ftl_generator(2, 3)) is nonzero in the block of mu = %s"
                  % list(mu.parts)}
    assert checks["ctl_psi_kills_generator"] == {
        "name": "ctl_psi_kills_generator", "instances": 1, "passed": False,
        "detail": "ctl_psi(ctl_generator(2, 3)) is nonzero in the block of mu = %s"
                  % list(nu.parts)}
    assert checks["quotient_round_trips_mod_ideal"]["passed"] is True


def test_phi_after_psi_names_the_basis_element(monkeypatch):
    import ytl.isomaps as iso

    def phi_n(blocks):
        x = iso.phi_n(blocks)
        ((a, _), _), = x.terms
        return x.scale(2) if a == (1, 0) else x

    _iso_with(monkeypatch, phi_n=phi_n)
    checks = _iso_checks()
    assert checks["phi_after_psi_identity"] == {
        "name": "phi_after_psi_identity", "instances": 8, "passed": False,
        "detail": "phi_n(psi_n(x)) != x for x = t^[1, 0] g_[1, 2]"}
    assert checks["psi_after_phi_identity"]["detail"] == ""


def test_psi_after_phi_names_the_block_and_cell(monkeypatch):
    import ytl.isomaps as iso

    calls = []

    def phi_mu(mu, matrix):
        calls.append((mu, matrix))
        return iso.phi_mu(mu, matrix).scale(2)

    _iso_with(monkeypatch, phi_mu=phi_mu)
    checks = _iso_checks()
    mu, matrix = calls[0]
    (k, l), = [(k, l) for k, row in enumerate(matrix) for l, h in enumerate(row)
               if not h.is_zero()]
    ((_, w), _), = matrix[k][l].terms
    assert checks["psi_after_phi_identity"]["detail"] == \
        "psi_mu(phi_mu(h)) != h for mu = %s, h = g_%s in cell (%d, %d)" % (
            list(mu.parts), list(w.images), k, l)
    assert checks["phi_after_psi_identity"]["detail"] == ""


def test_homomorphism_property_names_the_pair(monkeypatch):
    import ytl.isomaps as iso
    import ytl.verify as verify
    from ytl.linalg import mat_mul
    from ytl.permutations import compositions

    calls = []

    def wrong_mat_mul(a, b, zero):
        # wrong from the third product on: the first block's pair 2
        calls.append(None)
        out = mat_mul(a, b, zero)
        if len(calls) >= 3:
            out[0][0] = out[0][0] + iso.hecke_unit(2)
        return out

    monkeypatch.setattr(verify, "mat_mul", wrong_mat_mul)
    checks = _iso_checks()
    assert checks["homomorphism_property"]["detail"] == \
        "psi_mu(x y) != psi_mu(x) psi_mu(y) for mu = %s, pair 2" % (
            list(compositions(2, 2)[0].parts),)
    assert checks["framing_images_diagonal"]["detail"] == ""


def test_framing_images_diagonal_names_the_block_and_generator(monkeypatch):
    import ytl.isomaps as iso
    import ytl.yokonuma as yk
    from ytl.permutations import compositions

    second = compositions(2, 2)[1]

    def psi_mu(mu, x):
        out = iso.psi_mu(mu, x)
        if mu == second and x == yk.gen_t(2, 2, 2):
            out[0][0] = out[0][0] + out[0][0]
        return out

    _iso_with(monkeypatch, psi_mu=psi_mu)
    checks = _iso_checks()
    assert checks["framing_images_diagonal"] == {
        "name": "framing_images_diagonal", "instances": 6, "passed": False,
        "detail": "psi_mu(t_2) != diag(chi(t_2)) for mu = %s" % (list(second.parts),)}
    assert checks["homomorphism_property"]["detail"] == ""


def test_jones_bijection_names_the_size(monkeypatch):
    import ytl.verify as verify
    from ytl.permutations import Perm, all_perms

    original = verify.jones_permutation

    def collapsed(m, pair):
        return Perm.identity(m) if m == 3 else original(m, pair)

    monkeypatch.setattr(verify, "jones_permutation", collapsed)
    report = verify.suite_basis(1, 4)
    check, = [c for c in report["checks"] if c["name"] == "jones_words_reduced_bijection"]
    assert report["ok"] is False
    assert check == {"name": "jones_words_reduced_bijection", "instances": 4,
                     "passed": False,
                     "detail": "the Jones words for m = 3 do not biject onto S_3"}

    def unreduced(m, pair):
        # still a bijection, but w0 w has length l(w0) - l(w)
        w = original(m, pair)
        return all_perms(m)[-1] * w if m == 3 else w

    monkeypatch.setattr(verify, "jones_permutation", unreduced)
    check, = [c for c in verify.suite_basis(1, 4)["checks"]
              if c["name"] == "jones_words_reduced_bijection"]
    assert check["detail"] == "a Jones word for m = 3 is not reduced"


def test_count_checks_name_both_counts(monkeypatch):
    import ytl.verify as verify

    # each reference count off by one; the per-m ones only from m = 2 on
    for name in ("dim_TL", "catalan"):
        monkeypatch.setattr(verify, name, lambda m, f=getattr(verify, name): f(m) + (m >= 2))
    for name in ("dim_Y", "dim_FTL", "dim_CTL"):
        monkeypatch.setattr(verify, name, lambda d, n, f=getattr(verify, name): f(d, n) + 1)
    ftl = "the size of ftl_basis(2, 3) vs dim_FTL: 46 != 47"
    ctl = "the size of ctl_basis(2, 3) vs dim_CTL: 47 != 48"
    want = {
        "dims": {
            "catalan_two_column_sum":
                (3, "dim_TL(2) vs its squared two-column tableaux counts: 3 != 2"),
            "squared_tableaux_sum": (1, "squared tableaux counts vs dim_Y(2, 3): 48 != 49"),
            "ftl_formula_vs_bruteforce": (1, "dim_FTL(2, 3) vs the brute-force count: 47 != 46"),
            "ctl_formulas_agree_and_match_bruteforce":
                (1, "dim_CTL(2, 3) vs the brute-force count: 48 != 47")},
        "basis": {"jones_tl_count": (3, "TL Jones pairs vs catalan(2): 2 != 3"),
                  "ftl_basis_count": (1, ftl), "ctl_basis_count": (1, ctl)},
        "iso": {"ftl_basis_count": (1, ftl), "ctl_basis_count": (1, ctl)},
    }
    reports = {"dims": verify.suite_dims(2, 3), "basis": verify.suite_basis(2, 3),
               "iso": verify.suite_iso(2, 3, hom_pairs=1)}
    for suite, checks in want.items():
        report = reports[suite]
        assert report["ok"] is False
        got = {c["name"]: (c["instances"], c["detail"])
               for c in report["checks"] if not c["passed"]}
        assert got == checks, suite
