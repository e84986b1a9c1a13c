import argparse
import json
import os
import re
import subprocess
import sys
import time

import pytest

import ytl
from ytl import cli
from ytl.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_dim_commands(capsys):
    code, payload = run(capsys, "--no-cache", "dim", "ftl", "-d", "2", "-n", "3")
    assert code == 0 and payload["dim"] == 46
    code, payload = run(capsys, "--no-cache", "dim", "tl", "-n", "4")
    assert code == 0 and payload["dim"] == 14
    code, payload = run(capsys, "--no-cache", "dim", "y", "-d", "2", "-n", "3")
    assert code == 0 and payload["dim"] == 48
    code, payload = run(capsys, "--no-cache", "dim", "ctl", "-d", "2", "-n", "3")
    assert code == 0 and payload["dim"] == 47
    # n < 3: quotient ideals vanish, so the quotient equals the full algebra
    code, payload = run(capsys, "--no-cache", "dim", "ftl", "-d", "2", "-n", "2")
    assert code == 0 and payload["dim"] == 8


def test_dim_past_its_input_bounds_is_a_usage_error(capsys):
    # d^n n! bounds every dimension; its digits are estimated before any work
    for argv in (("y", "-d", "2", "-n", "1000000"), ("ctl", "-d", "3", "-n", "3000"),
                 ("tl", "-n", "1600")):
        code, payload = run(capsys, "--no-cache", "dim", *argv)
        assert code == 2 and "digits" in payload["error"]
    # 1500! has 4,115 digits: within the limit
    code, payload = run(capsys, "--no-cache", "dim", "y", "-n", "1500")
    assert code == 0 and len(str(payload["dim"])) == 4115
    # the quotient formulas enumerate compositions: 167,167,000 at d = 1000,
    # where the enumeration also recursed past Python's limit
    for argv in (("ctl", "-d", "1000", "-n", "3"), ("ftl", "-d", "3", "-n", "1000")):
        code, payload = run(capsys, "--no-cache", "dim", *argv)
        assert code == 2 and "compositions" in payload["error"]
    code, payload = run(capsys, "--no-cache", "dim", "ctl", "-d", "1000", "-n", "2")
    assert code == 0 and payload["dim"] == 2 * 1000 ** 2


def test_enumerate_commands(capsys):
    code, payload = run(capsys, "--no-cache", "enumerate", "dpartitions",
                        "-d", "2", "-n", "2")
    assert code == 0 and len(payload["dpartitions"]) == 5
    code, payload = run(capsys, "--no-cache", "enumerate", "jonespairs",
                        "-n", "4", "--mode", "TL")
    assert code == 0 and payload["count"] == 14
    code, payload = run(capsys, "--no-cache", "enumerate", "cosets",
                        "-d", "2", "-n", "3", "--mu", "1", "2")
    assert code == 0
    assert len(payload["cosets"][0]["representatives"]) == 3
    code, payload = run(capsys, "--no-cache", "enumerate", "tableaux",
                        "-d", "1", "-n", "3", "--shape", "[[2,1]]")
    assert code == 0
    assert len(payload["tableaux"][0]["standard"]) == 2


def test_rep_command(capsys):
    code, payload = run(capsys, "--no-cache", "rep", "-d", "2", "-n", "2",
                        "--shape", "[[1],[1]]")
    assert code == 0 and payload["dim"] == 2
    assert payload["relation_check"]["ok"]
    code, payload = run(capsys, "--no-cache", "rep", "-d", "2", "-n", "2",
                        "--shape", "[[3]]")
    assert code == 2 and "error" in payload


def test_rep_checks_only_its_module(capsys):
    # one module of S_3: one braid relation, 3 + 6 + 3 framing and torsion
    # relations, 2 x 2 quadratic, 2 + 3 diagonal and 2 seminormal checks
    code, payload = run(capsys, "--no-cache", "rep", "-d", "1", "-n", "3",
                        "--shape", "[[2,1]]")
    assert code == 0 and payload["relation_check"]["ok"]
    counts = {c["name"]: c["instances"] for c in payload["relation_check"]["checks"]}
    assert counts == {"braid_relations": 1, "framing_relations": 12,
                      "quadratic_relation": 4, "diagonal_actions": 5,
                      "hecke_seminormal_match": 2}


@pytest.mark.parametrize("mu", [["5", "-1"], ["1", "1", "1"], ["1", "1"]])
def test_bad_mu_is_a_usage_error(capsys, mu):
    code, payload = run(capsys, "--no-cache", "enumerate", "cosets",
                        "-d", "2", "-n", "3", "--mu", *mu)
    assert code == 2 and "--mu" in payload["error"]


@pytest.mark.parametrize("expr", ["g1^100000", "g1^-100000", "(g1*g2)^100000"])
def test_unbounded_powers_are_usage_errors(capsys, expr):
    start = time.monotonic()
    code, payload = run(capsys, "--no-cache", "mul", "-d", "2", "-n", "3", expr)
    assert code == 2 and "bound" in payload["error"]
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("d, n, count", [(2, 14, 6), (10, 6, 22)])
def test_products_at_large_d_to_the_n_are_quick(capsys, d, n, count):
    # the t-monomial tables of the product fill as monomials occur: tables
    # of all d^(2n) sums would hold 2^28 and 10^12 entries here
    start = time.monotonic()
    code, payload = run(capsys, "--no-cache", "mul", "-d", str(d), "-n", str(n), "g1*g2")
    assert code == 0 and len(payload["element"]) == 1
    code, payload = run(capsys, "--no-cache", "mul", "-d", str(d), "-n", str(n),
                        "(t1 + t2)*g1*g2*g1*g1")
    assert code == 0 and len(payload["element"]) == count
    assert time.monotonic() - start < 1.0


def test_products_past_the_packed_bound_are_usage_errors(capsys):
    # 2 * 10^8 powers of q would pack into ints of gigabytes; the size is
    # known before anything is packed
    from ytl.yokonuma import MAX_PACKED_BITS

    start = time.monotonic()
    code, payload = run(capsys, "--no-cache", "mul", "-d", "3", "-n", "2",
                        "(1 + q^100000000) * (1 + q^-100000000) * g1")
    assert code == 2
    bits = int(re.search(r"(\d+) bits", payload["error"]).group(1))
    assert bits > MAX_PACKED_BITS and str(MAX_PACKED_BITS) in payload["error"]
    assert time.monotonic() - start < 1.0


def test_wide_rational_products_pack_one_zeta_digit(capsys):
    # (1 + q^N)(1 + q^-N) g1 at N = 4 * 10^6: both operands of each product
    # are rational, so a power of q packs one zeta digit, and the 8 * 10^6
    # powers of q of the second product fit under MAX_PACKED_BITS
    import oracles
    from ytl import yokonuma as yk
    from ytl.scalars import RatFunc

    N = 4 * 10 ** 6
    code, payload = run(capsys, "--no-cache", "mul", "-d", "3", "-n", "2",
                        "(1 + q^%d) * (1 + q^-%d) * g1" % (N, N))
    assert code == 0
    one = yk.unit(3, 2)
    x = oracles.ref_mul(one.scale(RatFunc.one(3) + RatFunc.q_power(N, 3)),
                        one.scale(RatFunc.one(3) + RatFunc.q_power(-N, 3)))
    want = oracles.ref_mul(x, yk.gen_g(3, 2, 1))
    assert payload["element"] == want.to_json() and len(want.terms[0][1].terms) == 3


def test_long_and_deep_expressions(capsys):
    from ytl.exprparse import MAX_PAREN_DEPTH

    code, payload = run(capsys, "--no-cache", "mul", "-d", "1", "-n", "2",
                        "+".join(["g1"] * 1000))
    assert code == 0 and payload["pretty"] == "YElement<d=1,n=2>((1000)*g1)"
    code, payload = run(capsys, "--no-cache", "mul", "-d", "1", "-n", "2",
                        "(" * 400 + "g1" + ")" * 400)
    assert code == 2
    assert payload["error"] == "parentheses nested deeper than %d at position %d" % (
        MAX_PAREN_DEPTH, MAX_PAREN_DEPTH)


def test_mul_command(capsys):
    code, payload = run(capsys, "--no-cache", "mul", "-d", "1", "-n", "2",
                        "g1*g1 - (q-1)*g1")
    assert code == 0
    assert payload["element"] == [{"t": [0, 0], "w": [1, 2],
                                   "coeff": payload["element"][0]["coeff"]}]
    code, payload = run(capsys, "--no-cache", "mul", "-d", "1", "-n", "2", "g1*")
    assert code == 2 and "error" in payload
    code, payload = run(capsys, "--no-cache", "mul", "-d", "1", "-n", "2", "g7")
    assert code == 2 and "error" in payload


def test_basis_command(capsys, tmp_path):
    code, payload = run(capsys, "--cache-dir", str(tmp_path),
                        "basis", "ftl", "-d", "2", "-n", "3")
    assert code == 0 and payload["count"] == 46 == payload["expected"]
    # a warm hit exits as the cold run that stored it would have
    entry, = tmp_path.iterdir()
    entry.write_text(json.dumps(dict(payload, expected=45)))
    code, _ = run(capsys, "--cache-dir", str(tmp_path),
                  "basis", "ftl", "-d", "2", "-n", "3")
    assert code == 1
    code, payload = run(capsys, "--cache-dir", str(tmp_path),
                        "basis", "ctl", "-d", "2", "-n", "3")
    assert code == 0 and payload["count"] == 47


def test_verify_command_and_cache(capsys, tmp_path):
    args = ["--cache-dir", str(tmp_path), "verify", "-d", "2", "-n", "2",
            "--suite", "relations"]
    code, cold = run(capsys, *args)
    assert code == 0 and cold["ok"]
    code, warm = run(capsys, *args)
    assert code == 0
    assert json.dumps(warm, sort_keys=True) == json.dumps(cold, sort_keys=True)
    # the cache file exists and holds the same payload
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    with open(files[0]) as fh:
        assert json.load(fh) == cold


def test_verify_caches_under_the_environment_directory(capsys, tmp_path, monkeypatch):
    # with no --cache-dir, YTL_CACHE_DIR names the cache: the first run
    # writes its entry there, and the second prints that entry byte for
    # byte without running the suite
    cache = tmp_path / "env-cache"
    monkeypatch.setenv("YTL_CACHE_DIR", str(cache))
    argv = ["verify", "-d", "2", "-n", "2", "--suite", "relations"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert json.loads(cold)["ok"]
    files = list(cache.iterdir())
    assert len(files) == 1 and files[0].name.startswith("verify-relations-d2-n2-s")

    def refuse(*args, **kwargs):
        raise AssertionError("the cached entry was not read")

    monkeypatch.setattr("ytl.verify.run_suite", refuse)
    assert main(argv) == 0
    assert capsys.readouterr().out == cold
    assert list(cache.iterdir()) == files


def test_verify_bad_suite_args(capsys):
    code, payload = run(capsys, "--no-cache", "verify", "-d", "0", "-n", "3")
    assert code == 2


def test_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code = main(["--no-cache", "-o", str(target),
                 "dim", "tl", "-n", "3"])
    assert code == 0
    assert json.loads(target.read_text())["dim"] == 5


def test_unwritable_output_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, payload = run(capsys, "-o", str(target), "dim", "y", "-d", "2", "-n", "2")
    assert code == 2 and str(target) in payload["error"]
    assert not target.parent.exists()


def test_failed_cache_store_keeps_the_result(capsys, tmp_path):
    # the cache directory cannot be made below a regular file
    blocker = tmp_path / "file"
    blocker.write_text("")
    cache = str(blocker / "cache")
    for argv in (["verify", "-d", "2", "-n", "2", "--suite", "relations"],
                 ["basis", "ctl", "-d", "2", "-n", "3"]):
        assert main(["--no-cache"] + argv) == 0
        want = capsys.readouterr().out
        assert main(["--cache-dir", cache] + argv) == 0
        out, err = capsys.readouterr()
        assert out == want
        assert len(err.splitlines()) == 1 and "not cached" in err and cache in err
    assert blocker.read_text() == ""


def test_positivity_error_goes_to_output_file(capsys, tmp_path):
    target = tmp_path / "o.json"
    code = main(["--no-cache", "-o", str(target), "dim", "y", "-d", "0", "-n", "2"])
    assert code == 2
    assert json.loads(target.read_text()) == {"error": "d and n must be positive"}
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("shape", ["[[1,2]]", "[[3,-1,1]]", "[[2,0,1]]",
                                   "[[2,1.0]]", "[[true,1,1]]", "3", "[3]"])
def test_bad_shapes_are_usage_errors(capsys, shape):
    for argv in (["rep", "-d", "1", "-n", "3", "--shape", shape],
                 ["enumerate", "tableaux", "-d", "1", "-n", "3", "--shape", shape]):
        code, payload = run(capsys, "--no-cache", *argv)
        assert code == 2 and "error" in payload, argv


def test_shape_with_empty_component(capsys):
    code, payload = run(capsys, "--no-cache", "enumerate", "tableaux",
                        "-d", "2", "-n", "3", "--shape", "[[2,1],[]]")
    assert code == 0 and len(payload["tableaux"][0]["standard"]) == 2


def test_corrupt_cache_entry_is_a_miss(capsys, tmp_path):
    args = ["--cache-dir", str(tmp_path), "basis", "ftl", "-d", "2", "-n", "3"]
    code, cold = run(capsys, *args)
    assert code == 0
    path, = tmp_path.iterdir()
    assert ytl.__version__ in path.name
    text = path.read_text()
    # an entry that parses but does not answer the request is a miss too
    for bad in (text[: len(text) // 2], "", "[]", '{"count": 0}',
                json.dumps(dict(json.loads(text), d=3))):
        path.write_text(bad)
        code, warm = run(capsys, *args)
        assert code == 0 and warm == cold
        assert path.read_text() == text
    vargs = ["--cache-dir", str(tmp_path), "verify", "-d", "1", "-n", "2",
             "--suite", "dims"]
    code, cold = run(capsys, *vargs)
    vpath, = [p for p in tmp_path.iterdir() if p != path]
    vtext = vpath.read_text()
    for bad in ("{}", '{"ok": true}', json.dumps(dict(json.loads(vtext), seed=1))):
        vpath.write_text(bad)
        code, warm = run(capsys, *vargs)
        assert code == 0 and warm == cold
        assert vpath.read_text() == vtext


def test_cache_store_is_atomic(tmp_path):
    args = argparse.Namespace(cache_dir=str(tmp_path), no_cache=False)
    cli._cache_store(args, "verify", "k", {"ok": True})
    path = cli._cache_path(args, "verify", "k")
    with open(path) as fh:
        before = fh.read()
    # json.dump writes part of this payload before it fails on the object
    with pytest.raises(TypeError):
        cli._cache_store(args, "verify", "k", {"a": "x" * 100000, "b": object()})
    with open(path) as fh:
        assert fh.read() == before
    assert os.listdir(tmp_path) == [os.path.basename(path)]


# ---------------------------------------------------------------------------
# which modules each command loads; the test process has imported them all,
# so each command runs in a fresh interpreter

def loaded_modules(*argv):
    """The ytl submodules besides ytl.cli that a fresh interpreter loads to
    import ytl.cli and, given arguments, run that command (pass --output to
    keep its JSON off the result). The command must exit 0 without loading
    dataclasses."""
    code = ("import json, sys\n"
            "import ytl.cli\n"
            "argv = sys.argv[1:]\n"
            "code = ytl.cli.main(argv) if argv else 0\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('ytl.')),"
            " 'dataclasses' in sys.modules]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ytl.__file__)))
    proc = subprocess.run([sys.executable, "-c", code] + list(argv),
                          capture_output=True, text=True, env=env, check=True)
    exit_code, modules, dataclasses = json.loads(proc.stdout)
    assert exit_code == 0 and not dataclasses, proc.stdout
    return {m[len("ytl."):] for m in modules} - {"cli"}


def test_import_cli_loads_no_submodule():
    assert loaded_modules() == set()


def test_each_command_loads_what_it_runs(tmp_path):
    out = ["--no-cache", "-o", str(tmp_path / "out.json")]
    assert loaded_modules(*out, "dim", "ctl", "-d", "3", "-n", "4") == {
        "tableaux", "permutations"}
    assert loaded_modules(*out, "enumerate", "cosets", "-d", "2", "-n", "3") == {
        "tableaux", "permutations"}
    mul = loaded_modules(*out, "mul", "-d", "2", "-n", "3", "g1*t2")
    assert "exprparse" in mul and not mul & {"reps", "isomaps", "verify"}


def test_a_cache_hit_loads_no_algebra_module(tmp_path):
    cache = ["--cache-dir", str(tmp_path / "cache"), "-o", str(tmp_path / "out.json")]
    for argv in (["verify", "-d", "2", "-n", "2", "--suite", "relations"],
                 ["basis", "ftl", "-d", "2", "-n", "3"]):
        assert main(cache + argv) == 0
        assert loaded_modules(*cache, *argv) == set()


def test_listings_past_the_item_bound_are_usage_errors(capsys):
    # each count is known in closed form before any work: basis ftl -d 2
    # -n 7 would write 259,382 items (86 MB of JSON, near 1 GB resident)
    for argv, count in ((("basis", "ftl", "-d", "2", "-n", "7"), 259382),
                        (("enumerate", "jonespairs", "-n", "12"), 208012),
                        (("enumerate", "jonespairs", "-n", "9", "--mode", "All"), 362880),
                        (("enumerate", "cosets", "-d", "2", "-n", "17"), 131072),
                        (("enumerate", "cosets", "-d", "2", "-n", "20", "--mu", "10", "10"),
                         184756)):
        code, payload = run(capsys, "--no-cache", *argv)
        assert code == 2, argv
        assert payload["error"].endswith("lists %d items, more than %d"
                                         % (count, cli.MAX_ITEMS)), payload
    # far past the bound only a lower bound is computed, so the refusal is
    # immediate where the closed form alone would take minutes
    for argv in (("basis", "ctl", "-d", "1", "-n", "1000000"),
                 ("basis", "ftl", "-d", "1000", "-n", "3"),
                 ("enumerate", "jonespairs", "-n", "100000000"),
                 ("enumerate", "cosets", "-d", "3", "-n", "15", "--mu", "5", "5", "5")):
        start = time.monotonic()
        code, payload = run(capsys, "--no-cache", *argv)
        assert code == 2 and "lists at least 10^" in payload["error"], argv
        assert time.monotonic() - start < 5.0
    # a small count runs at any n
    code, payload = run(capsys, "--no-cache", "enumerate", "cosets", "-d", "2", "-n", "40",
                        "--mu", "40", "0")
    assert code == 0 and len(payload["cosets"][0]["representatives"]) == 1
    code, payload = run(capsys, "--no-cache", "enumerate", "jonespairs", "-n", "7",
                        "--mode", "All")
    assert code == 0 and payload["count"] == 5040


def test_tableaux_partitions_and_rep_past_the_item_bound_are_usage_errors(capsys):
    # counted by the hook length formula and a partition-number recurrence
    # before any listing: enumerate tableaux -d 1 -n 12 would list 140,152
    # tableaux in about 13 s and 1 GB
    start = time.monotonic()
    code, payload = run(capsys, "--no-cache", "enumerate", "tableaux", "-d", "1", "-n", "12")
    assert time.monotonic() - start < 1.0
    assert code == 2 and payload["error"] == (
        "enumerate tableaux at d=1, n=12 lists 140152 items, more than %d" % cli.MAX_ITEMS)
    for argv, count in ((("enumerate", "tableaux", "-d", "2", "-n", "9"), 168992),
                        (("enumerate", "tableaux", "-d", "1", "-n", "16", "--shape",
                          "[[6,5,3,2]]"), 500500),
                        (("enumerate", "dpartitions", "-d", "3", "-n", "40"), 481225800),
                        # 168 tableaux: 168^2 entries in each of 25 matrices
                        (("rep", "-d", "1", "-n", "9", "--shape", "[[4,3,2]]"), 705600)):
        code, payload = run(capsys, "--no-cache", *argv)
        assert code == 2, argv
        assert payload["error"].endswith("lists %d items, more than %d"
                                         % (count, cli.MAX_ITEMS)), payload
    for argv in (("enumerate", "dpartitions", "-d", "300", "-n", "3"),
                 ("enumerate", "dpartitions", "-d", "1", "-n", "1000000"),
                 ("enumerate", "tableaux", "-d", "5", "-n", "100")):
        start = time.monotonic()
        code, payload = run(capsys, "--no-cache", *argv)
        assert code == 2 and "lists at least 10^" in payload["error"], argv
        assert time.monotonic() - start < 5.0
    # under the bound the listings agree with the counts
    code, payload = run(capsys, "--no-cache", "enumerate", "tableaux", "-d", "1", "-n", "9")
    assert code == 0 and sum(len(item["standard"]) for item in payload["tableaux"]) == 2620
    code, payload = run(capsys, "--no-cache", "enumerate", "dpartitions", "-d", "3", "-n", "6")
    assert code == 0 and len(payload["dpartitions"]) == 221
