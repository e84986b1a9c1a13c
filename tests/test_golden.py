"""Golden CLI outputs: each command's stdout must match its file under
tests/golden/ byte for byte. The files were written by

    PYTHONPATH=src python -m ytl.cli --no-cache ARGS > tests/golden/NAME.json

and change only with a deliberate change of output.

Run as a script, this module runs every command in a fresh
`python -O -m ytl.cli --no-cache` process, which strips `assert` statements
and imports only what the command loads, and exits 1 on any mismatch:

    PYTHONPATH=src python tests/test_golden.py
"""

import pathlib
import subprocess
import sys

import pytest

from ytl.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "verify": ["verify", "-d", "2", "-n", "3", "--suite", "all", "--seed", "0"],
    "basis_ftl": ["basis", "ftl", "-d", "2", "-n", "3"],
    "basis_ctl": ["basis", "ctl", "-d", "2", "-n", "3"],
    # the only CTL listing whose keys carry two Hecke factors: it pins the
    # order of the flat keys (pair, w_2, w_3)
    "basis_ctl_d3": ["basis", "ctl", "-d", "3", "-n", "3"],
    "rep": ["rep", "-d", "2", "-n", "3", "--shape", "[[2],[1]]"],
    "mul": ["mul", "-d", "2", "-n", "3", "E(1; 2,1) * t1 + q * g1^-1"],
    "enumerate_cosets": ["enumerate", "cosets", "-d", "2", "-n", "3"],
    "dim_ctl": ["dim", "ctl", "-d", "3", "-n", "4"],
    # d = 3: scalars with several coordinates, such as 1/3 + 1/9 zeta
    "mul_d3": ["mul", "-d", "3", "-n", "2", "E(2; 1,1,0) * t1 + q * g1^-1"],
    "rep_d3": ["rep", "-d", "3", "-n", "3", "--shape", "[[2],[1],[]]"],
    # products of long braid words, and about 730 dense d = 3 products
    "mul_long_d2n4": ["mul", "-d", "2", "-n", "4",
                      "(g1*g2*g3*g1*g2 + q^-1*t2*g3*g2*g1) * (g3*g2*g1*g3 - 2/3*t4*g2^-1)"],
    "mul_long_d3n3": ["mul", "-d", "3", "-n", "3",
                      "(g1*g2*g1 + t1*t2^2*g2) * (E(1; 1,1,1) - q*g2*g1*t3)"],
    # d = 4: a character idempotent between the longest words, reduced mod
    # Phi_4; written before the packed product kernel
    "mul_long_d4n3": ["mul", "-d", "4", "-n", "3",
                      "(g1*g2*g1 + q^-2*t1^3*t3*g2) * (E(2; 1,1,1,0)*g2*g1*g2 - 3/5*q*g1^-1)"],
    # 8 * 10^6 powers of q between two rational operands: one zeta digit
    # to a power of q; written before each side packed only its own digits
    "mul_wide_q_d3": ["mul", "-d", "3", "-n", "2", "(1 + q^4000000) * (1 + q^-4000000)"],
    # a rational operand times character idempotents over Q(zeta_6), and
    # inside, each of them times a rational one
    "mul_mixed_zeta_d6": ["mul", "-d", "6", "-n", "2",
                          "(q^-1*g1 + 2/3*t1^2 - q*t2^3) * (E(1; 1,0,1,0,0,0)*g1"
                          " + q^2*t2^5*E(2; 0,0,0,1,1,0) - 5/7*g1^-1)"],
    "verify_idempotents_d3": ["verify", "-d", "3", "-n", "3", "--suite", "idempotents",
                              "--seed", "0"],
    # 2,982 products of order-4 elements, dense character idempotents among
    # them; written before each distinct coefficient value was encoded once
    "verify_idempotents_d4": ["verify", "-d", "4", "-n", "3", "--suite", "idempotents",
                              "--seed", "0"],
    # passes_to_quotient and ideal membership at d = 4, where reduction mod
    # Phi_4 does real work
    "verify_quotients_d4": ["verify", "-d", "4", "-n", "3", "--suite", "quotients",
                            "--seed", "0"],
    # seminormal entries over Phi_2, Phi_3 and Phi_2 Phi_4, and Phi_3 over Q(i)
    "rep_d1n5": ["rep", "-d", "1", "-n", "5", "--shape", "[[3,1,1]]"],
    "rep_d4n4": ["rep", "-d", "4", "-n", "4", "--shape", "[[3,1],[],[],[]]"],
    # the isomorphism suite at a composite order, where Phi_6 has degree 2
    "verify_iso_d6": ["verify", "-d", "6", "-n", "2", "--suite", "iso", "--seed", "0"],
    # psi and phi at d = 3, n = 3: the inverse transform over three axes;
    # written before phi ran on packed ints
    "verify_iso_d3n3": ["verify", "-d", "3", "-n", "3", "--suite", "iso", "--seed", "0"],
    # every suite at d = 1, the only such report with hecke_seminormal_match
    "verify_d1n4": ["verify", "-d", "1", "-n", "4", "--suite", "all", "--seed", "0"],
    # the seminormal membership oracle at d = 1 on 6 strands, where each
    # entry is a rational function over Q; written before the oracle ran on
    # packed ints
    "verify_iso_d1n6": ["verify", "-d", "1", "-n", "6", "--suite", "iso", "--seed", "0"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(capsys, name):
    code = main(["--no-cache"] + COMMANDS[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / ("%s.json" % name)).read_bytes()


def check_fresh_processes():
    """Compare each command's stdout from a fresh `python -O` process with
    its golden file; print one line per mismatch and return 1 if any."""
    failed = 0
    for name in sorted(COMMANDS):
        run = subprocess.run([sys.executable, "-O", "-m", "ytl.cli", "--no-cache"]
                             + COMMANDS[name], stdout=subprocess.PIPE)
        if run.returncode != 0 or run.stdout != (GOLDEN / ("%s.json" % name)).read_bytes():
            print("golden mismatch: %s (exit code %d)" % (name, run.returncode))
            failed = 1
    print("%d golden commands, %s" % (len(COMMANDS), "mismatches above" if failed else "all match"))
    return failed


if __name__ == "__main__":
    sys.exit(check_fresh_processes())
