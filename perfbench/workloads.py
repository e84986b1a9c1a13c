"""The four seeded workloads of the ytl benchmark.

A workload turns a seed into an endless stream of operations, grouped in
rounds. Every round has the same fixed mix of (cell, kind) slots; the seed
only decides what fills each slot and the order inside the round. That keeps
the cost of a run nearly the same from seed to seed, so that run-to-run
spread measures the program and not the draw.

An operation is plain data (`Op`), so that a stream can be hashed. For each
operation a workload builds the inputs (untimed), makes the one call into the
library that is timed, and checks the result against an answer known by
construction or against an independent oracle (untimed).

The library is imported by `load_ytl`, never at import time of this module,
so that the benchmark can time the import as part of set-up.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import os
import random
import subprocess
import sys
from types import SimpleNamespace
from typing import NamedTuple

import combinat as C

# The warm-up pass draws its inputs from this offset of the timed seed, so
# that results memoised during set-up cannot serve the timed phase.
WARM_SEED_OFFSET = 1_000_003

CLI_TIMEOUT_S = 60


class Op(NamedTuple):
    round: int
    cell: tuple
    kind: str
    params: tuple


def load_ytl():
    """Import the library modules the workloads call."""
    names = ("scalars", "permutations", "tableaux", "linalg", "yokonuma",
             "reps", "isomaps", "exprparse", "verify", "cli")
    return SimpleNamespace(**{name: importlib.import_module("ytl." + name)
                              for name in names})


def warm_seed(seed):
    return seed + WARM_SEED_OFFSET


def round_of(workload, seed, r):
    """The operations of round r for a seed."""
    return workload.round_ops(random.Random("%s:%d:%d" % (workload.name, seed, r)), r)


def op_stream(workload, seed, first_round=0):
    """Operations of rounds first_round, first_round + 1, ... for a seed."""
    for r in itertools.count(first_round):
        yield from round_of(workload, seed, r)


def op_digest(workload, seed, count):
    """sha256 of the first `count` operations of a seed's stream."""
    h = hashlib.sha256()
    for op in itertools.islice(op_stream(workload, seed), count):
        h.update(repr(op).encode())
    return h.hexdigest()


class Workload:
    """Base class: subclasses define the rounds, the inputs, the timed call
    and the check."""

    name = ""
    # rounds per pass of a traced run (the untraced and the traced pass each
    # run this many rounds)
    trace_rounds = 1

    def __init__(self, lib, root):
        self.lib = lib
        self.root = root

    def round_ops(self, rng, r):
        raise NotImplementedError

    def materialize(self, op):
        raise NotImplementedError

    def call(self, op, inputs):
        raise NotImplementedError

    def check(self, op, inputs, result):
        """None when the result is right, else the reason it is wrong."""
        raise NotImplementedError

    def warm_ops(self, seed):
        """The first operation of every (cell, kind) slot of the warm seed's
        first round."""
        seen = set()
        out = []
        for op in round_of(self, warm_seed(seed), 0):
            if (op.cell, op.kind) not in seen:
                seen.add((op.cell, op.kind))
                out.append(op)
        return out

    def fill_tables(self):
        """Deterministic part of set-up: fill the library's lazy tables."""

    def close(self):
        """Remove what the workload wrote."""


def _basis_element(lib, d, n, tmon, images, coeff=None):
    scalars = lib.scalars
    if coeff is None:
        coeff = scalars.RatFunc.one(d)
    return lib.yokonuma.YElement(d, n, {(tuple(tmon), lib.permutations.Perm(tuple(images))): coeff})


def _random_tmon(rng, d, n):
    return tuple(rng.randrange(d) for _ in range(n))


def _random_coeff(rng):
    """(c, e) for the scalar c * q^e: random scalings keep the input space
    large, so that no two operations of a run share their inputs."""
    return rng.choice((-9, -5, -3, -2, -1, 1, 2, 3, 5, 9)), rng.randint(-2, 2)


def _scalar(lib, d, coeff):
    RatFunc = lib.scalars.RatFunc
    c, e = coeff
    return RatFunc.from_scalar(c, d) * RatFunc.q_power(e, d)


# ---------------------------------------------------------------------------
# ring: standard-basis arithmetic in Y(d, n)


class Ring(Workload):
    """Products in Y(d, n): dense (scaled character idempotents), generator
    (c t^a g_i against central idempotents) and sparse (3-term elements on
    long words)."""

    name = "ring"
    cells = ((3, 3), (2, 4))
    trace_rounds = 4
    # operations per round; with these counts the median of a run falls
    # among the generator products and the 90th percentile among the dense
    # products at (3, 3)
    dense = {(3, 3): 6, (2, 4): 4}
    generator_per_block = 2
    sparse = {(3, 3): 4, (2, 4): 2}
    # the words of the sparse elements: fixed per cell, so that the cost of
    # braid folding is the same for every seed
    sparse_lengths = {(3, 3): (2, 3), (2, 4): (5,)}

    def round_ops(self, rng, r):
        ops = []
        for d, n in self.cells:
            chars = list(itertools.product(range(d), repeat=n))
            for k in range(self.dense[(d, n)]):
                a = rng.choice(chars)
                b = a if k % 2 == 0 else rng.choice([c for c in chars if c != a])
                ops.append(Op(r, (d, n), "dense",
                              (a, b, _random_coeff(rng), _random_coeff(rng))))
            for mu in C.compositions(d, n):
                for _ in range(self.generator_per_block):
                    ops.append(Op(r, (d, n), "generator",
                                  (mu, _random_tmon(rng, d, n), rng.randint(1, n - 1),
                                   _random_coeff(rng))))
            words = [p for p in C.all_perms(n)
                     if C.length(p) in self.sparse_lengths[(d, n)]]
            for _ in range(self.sparse[(d, n)]):
                ops.append(Op(r, (d, n), "sparse",
                              (self._sparse(rng, d, n, words),
                               self._sparse(rng, d, n, words))))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _sparse(rng, d, n, words):
        """One term on each word, with random t-part and scalar."""
        return tuple((_random_tmon(rng, d, n), w, _random_coeff(rng)) for w in words)

    def _element(self, d, n, terms):
        lib = self.lib
        return lib.yokonuma.YElement(d, n, [
            ((tmon, lib.permutations.Perm(images)), _scalar(lib, d, coeff))
            for tmon, images, coeff in terms])

    def materialize(self, op):
        yk = self.lib.yokonuma
        (d, n), kind, params = op.cell, op.kind, op.params
        if kind == "dense":
            a, b, ca, cb = params
            return (yk.E_chi(d, n, a).scale(_scalar(self.lib, d, ca)),
                    yk.E_chi(d, n, b).scale(_scalar(self.lib, d, cb)))
        if kind == "generator":
            # c t^a g_i against the central idempotent E_mu
            mu, tmon, i, coeff = params
            images = list(range(1, n + 1))
            images[i - 1], images[i] = images[i], images[i - 1]
            z = _basis_element(self.lib, d, n, tmon, images, _scalar(self.lib, d, coeff))
            return z, yk.E_mu(d, n, self.lib.permutations.Composition(mu))
        x, y = params
        return self._element(d, n, x), self._element(d, n, y)

    def call(self, op, inputs):
        x, y = inputs
        if op.kind == "generator":
            return x * y, y * x
        return x * y

    def check(self, op, inputs, result):
        yk = self.lib.yokonuma
        d, n = op.cell
        x, y = inputs
        if op.kind == "dense":
            a, b, _, cb = op.params
            want = x.scale(_scalar(self.lib, d, cb)) if a == b else yk.zero(d, n)
            return None if result == want else "c E_chi(a) * c' E_chi(b) != %s" % (
                "c c' E_chi(a)" if a == b else "0")
        if op.kind == "generator":
            left, right = result
            if left.is_zero():
                return "z * E_mu is zero"
            return None if left == right else "z * E_mu != E_mu * z"
        want = yk.group_algebra_mul(d, n, yk.specialize_group_algebra(x),
                                    yk.specialize_group_algebra(y))
        got = yk.specialize_group_algebra(result)
        return None if got == want else "product disagrees with the q = 1 oracle"


# ---------------------------------------------------------------------------
# iso: block isomorphisms and quotient maps


class Iso(Workload):
    """Round trips through psi_n/phi_n on scaled basis elements, and through
    the FTL/CTL quotient maps on scaled explicit basis block families."""

    name = "iso"
    cells = ((3, 3), (2, 4))
    # psi_n round trips per round; with these counts the median of a run
    # falls among the (3, 3) operations and the 90th percentile below the
    # (4, 0) and (0, 4) blocks at (2, 4), whose Jones reduction takes 0.5 s
    n_ops = {(3, 3): 12, (2, 4): 14}
    # the n = 4 cell whose first quotient map builds the m = 4 Jones tables
    first_touch_cell = (2, 4)

    def __init__(self, lib, root):
        super().__init__(lib, root)
        self._bases = {}

    def round_ops(self, rng, r):
        ops = []
        for d, n in self.cells:
            perms = C.all_perms(n)
            for _ in range(self.n_ops[(d, n)]):
                ops.append(Op(r, (d, n), "n", (_random_tmon(rng, d, n), rng.choice(perms),
                                                _random_coeff(rng))))
            for kind, size in (("ftl", C.ftl_block_size), ("ctl", C.ctl_block_size)):
                # one basis element per block, so every round covers every block
                for mu in C.compositions(d, n):
                    ops.append(Op(r, (d, n), kind,
                                  (mu, rng.randrange(size(mu)), _random_coeff(rng))))
        rng.shuffle(ops)
        return ops

    def _basis(self, kind, d, n):
        key = (kind, d, n)
        if key not in self._bases:
            iso = self.lib.isomaps
            descriptors = iso.ftl_basis(d, n) if kind == "ftl" else iso.ctl_basis(d, n)
            by_mu = {}
            for desc in descriptors:
                by_mu.setdefault(tuple(desc[0].parts), []).append(desc)
            self._bases[key] = by_mu
        return self._bases[key]

    def materialize(self, op):
        d, n = op.cell
        if op.kind == "n":
            tmon, images, coeff = op.params
            return _basis_element(self.lib, d, n, tmon, images, _scalar(self.lib, d, coeff))
        mu, index, coeff = op.params
        desc = self._basis(op.kind, d, n)[mu][index]
        blocks = self.lib.isomaps.basis_blocks(desc, op.kind.upper())
        # scale the one nonzero entry of the basis block family
        c = _scalar(self.lib, d, coeff)
        return {m: [[{key: v * c for key, v in cell.items()} for cell in row]
                    for row in block] for m, block in blocks.items()}

    def call(self, op, inputs):
        iso = self.lib.isomaps
        if op.kind == "n":
            return iso.phi_n(iso.psi_n(inputs))
        if op.kind == "ftl":
            return iso.ftl_psi(iso.ftl_phi(inputs))
        return iso.ctl_psi(iso.ctl_phi(inputs))

    def check(self, op, inputs, result):
        if op.kind == "n":
            return None if result == inputs else "phi_n(psi_n(x)) != x"
        if self.lib.isomaps.blocks_equal(result, inputs):
            return None
        return "%s_psi(%s_phi(B)) != B" % (op.kind, op.kind)

    def fill_tables(self):
        # the Jones tables for every block part that occurs (m <= max n)
        iso = self.lib.isomaps
        for m in range(2, max(n for _, n in self.cells) + 1):
            iso.rho_reduce(iso.hecke_unit(m), m)

    def first_touch(self):
        """The first quotient map at the n = 4 cell, on a fixed element."""
        d, n = self.first_touch_cell
        x = _basis_element(self.lib, d, n, (0,) * n, tuple(range(n, 0, -1)))
        return self.lib.isomaps.ftl_psi(x)


# ---------------------------------------------------------------------------
# reps: the seminormal representation oracle


class Reps(Workload):
    """Ideal membership of known members a*G*b and known non-members, and
    rep_element of random products on every shape."""

    name = "reps"
    cells = ((2, 3), (3, 3), (1, 5))
    # Members per round, one entry per operation, and non-members per cell
    # and quotient. With these counts the median of a run falls among the
    # non-members and the cheapest rep_element calls (early exits), and the
    # 90th percentile among the CTL members at (2, 3) (full evaluations).
    # CTL membership at (3, 3) takes 2.5 s per test, too long for a run.
    members = {(2, 3): ("FTL",) * 2 + ("CTL",) * 12, (3, 3): ("FTL",) * 2,
               (1, 5): ("FTL", "FTL", "CTL", "CTL")}
    nonmembers = 8
    # at (1, 5) the factors of products stay on the identity, s_2 and s_3, so
    # that set-up can fill the matrices of every word the inputs carry (all
    # 120 words on all 7 shapes take 30 s)
    small_word_cells = ((1, 5),)

    def __init__(self, lib, root):
        super().__init__(lib, root)
        self._generators = {}

    def _factor(self, rng, d, n):
        """A basis element t^a g_w drawn for one side of a product."""
        if (d, n) in self.small_word_cells:
            return (_random_tmon(rng, d, n), rng.choice(self._small_words(n)))
        return (_random_tmon(rng, d, n), rng.choice(C.all_perms(n)))

    def round_ops(self, rng, r):
        ops = []
        for d, n in self.cells:
            for which in self.members[(d, n)]:
                ops.append(Op(r, (d, n), "member",
                              (which, self._factor(rng, d, n), self._factor(rng, d, n),
                               _random_coeff(rng))))
            for which in ("FTL", "CTL"):
                for _ in range(self.nonmembers):
                    gen = rng.choice((("unit", 0), ("g", rng.randint(1, n - 1)),
                                      ("t", rng.randint(1, n))))
                    ops.append(Op(r, (d, n), "nonmember", (which, gen, _random_coeff(rng))))
            for shape in C.d_partitions(d, n):
                ops.append(Op(r, (d, n), "rep_element",
                              (shape, self._factor(rng, d, n), self._factor(rng, d, n),
                               _random_coeff(rng))))
        rng.shuffle(ops)
        return ops

    def _generator(self, which, d, n):
        key = (which, d, n)
        if key not in self._generators:
            yk = self.lib.yokonuma
            gen = yk.ftl_generator if which == "FTL" else yk.ctl_generator
            self._generators[key] = gen(d, n)
        return self._generators[key]

    def materialize(self, op):
        yk = self.lib.yokonuma
        d, n = op.cell
        if op.kind == "member":
            which, a, b, coeff = op.params
            left = _basis_element(self.lib, d, n, *a, _scalar(self.lib, d, coeff))
            return which, left * self._generator(which, d, n) * _basis_element(self.lib, d, n, *b)
        if op.kind == "nonmember":
            # an invertible element: a nonzero scalar times 1, g_i or t_j
            which, (gen, i), coeff = op.params
            x = {"unit": lambda: yk.unit(d, n), "g": lambda: yk.gen_g(d, n, i),
                 "t": lambda: yk.gen_t(d, n, i)}[gen]()
            return which, x.scale(_scalar(self.lib, d, coeff))
        shape, a, b, coeff = op.params
        module = self.lib.reps.rep_module(d, shape)
        left = _basis_element(self.lib, d, n, *a, _scalar(self.lib, d, coeff))
        right = _basis_element(self.lib, d, n, *b)
        return module, left, right, left * right

    def call(self, op, inputs):
        reps = self.lib.reps
        if op.kind == "rep_element":
            module, _, _, x = inputs
            return reps.rep_element(module, x)
        which, x = inputs
        return reps.ideal_membership(x, which)

    def check(self, op, inputs, result):
        if op.kind == "member":
            return None if result is True else "a*G*b reported outside the ideal"
        if op.kind == "nonmember":
            return None if result is False else "invertible element reported in the ideal"
        module, left, right, _ = inputs
        reps = self.lib.reps
        want = _mat_mul(reps.rep_element(module, left), reps.rep_element(module, right),
                        self.lib.scalars.RatFunc.zero(module.d))
        return None if result == want else "rep(a*b) != rep(a) rep(b)"

    def fill_tables(self):
        """Seminormal matrices of every word the inputs can carry, through
        one rep_element call per shape. At the small-word cells, products
        a*b need every shape, members a*G*b and the single generators only
        the shapes ideal_membership visits."""
        lib = self.lib
        yk = lib.yokonuma
        for d, n in self.cells:
            shapes = C.d_partitions(d, n)
            if (d, n) not in self.small_word_cells:
                words = {lib.permutations.Perm(p) for p in C.all_perms(n)}
                self._fill(d, n, words, shapes)
                continue
            factors = [_basis_element(lib, d, n, (0,) * n, images)
                       for images in self._small_words(n)]
            products = [a * b for a in factors for b in factors]
            self._fill(d, n, _words(products), shapes)
            for which in sorted(set(self.members[(d, n)])):
                members = [a * self._generator(which, d, n) * b
                           for a in factors for b in factors]
                members += [yk.gen_g(d, n, i) for i in range(1, n)]
                self._fill(d, n, _words(members), lib.reps.quotient_shapes(d, n, which))

    def _fill(self, d, n, words, shapes):
        lib = self.lib
        one = lib.scalars.RatFunc.one(d)
        total = lib.yokonuma.YElement(d, n, {((0,) * n, w): one for w in words})
        for shape in shapes:
            lib.reps.rep_element(lib.reps.rep_module(d, shape), total)

    def warm_ops(self, seed):
        # members at the larger cells only repeat work the table fill did
        first = self.cells[0]
        return [op for op in super().warm_ops(seed)
                if op.kind != "member" or op.cell == first]

    @staticmethod
    def _small_words(n):
        """The identity and s_2, s_3 (one-line notation)."""
        out = [tuple(range(1, n + 1))]
        for i in (2, 3):
            images = list(range(1, n + 1))
            images[i - 1], images[i] = images[i], images[i - 1]
            out.append(tuple(images))
        return out


def _words(elements):
    return {w for x in elements for (_, w), _ in x.terms}


def _mat_mul(a, b, zero):
    """Plain matrix product, independent of the library's linalg."""
    size = len(b)
    return [[sum((row[k] * b[k][j] for k in range(size)), zero)
             for j in range(len(b[0]) if b else 0)] for row in a]


# ---------------------------------------------------------------------------
# cli: the ytl command, one process per command


class Cli(Workload):
    """`python -m ytl.cli` commands as users run them. Every verify and basis
    command runs twice in a row against a cache directory that is empty at
    the start of its round: cold (computes and writes), then warm (reads)."""

    name = "cli"
    # verify suites that finish within about a second at these cells; at
    # (2, 4) the suites take 2.5-5 s (iso 68 s), iso takes 4-10 s at (2, 3)
    # and (1, 4), and quotients 1.1 s at (2, 3): too long for a run that
    # needs a hundred commands
    verify_cells = (("relations", 2, 3), ("idempotents", 2, 3), ("relations", 1, 4),
                    ("idempotents", 1, 4), ("quotients", 1, 4), ("iso", 1, 3))
    basis_cells = (("ftl", 2, 3), ("ctl", 2, 3), ("ftl", 2, 4), ("ctl", 2, 4))
    # rep commands per round; rep runs the whole relation suite, so its cost
    # hardly depends on the shape. With these counts the 90th percentile of a
    # run falls among the cold commands of 0.35-0.45 s, the median among the
    # commands that only pay interpreter start-up
    rep_cells = ((2, 3), (2, 3), (2, 3), (1, 4))
    mul_cells = ((2, 3), (3, 3), (2, 4))
    n_dim, n_enumerate, n_mul = 10, 6, 16

    def __init__(self, lib, root):
        super().__init__(lib, root)
        self.workdir = os.path.join(root, ".perfbench", "cli-%d" % os.getpid())
        # when set, commands run under cProfile and leave their stats here
        self.profile_dir = None
        self._cold_out = {}
        # (op, stats file or None) of every command run, in order
        self.children = []

    def round_ops(self, rng, r):
        units = []
        for suite, d, n in self.verify_cells:
            seed = rng.randrange(100)
            units.append([Op(r, (d, n), "verify_cold", (suite, seed)),
                          Op(r, (d, n), "verify_warm", (suite, seed))])
        for kind, d, n in self.basis_cells:
            units.append([Op(r, (d, n), "basis_cold", (kind,)),
                          Op(r, (d, n), "basis_warm", (kind,))])
        for d, n in self.rep_cells:
            units.append([Op(r, (d, n), "rep", (rng.choice(C.d_partitions(d, n)),))])
        for _ in range(self.n_dim):
            cell = (rng.randint(1, 3), rng.randint(1, 5))
            units.append([Op(r, cell, "dim", (rng.choice(("y", "tl", "ftl", "ctl")),))])
        for _ in range(self.n_enumerate):
            cell = (rng.randint(1, 3), rng.randint(2, 4))
            what = rng.choice(("dpartitions", "tableaux", "jonespairs", "cosets"))
            units.append([Op(r, cell, "enumerate", (what,))])
        for _ in range(self.n_mul):
            d, n = rng.choice(self.mul_cells)
            units.append([Op(r, (d, n), "mul", _mul_identity(rng, d, n))])
        rng.shuffle(units)
        return [op for unit in units for op in unit]

    def warm_ops(self, seed):
        return []

    def _cache_dir(self, r):
        return os.path.join(self.workdir, "cache-r%d" % r)

    def argv(self, op):
        (d, n), kind, params = op.cell, op.kind, op.params
        dn = ["-d", str(d), "-n", str(n)]
        if kind.startswith("verify"):
            suite, seed = params
            args = ["verify"] + dn + ["--suite", suite, "--seed", str(seed)]
        elif kind.startswith("basis"):
            args = ["basis", params[0]] + dn
        elif kind == "rep":
            args = ["rep"] + dn + ["--shape", json.dumps([list(c) for c in params[0]])]
        elif kind == "dim":
            args = ["dim", params[0]] + dn
        elif kind == "enumerate":
            args = ["enumerate", params[0]] + dn
        else:
            args = ["mul"] + dn + [params[0]]
        return ["--cache-dir", self._cache_dir(op.round)] + args

    def materialize(self, op):
        head = [sys.executable, "-m", "ytl.cli"]
        stats = None
        if self.profile_dir is not None:
            stats = os.path.join(self.profile_dir, "child-%d.pstats" % len(self.children))
            head = [sys.executable, os.path.join(self.root, "perfbench", "cliprof.py"), stats]
        return head + self.argv(op), stats

    def call(self, op, inputs):
        argv, stats = inputs
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        proc = subprocess.run(argv, capture_output=True, timeout=CLI_TIMEOUT_S,
                              env=env, cwd=self.root)
        self.children.append((op, stats))
        return proc

    def check(self, op, inputs, result):
        if result.returncode != 0:
            return "exit code %d: %s" % (result.returncode, result.stderr[-200:])
        out = result.stdout
        key = (op.round, op.cell, op.kind.split("_")[0], op.params)
        if op.kind.endswith("_warm"):
            cold = self._cold_out.get(key)
            return None if out == cold else "warm output differs from cold output"
        payload = json.loads(out)
        reason = self._check_payload(op, payload)
        if op.kind.endswith("_cold"):
            self._cold_out[key] = out
        return reason

    def _check_payload(self, op, payload):
        (d, n), kind, params = op.cell, op.kind, op.params
        if kind == "verify_cold":
            checks = payload.get("checks") or []
            ok = payload.get("ok") is True and checks and all(c["passed"] for c in checks)
            return None if ok else "verify reported a failed check"
        if kind == "basis_cold":
            want = C.dim_ftl(d, n) if params[0] == "ftl" else C.dim_ctl(d, n)
            ok = payload["count"] == payload["expected"] == len(payload["elements"]) == want
            return None if ok else "basis count %r, want %d" % (payload["count"], want)
        if kind == "rep":
            if payload["relation_check"]["ok"] is not True:
                return "rep relation check failed"
            want = C.standard_count(params[0])
            return None if payload["dim"] == want else "rep dim %r, want %d" % (payload["dim"], want)
        if kind == "dim":
            want = {"y": C.dim_y(d, n), "tl": C.catalan(n), "ftl": C.dim_ftl(d, n),
                    "ctl": C.dim_ctl(d, n)}[params[0]]
            return None if payload["dim"] == want else "dim %r, want %d" % (payload["dim"], want)
        if kind == "enumerate":
            return _check_enumerate(params[0], d, n, payload)
        return self._check_mul(d, n, params, payload)

    def _check_mul(self, d, n, params, payload):
        _, expect = params
        yk = self.lib.yokonuma
        want = {"zero": yk.zero(d, n), "one": yk.unit(d, n),
                "q": yk.unit(d, n).scale(self.lib.scalars.RatFunc.q(d))}[expect]
        if payload["element"] == json.loads(json.dumps(want.to_json())):
            return None
        return "mul %r is not %s" % (params[0], expect)

    def close(self):
        import shutil
        shutil.rmtree(self.workdir, ignore_errors=True)


def _check_enumerate(what, d, n, payload):
    if what == "dpartitions":
        ok = len(payload["dpartitions"]) == len(C.d_partitions(d, n))
    elif what == "tableaux":
        counts = [(tuple(tuple(c) for c in item["shape"]), len(item["standard"]))
                  for item in payload["tableaux"]]
        ok = (all(k == C.standard_count(s) for s, k in counts)
              and sum(k * k for _, k in counts) == C.dim_y(d, n))
    elif what == "jonespairs":
        ok = payload["count"] == len(payload["pairs"]) == C.catalan(n)
    else:
        ok = (len(payload["cosets"]) == len(C.compositions(d, n))
              and all(len(item["representatives"]) == C.multinomial(item["mu"])
                      for item in payload["cosets"]))
    return None if ok else "enumerate %s disagrees with the closed-form count" % what


def _mul_identity(rng, d, n):
    """An expression for `ytl mul` whose value is known: 0, 1 or q."""
    i = rng.randint(1, n - 1)
    j = rng.randint(1, n)
    sj = i + 1 if j == i else (i if j == i + 1 else j)
    k = rng.randint(1, 3)
    choices = [
        ("g%d*g%d - (q-1)*e%d*g%d" % (i, i, i, i), "q"),
        ("g%d^-1*g%d" % (i, i), "one"),
        ("t%d^%d" % (j, d), "one"),
        ("e%d*e%d - e%d" % (i, i, i), "zero"),
        ("t%d*g%d - g%d*t%d" % (sj, i, i, j), "zero"),
        ("q^%d*q^-%d" % (k, k), "one"),
    ]
    if n >= 3:
        b = rng.randint(1, n - 2)
        choices.append(("g%d*g%d*g%d - g%d*g%d*g%d" % (b, b + 1, b, b + 1, b, b + 1), "zero"))
    return rng.choice(choices)


WORKLOADS = {w.name: w for w in (Ring, Iso, Reps, Cli)}
