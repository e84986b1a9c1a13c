"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py        (from the root of a checkout)

Checks that a seed always yields the same operations (by digest), that the
warm-up draws other inputs than the timed phase, that every workload's check
rejects a deliberately wrong answer and accepts the right one, and that an
exception in an operation is counted as a failure instead of ending the run.
The functions are also collected by pytest when it is pointed at this file.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as W  # noqa: E402

LIB = W.load_ytl()


def _workload(name):
    return W.WORKLOADS[name](LIB, run.ROOT)


def _one_per_kind(workload, seed=0):
    """The first operation of each kind in round 0 of a seed."""
    seen = {}
    for op in W.round_of(workload, seed, 0):
        seen.setdefault(op.kind, op)
    return list(seen.values())


def test_same_seed_same_ops():
    for name in W.WORKLOADS:
        first = W.op_digest(_workload(name), 7, 200)
        again = W.op_digest(_workload(name), 7, 200)
        other = W.op_digest(_workload(name), 8, 200)
        assert first == again, name
        assert first != other, name


def test_warm_seed_differs_from_timed_seed():
    for name in ("ring", "iso", "reps"):
        workload = _workload(name)
        timed = list(itertools.islice(W.op_stream(workload, 7), 200))
        warm = workload.warm_ops(7)
        assert warm, name
        assert not any(op in timed for op in warm), name


def _wrong(workload, op, inputs):
    """A result that is wrong for the operation, built from the right one."""
    yk = LIB.yokonuma
    if workload.name == "ring":
        result = workload.call(op, inputs)
        d, n = op.cell
        if op.kind == "generator":
            return result[0], result[1] + yk.unit(d, n)
        return result + yk.unit(d, n)
    if workload.name == "iso":
        if op.kind == "n":
            d, n = op.cell
            return workload.call(op, inputs) + yk.unit(d, n)
        blocks = workload.call(op, inputs)
        mu = next(iter(inputs))
        return {m: b for m, b in blocks.items() if m != mu}
    if workload.name == "reps":
        if op.kind == "rep_element":
            module, _, _, x = inputs
            return LIB.reps.rep_element(module, x + yk.unit(*op.cell))
        return not workload.call(op, inputs)
    # cli: a successful exit with output that is not the answer
    return subprocess.CompletedProcess(workload.materialize(op)[0], 0,
                                       b'{"dim": -1, "ok": false, "checks": []}', b"")


class _Broken:
    """A workload whose timed call returns a wrong answer."""

    def __init__(self, workload):
        self.inner = workload

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def call(self, op, inputs):
        return _wrong(self.inner, op, inputs)


def test_wrong_answers_are_counted():
    for name in W.WORKLOADS:
        workload = _workload(name)
        try:
            ops = _one_per_kind(workload)
            if name == "cli":
                # a warm command needs its cold command first
                ops = [op for op in ops if not op.kind.endswith("_warm")]
            records = [run.run_op(_Broken(workload), i, op) for i, op in enumerate(ops)]
        finally:
            workload.close()
        assert all(r.reason for r in records), (name, [r for r in records if not r.reason])


def test_right_answers_pass():
    for name in ("ring", "iso", "reps"):
        workload = _workload(name)
        records = [run.run_op(workload, i, op)
                   for i, op in enumerate(_one_per_kind(workload))]
        assert not any(r.reason for r in records), (name, [r for r in records if r.reason])


def test_cli_cold_then_warm():
    workload = _workload("cli")
    try:
        ops = [W.Op(0, (2, 3), "basis_cold", ("ftl",)), W.Op(0, (2, 3), "basis_warm", ("ftl",)),
               W.Op(0, (2, 3), "mul", ("g1*g1 - (q-1)*e1*g1", "q"))]
        records = [run.run_op(workload, i, op) for i, op in enumerate(ops)]
        assert not any(r.reason for r in records), records
        # a warm read that differs from the cold output is a failure
        workload._cold_out[(0, (2, 3), "basis", ("ftl",))] = b"{}"
        assert run.run_op(workload, 3, ops[1]).reason
    finally:
        workload.close()


def test_exception_is_a_failure():
    workload = _workload("ring")

    class Raising(_Broken):
        def call(self, op, inputs):
            raise RuntimeError("boom")

    record = run.run_op(Raising(workload), 0, _one_per_kind(workload)[0])
    assert record.raised and "boom" in record.reason


def main():
    failed = 0
    for name, func in sorted(globals().items()):
        if name.startswith("test_") and callable(func):
            try:
                func()
                print("PASS", name)
            except AssertionError as exc:
                failed += 1
                print("FAIL", name, json.dumps(str(exc))[:300])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
