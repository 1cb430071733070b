"""The summation-order probe behind compiled plans.

A compiled plan is bitwise the warp kernel only while SciPy's CSR row
loop multiplies, then adds, each stored element in order.  The probe
checks that once per process; these tests hand it products that break
the contract in each of the two ways it looks for.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy

import repro
import repro.kernels.plan as plan_module
from repro.kernels.plan import compile_plan, probe_summation_order
from repro.util.errors import ReproError, SummationOrderError
from tests.conftest import make_random_csr


def _row_by_row(operator, operand, step, reverse=False):
    """``operator @ operand``, each row summed from +0.0 by ``step``."""
    columns = operand.reshape(operand.shape[0], -1)
    out = np.zeros((operator.shape[0], columns.shape[1]), operator.dtype)
    for i in range(operator.shape[0]):
        elements = list(range(operator.indptr[i], operator.indptr[i + 1]))
        if reverse:
            elements.reverse()
        for b in range(columns.shape[1]):
            total = operator.dtype.type(0.0)
            for e in elements:
                total = step(total, operator.data[e],
                             columns[operator.indices[e], b])
            out[i, b] = total
    return out.reshape((operator.shape[0],) + operand.shape[1:])


def _fused(total, value, x):
    """One fused multiply-add: the exact ``total + value * x``, rounded
    once."""
    exact = Fraction(float(total)) + Fraction(float(value)) * Fraction(
        float(x))
    return type(total)(float(exact))


def _separate(total, value, x):
    return total + value * x


def contracted_product(operator, operand):
    return _row_by_row(operator, operand, _fused)


def reassociated_product(operator, operand):
    return _row_by_row(operator, operand, _separate, reverse=True)


class TestProbe:
    def test_this_scipy_passes(self):
        assert probe_summation_order() == ()
        assert plan_module._PROBE_FAILURES == ()

    def test_a_stored_order_product_passes(self):
        def stored_order(operator, operand):
            return _row_by_row(operator, operand, _separate)

        assert probe_summation_order(stored_order) == ()

    @pytest.mark.parametrize(
        "product, failed",
        [(contracted_product, "contraction"),
         (reassociated_product, "order")],
    )
    def test_a_broken_product_stops_compile_plan(self, product, failed,
                                                 monkeypatch, rng):
        failures = probe_summation_order(product)
        assert [f.split()[0] for f in failures] == [failed] * 4
        for dtype in ("float64", "float32"):
            for ndim in (1, 2):
                assert f"{failed} ({dtype}, {ndim}-D operand)" in failures

        monkeypatch.setattr(plan_module, "_PROBE_FAILURES", failures)
        m = make_random_csr(rng, n_rows=8, n_cols=6).astype(np.float16)
        with pytest.raises(SummationOrderError) as info:
            compile_plan(m, "vector", np.float64)
        assert isinstance(info.value, ReproError)
        message = str(info.value)
        assert f"SciPy {scipy.__version__}" in message
        assert f"{failed} (float64, 1-D operand)" in message

    def test_the_probe_runs_once_per_process_over_both_dtypes_and_ranks(self):
        # Count every CSR product from before the plan module is
        # imported, in a fresh interpreter.
        code = """
import json
import numpy as np
import scipy.sparse

calls = []
product = scipy.sparse.csr_matrix.__matmul__

def counting(self, other):
    calls.append([self.dtype.name, np.ndim(other)])
    return product(self, other)

scipy.sparse.csr_matrix.__matmul__ = counting
import repro.kernels.plan as plan
from repro.sparse.csr import CSRMatrix

at_import = list(calls)
m = CSRMatrix.from_dense(np.eye(4), value_dtype=np.float16)
plan.compile_plan(m, "vector", np.float64)
plan.compile_plan(m.astype(np.float32), "scalar", np.float32)
print(json.dumps({"at_import": at_import,
                  "compiling": calls[len(at_import):],
                  "failures": list(plan._PROBE_FAILURES)}))
"""
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        record = json.loads(proc.stdout.splitlines()[-1])
        assert sorted(map(tuple, record["at_import"])) == [
            ("float32", 1), ("float32", 2), ("float64", 1), ("float64", 2)
        ]
        assert record["compiling"] == []
        assert record["failures"] == []
