"""The GMP kernel ``tdlf._gmp`` of the wide products and remainders.

``_gmp.mul`` and ``_gmp.mod`` are checked directly against Python ``*`` and
``%``, never through ``PAdic``, whose ``*`` calls them: at each cutoff that
sends work to them, one limb either side, and at the cap, with unbalanced,
zero and negative operands and one-limb divisors.  Then the outputs of
``mul``, ``pairing``, ``PAdic`` ``*`` and ``make`` on seeded series of the
three shapes of the benchmark's ``dense_products`` workload are checked to
be the same with the kernel on and off.  A library that does not load, lacks
a symbol or uses 32-bit limbs leaves the kernel off and the results as they
were.  Narrow work never imports ``ctypes``.
"""

import ctypes
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from tdlf import (
    EqualCharSeries,
    LeftValBound,
    MixedSeries,
    PAdic,
    RightValBound,
    _gmp,
    mul,
    pairing,
)
from tdlf import series as series_module
from tdlf.padic import _BARRETT_BITS, _GMP_MUL_BITS, _reduce, _wide_product
from tdlf.series import _WIDE_BITS, _mul
from helpers import rng

ROOT = Path(__file__).resolve().parents[1]
LIMB = 64
CAP = _gmp.CAP_BITS


@pytest.fixture
def kernel():
    """The kernel loaded; the test is skipped where libgmp does not load."""
    if _gmp.mul(1 << _GMP_MUL_BITS, 1 << _GMP_MUL_BITS) is None:
        pytest.skip("libgmp.so.10 does not load on this host")


def wide(r, bits: int) -> int:
    """A random int of exactly ``bits`` bits."""
    return r.below(1 << bits - 1) | 1 << bits - 1


@pytest.mark.usefixtures("kernel")
class TestAgainstPython:
    def test_products_at_each_cutoff(self):
        """Operands one limb either side of the unit-product and the run-pair
        cutoffs, and of a 64-bit limb boundary, in both orders."""
        r = rng(3001)
        for cut in (_GMP_MUL_BITS, _WIDE_BITS, 195_000):
            for bits in (cut - LIMB, cut - 1, cut, cut + 1, cut + LIMB):
                for other in (bits, LIMB, LIMB + 1, 2 * bits + 3):
                    a, b = wide(r, bits), wide(r, other)
                    assert _gmp.mul(a, b) == a * b == _gmp.mul(b, a)
                    assert _wide_product(a, b) == a * b
        ones = (1 << 4096) - 1  # every limb all ones
        assert _gmp.mul(ones, ones) == ones * ones

    def test_zero_negative_and_unbalanced_operands(self):
        r = rng(3002)
        a, b = wide(r, 10_000), wide(r, 150)
        for x, y in ((a, b), (b, a), (-a, b), (a, -b), (-a, -b), (a, 1), (-1, a)):
            assert _gmp.mul(x, y) == x * y
        for x, y in ((0, a), (a, 0), (0, 0), (0, -a)):
            assert _gmp.mul(x, y) == 0

    def test_products_through_mul(self):
        """``series._mul`` with the kernel on: zero, negative and unbalanced
        operands, and the negative Toom points ``x0 - x1 + x2`` and
        ``2(x0 - x1 + 2 x2) - x0`` of a split operand."""
        r = rng(3003)
        big = wide(r, 4 * _WIDE_BITS)
        for a, b in ((0, big), (big, 0), (1, big), (-1, big), (-big, -big),
                     (big, wide(r, 40 * _WIDE_BITS)), (wide(r, 65), big)):
            assert _mul(a, b) == a * b == _mul(b, a)
        k = 3 * _WIDE_BITS
        for x in (wide(r, 3 * k), (1 << 3 * k) - 1, 1 << k):
            x0, x1, x2 = x & (1 << k) - 1, x >> k & (1 << k) - 1, x >> 2 * k
            for point in (x0 - x1 + x2, 2 * (x0 - x1 + 2 * x2) - x0, -x):
                assert _mul(point, x) == point * x
                assert _mul(point, point) == point * point

    def test_remainders_at_each_cutoff(self):
        """A modulus and a quotient one limb either side of the reduction
        cutoff, and the reduction of ``_reduce`` by the kernel."""
        r = rng(3004)
        for k in (_BARRETT_BITS - LIMB, _BARRETT_BITS + 1, _BARRETT_BITS + LIMB, 4763):
            m = wide(r, k)
            for q in (0, _BARRETT_BITS - LIMB, _BARRETT_BITS, _BARRETT_BITS + 1,
                      _BARRETT_BITS + LIMB, 3 * k):
                for x in (wide(r, k + q), (1 << k + q) - 1, m * (1 << q), m - 1):
                    assert _gmp.mod(x, m) == x % m
        for p, e in ((5, 1000), (5, 2051), (2, 2200), (101, 400)):
            m = p**e
            for x in (wide(r, 2 * m.bit_length() + 64), m * m - 1, m * wide(r, 3000) + 7):
                assert _reduce(x, p, e) == x % m

    def test_one_limb_divisors(self):
        r = rng(3005)
        for m in (1, 2, 5, 3**40, (1 << 63) + 1, (1 << LIMB) - 1):
            for x in (0, m - 1, m, (1 << LIMB) - 1, wide(r, LIMB + 1), wide(r, 5000)):
                assert _gmp.mod(x, m) == x % m

    def test_the_cap(self):
        """Operands of ``CAP_BITS`` bits are the kernel's, one bit more are
        refused with None.  All-ones operands give a product known in
        closed form, so no 2^24-bit product by ``*`` is needed."""
        ones = (1 << CAP) - 1
        assert _gmp.mul(ones, ones) == (1 << 2 * CAP) - (1 << CAP + 1) + 1
        assert _gmp.mul(ones, 3) == (ones << 1) + ones
        assert _gmp.mod(ones, (1 << LIMB) - 1) == ones % ((1 << LIMB) - 1)
        assert _gmp.mul(1 << CAP, 3) is None and _gmp.mul(3, -(1 << CAP)) is None
        assert _gmp.mod(1 << CAP, 7) is None

    def test_mod_refuses_what_the_division_cannot_take(self):
        for x, m in ((5, 0), (5, -3), (-5, 3)):
            with pytest.raises(ValueError, match="x >= 0 and m > 0"):
                _gmp.mod(x, m)


# -- the same outputs with the kernel on and off ------------------------------


def dense_series(r, shape: str, w: int, prec: int):
    """A series shaped like the benchmark's dense inputs: ``w`` coefficients
    of relative precision ``prec`` and valuation 0 to 3 around index 0."""
    h = w // 2
    coeffs = {i: PAdic.make(5, r.below(4), r.below(5 ** (prec - 1)) * 5 + 1 + r.below(4), prec)
              for i in range(-h, h + 1)}
    if shape == "laurent":
        return EqualCharSeries.from_coeffs(5, coeffs, order=-h, trunc=h + 1)
    if shape == "mixed":
        return MixedSeries.from_coeffs(5, coeffs)
    left = LeftValBound(1 + r.below(3), r.below(4))
    return MixedSeries.from_coeffs(5, coeffs, left=left, right=RightValBound(r.below(4)))


def outputs(x, y, prec: int) -> list:
    xs, ys = [c for _, c in x.coeffs], [c for _, c in y.coeffs]
    products = [a * b for a, b in zip(xs, ys)]
    made = [PAdic.make(5, 1, a.unit * b.unit + a.unit, prec) for a, b in zip(xs, ys) if a.unit]
    return [mul(x, y), pairing(x, y), products, made]


@pytest.mark.usefixtures("kernel")
@pytest.mark.parametrize("shape", ["mixed", "mixed_tails", "laurent"])
def test_dense_outputs_equal_with_the_kernel_on_and_off(shape, monkeypatch):
    calls = []
    for name in ("mul", "mod"):
        kernel_call = getattr(_gmp, name)
        monkeypatch.setattr(_gmp, name, lambda *a, f=kernel_call, n=name: calls.append(n) or f(*a))
    r = rng(3006)
    cases = [(w, prec) for prec in (32, 256, 2048) for w in (5, 21)] + [(81, 2048)]
    inputs = [(dense_series(r, shape, w, prec), dense_series(r, shape, w, prec), prec)
              for w, prec in cases]
    on = [outputs(x, y, prec) for x, y, prec in inputs]
    assert {"mul", "mod"} <= set(calls)
    monkeypatch.setattr(_gmp, "_lib", False)
    assert on == [outputs(x, y, prec) for x, y, prec in inputs]


# -- a library the kernel cannot use ------------------------------------------


class WithoutSymbol:
    """libgmp as ``ctypes.CDLL`` loads it, but without ``__gmpn_tdiv_qr``."""

    def __init__(self, name, *args, real=ctypes.CDLL, **kwargs):
        self.lib = real(name, *args, **kwargs)
        self._handle = self.lib._handle  # what c_int.in_dll reads

    def __getattr__(self, name):
        if name == "__gmpn_tdiv_qr":
            raise AttributeError(name)
        return getattr(self.lib, name)


def missing(name, *args, **kwargs):
    raise OSError(f"{name}: cannot open shared object file")


class Int32:
    """``ctypes.c_int`` whose ``in_dll`` reads a 32-bit limb size."""

    @staticmethod
    def in_dll(lib, name):
        return SimpleNamespace(value=32)


@pytest.mark.parametrize("library", [
    {"CDLL": missing},
    {"CDLL": WithoutSymbol},
    {"c_int": Int32},
], ids=["missing", "without-a-symbol", "32-bit-limbs"])
def test_an_unusable_library_leaves_the_kernel_off(library, monkeypatch, gmp_off):
    r = rng(3007)
    x, y = (dense_series(r, "mixed", 21, 2048) for _ in range(2))
    want = outputs(x, y, 2048)
    monkeypatch.setattr(_gmp, "_lib", None)  # not loaded yet
    for name, fake in library.items():
        monkeypatch.setattr(ctypes, name, fake)
    a = wide(r, 3 * _GMP_MUL_BITS)
    assert _gmp.mul(a, a) is None and _gmp._lib is False
    assert _gmp.mod(a, 5**2048) is None
    assert outputs(x, y, 2048) == want


def test_a_big_endian_host_leaves_the_kernel_off(monkeypatch):
    monkeypatch.setattr(_gmp, "_lib", None)
    monkeypatch.setattr(sys, "byteorder", "big")
    assert _gmp.mul(1 << 5000, 3 << 5000) is None and _gmp._lib is False


def test_narrow_products_never_call_the_kernel(monkeypatch):
    """A window-81 mul at relative precision 32, a window-81 pairing at 256,
    and PAdic products with a unit below the cutoff make no kernel call."""

    def refuse(*args):
        raise AssertionError("narrow work called the kernel")

    r = rng(3008)
    x, y = (dense_series(r, "mixed", 81, 32) for _ in range(2))
    u, v = (dense_series(r, "laurent", 81, 256) for _ in range(2))
    a, b = PAdic.make(5, 0, wide(r, _GMP_MUL_BITS - 1), 2048), PAdic.make(5, 0, wide(r, 4000), 2048)
    want = [mul(x, y), pairing(u, v), a * b, b * a, a * a]
    monkeypatch.setattr(_gmp, "mul", refuse)
    monkeypatch.setattr(_gmp, "mod", refuse)
    monkeypatch.setattr(series_module, "_mul", refuse)
    assert [mul(x, y), pairing(u, v), a * b, b * a, a * a] == want


def test_narrow_work_never_imports_ctypes():
    """``import tdlf`` and ``tdlf.cli``, the first op of ``dense_products``
    (window 21 at precision 32) and a round of ``far_sparse`` and of
    ``cli_requests`` at seed 1 leave ``ctypes`` unloaded; a window-81
    product at precision 2048 loads it.  A fresh interpreter checks, as
    pytest itself imports ``ctypes``."""
    code = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'bench')!r}]\n"
        "import tdlf, tdlf.cli, tracing, workloads\n"
        "seen = ['ctypes' in sys.modules]\n"
        "workloads.first_op('dense_products', 1).run(tracing.direct)\n"
        "seen.append('ctypes' in sys.modules)\n"
        "for name in ('far_sparse', 'cli_requests'):\n"
        "    for op in workloads.build(name, 1):\n"
        "        op.run(tracing.direct)\n"
        "    seen.append('ctypes' in sys.modules)\n"
        "x = tdlf.MixedSeries.from_coeffs(5, {i: tdlf.PAdic.make(5, 0, 5**2047 // 3, 2048)"
        " for i in range(81)})\n"
        "tdlf.mul(x, x)\n"
        "print(seen, tdlf._gmp._lib is not False and 'ctypes' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = _gmp.mul(1 << _GMP_MUL_BITS, 3) is not None  # whether libgmp loads here
    assert proc.stdout == f"[False, False, False, False] {loaded}\n"
