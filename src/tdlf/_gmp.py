"""Wide integer products and remainders by the system GMP.

``mul`` and ``mod`` call the low-level ``mpn`` functions of ``libgmp.so.10``
through ``ctypes``: operands go in and out as little-endian 64-bit limb
buffers made by ``int.to_bytes`` and read by ``int.from_bytes``.  The
library is loaded on the first call, by soname, so that importing ``tdlf``
imports no ``ctypes`` and narrow arithmetic never loads it.  The kernel is
off where the library does not load, lacks a symbol, or does not use 64-bit
limbs on a little-endian host; then both functions return None, and the
callers keep their pure-Python arithmetic, which gives the same integers.
"""

from __future__ import annotations

import sys

# None until the first call; then the bound (mpn_mul, mpn_tdiv_qr, buffer
# constructor), or False when the kernel is off
_lib = None

# GMP takes its scratch space from malloc and aborts the process when that
# fails, where Python raises MemoryError; an operand wider than this (2 MiB)
# is left to Python.  On a Xeon, two random operands at the cap multiply in
# 0.16-0.20 s (10.4 s by *) and raise the peak RSS by 15 MB; a 2^24-bit x
# modulo a 2^23-bit m takes 0.15 s and 10 MB.
CAP_BITS = 1 << 24


def _load():
    """The bound ``mpn`` functions, or False when the kernel is off."""
    try:
        import ctypes

        lib = ctypes.CDLL("libgmp.so.10")
        limb_bits = ctypes.c_int.in_dll(lib, "__gmp_bits_per_limb").value
        mpn_mul, mpn_tdiv_qr = lib.__gmpn_mul, lib.__gmpn_tdiv_qr
    except (ImportError, OSError, AttributeError, ValueError):
        return False
    if limb_bits != 64 or sys.byteorder != "little":
        return False
    out, limbs, size = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_long
    mpn_mul.argtypes = (out, limbs, size, limbs, size)
    mpn_mul.restype = ctypes.c_uint64
    mpn_tdiv_qr.argtypes = (out, out, size, limbs, size, limbs, size)
    mpn_tdiv_qr.restype = None
    return mpn_mul, mpn_tdiv_qr, ctypes.create_string_buffer


def _kernel():
    global _lib
    if _lib is None:
        _lib = _load()
    return _lib


def mul(a: int, b: int) -> int | None:
    """``a * b``; None when the kernel is off or an operand is wider than
    ``CAP_BITS``."""
    lib = _kernel()
    x, y = abs(a), abs(b)
    nx, ny = x.bit_length(), y.bit_length()
    if not lib or max(nx, ny) > CAP_BITS:
        return None
    if not (nx and ny):
        return 0
    # mpn_mul takes the longer operand first, each of at least one limb
    nx, ny = (nx + 63) >> 6, (ny + 63) >> 6
    if nx < ny:
        x, y, nx, ny = y, x, ny, nx
    mpn_mul, _, buffer = lib
    r = buffer(8 * (nx + ny))
    mpn_mul(r, x.to_bytes(8 * nx, "little"), nx, y.to_bytes(8 * ny, "little"), ny)
    z = int.from_bytes(r, "little")
    return -z if (a < 0) != (b < 0) else z


def mod(x: int, m: int) -> int | None:
    """``x % m`` for ``x >= 0`` and ``m > 0``; None when the kernel is off
    or ``x`` is wider than ``CAP_BITS``."""
    if x < 0 or m <= 0:
        raise ValueError("mod needs x >= 0 and m > 0")
    lib = _kernel()
    if not lib or x.bit_length() > CAP_BITS:
        return None
    # mpn_tdiv_qr takes a dividend of at least as many limbs as the divisor,
    # whose top limb is nonzero
    nx, nm = (x.bit_length() + 63) >> 6, (m.bit_length() + 63) >> 6
    if nx < nm:
        return x
    _, mpn_tdiv_qr, buffer = lib
    q, r = buffer(8 * (nx - nm + 1)), buffer(8 * nm)
    mpn_tdiv_qr(q, r, 0, x.to_bytes(8 * nx, "little"), nx, m.to_bytes(8 * nm, "little"), nm)
    return int.from_bytes(r, "little")
