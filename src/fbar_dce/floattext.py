"""CSV text of a block of rows, with the float cells written in numpy exactly as '%.17g' % writes them.

Each positive finite value a = f * 2**q (f in [0.5, 1)) is scaled to its
17 significant digits y = a * 10**-k, k = E - 16, E being the decimal
exponent. The factor 2**q * 10**-k comes from a double-double table entry
for 10**-k built from Python ints (correctly rounded), and f times it is
formed with Dekker's exact product, so y is known to within ~1.1e-14. The
decade E is seeded by log10 and corrected by one step where the rounded
digits show it wrong, so the result does not depend on how the host rounds
log10. The '%g' layout follows: fixed notation for -4 <= E < 17, d.ddde+XX
otherwise, trailing zeros stripped. Python's '%.17g' % still writes every
cell not proven by this: NaN, infinities, zeros and cells whose y lies
within _TIE_MARGIN of a rounding tie.

Every cell of a row is a fixed-width field of a NUL-padded uint8 matrix, and
one boolean mask drops the pads. A text, bool or int column is encoded once
per distinct cell (the flags column holds two or three), then taken by code.
"""

from __future__ import annotations

import numpy as np

_TIE_MARGIN = 2.0**-30  # far above the ~1.1e-14 error bound of y
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_K_OFFSET = 350  # k = E - 16 lies in [-340, 292]
_FIELD = 29  # sign, "0.000", 17 digits and a point, "e", exponent sign and 3 exponent digits
_SLOTS = np.arange(18, dtype=np.int8)[:, None]
_PLACES = np.arange(1, 18, dtype=np.uint8)[:, None]
_ZERO, _POINT, _MINUS, _PLUS, _E = (np.uint8(ord(c)) for c in "0.-+e")


def _power(k: int) -> tuple[float, float, int]:
    """(hi, lo, s) with hi + lo = 10**-k * 2**s to ~2**-106 relative and hi in [1, 2)."""
    num, den = (1, 10**k) if k >= 0 else (10**-k, 1)
    s = den.bit_length() - num.bit_length()
    num, den = (num << s, den) if s >= 0 else (num, den << -s)
    if num < den:
        num, s = num << 1, s + 1
    hi = num / den  # int / int is correctly rounded
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b), s


def _split(x):
    t = _SPLIT * x
    high = t - (t - x)
    return high, x - high


def _scaled(f, q, e10):
    """(digits, frac): y = f * 2**q * 10**(16 - e10) = digits + frac, digits the nearest int64, |frac| <= 0.5."""
    k = e10 + (_K_OFFSET - 16)
    present = np.zeros(2 * _K_OFFSET, bool)
    present[k] = True
    used = np.flatnonzero(present)
    table = np.zeros((3, 2 * _K_OFFSET))
    table[:, used] = np.array([_power(int(i) - _K_OFFSET) for i in used]).T
    hi, lo, s = table.take(k, axis=1)
    shift = q - s.astype(np.int32)
    c, c_lo = np.ldexp(hi, shift), np.ldexp(lo, shift)  # exact: both stay normal
    p = f * c
    fh, fl = _split(f)
    ch, cl = _split(c)
    error = ((fh * ch - p) + fh * cl + fl * ch) + fl * cl  # f * c = p + error exactly
    rest = error + f * c_lo
    whole = np.rint(rest)
    return p.astype(np.int64) + whole.astype(np.int64), rest - whole  # p >= 2**53 is an integer


def _off_decade(digits, frac):
    # y below 10**16, or not rounding into [10**16, 10**17]
    return (digits < 10**16) | ((digits == 10**16) & (frac < 0)) | (digits > 10**17)


def _digits(x):
    """(digits, e10, proven): |x| = digits * 10**(e10 - 16) rounded half to even, 10**16 <= digits < 10**17.

    Only the cells where proven is True carry them: NaN, infinities and zeros
    do not, nor do cells within _TIE_MARGIN of a rounding tie.
    """
    a = np.abs(x)
    proven = np.isfinite(a) & (a > 0)
    a = np.where(proven, a, 1.0)
    f, q = np.frexp(a)
    e10 = np.floor(np.log10(a)).astype(np.int64)
    digits, frac = _scaled(f, q, e10)
    # the seeded decade is wrong where the digits are not 17 long; one step corrects it
    wrong = np.flatnonzero(_off_decade(digits, frac))
    e10[wrong] += np.where(digits[wrong] > 10**17, 1, -1)
    digits[wrong], frac[wrong] = _scaled(f[wrong], q[wrong], e10[wrong])
    proven[wrong[_off_decade(digits[wrong], frac[wrong])]] = False
    carry = digits == 10**17  # rounded up to the next decade
    digits[carry] = 10**16
    e10[carry] += 1
    return digits, e10, proven & (np.abs(frac) < 0.5 - _TIE_MARGIN)


def _float_field(x):
    """(_FIELD, n) uint8: the '%.17g' text of each float64 cell, NUL-padded."""
    digits, e10, proven = _digits(x)
    # the 17 digits, most significant first: the top 8 and the low 9 as two 9-digit numbers, divided by 10 together
    places = np.empty((2, 9, x.size), np.uint8)
    halves = np.array(np.divmod(digits, 10**9), np.uint32)
    for i in range(8, -1, -1):
        tens = halves // 10
        places[:, i] = halves - 10 * tens
        halves = tens
    dig = places.reshape(18, x.size)[1:]  # the top 8 lead with a zero
    count = np.max((dig != 0) * _PLACES, axis=0)  # significant digits once trailing zeros go

    fixed = (e10 >= -4) & (e10 < 17)
    whole = fixed & (e10 >= 0)
    exp = ~fixed
    point = np.where(whole, e10, 99 * fixed).astype(np.int8)  # the point follows digit `point`
    keep = np.where(whole, np.maximum(count, e10 + 1), count).astype(np.int8)
    point[keep <= point + 1] = 99
    # numpy's where is slow on bytes: masks select by multiplication
    kept = np.zeros((19, x.size), np.uint8)  # the digits with a NUL row before and after
    kept[1:18] = (dig + _ZERO) * (_SLOTS[:17] < keep)
    magnitude = np.abs(e10).astype(np.uint16)
    field = np.empty((_FIELD, x.size), np.uint8)
    field[0] = (x < 0) * _MINUS
    lead = fixed & (e10 < 0)
    field[1] = lead * _ZERO
    field[2] = lead * _POINT
    for i in range(3):
        field[3 + i] = (fixed & (e10 <= -2 - i)) * _ZERO
    field[6:24] = kept[1:] * (_SLOTS <= point) + kept[:18] * (_SLOTS > point + 1) + (_SLOTS == point + 1) * _POINT
    field[24] = exp * _E
    field[25] = exp * np.where(e10 < 0, _MINUS, _PLUS)
    field[26] = (exp & (magnitude >= 100)) * (magnitude // 100 + _ZERO)
    field[27] = exp * (magnitude // 10 % 10 + _ZERO)
    field[28] = exp * (magnitude % 10 + _ZERO)

    fallback = np.flatnonzero(~proven)
    if fallback.size:
        field[:, fallback] = _text_field([b"%.17g" % v for v in x[fallback].tolist()], _FIELD)
    return field


def _text_field(cells: list[bytes], width: int | None = None):
    """(width, n) uint8 of the cells' bytes, NUL-padded; width defaults to the longest cell."""
    data = np.array(cells, dtype=f"S{width}" if width else bytes)
    return data.view(np.uint8).reshape(len(cells), -1).T


def _coded_field(cells: list, fmt: str):
    """_text_field of the cells' fmt text, each distinct cell formatted once and then taken by its code."""
    codes = {cell: i for i, cell in enumerate(dict.fromkeys(cells))}
    index = np.fromiter(map(codes.__getitem__, cells), np.intp, len(cells))
    return _text_field([(fmt % cell).encode() for cell in codes])[:, index]


def block_text(block) -> str:
    """The CSV rows of one block, one sequence per column: str cells as is, bools and ints as digits, floats as %.17g."""
    strs = [isinstance(column[0], str) for column in block]  # a tuple of str (the flags) is not made an array
    block = [column if is_str else np.asarray(column) for column, is_str in zip(block, strs)]
    floats = [i for i, column in enumerate(block) if not strs[i] and column.dtype.kind == "f"]
    fields = [
        None if i in floats else _coded_field(column, "%s") if strs[i] else _coded_field(column.tolist(), "%d")
        for i, column in enumerate(block)
    ]
    if floats:  # one pass over all float columns
        text = _float_field(np.concatenate([block[i] for i in floats], dtype=float))
        for i, field in zip(floats, np.split(text, len(floats), axis=1)):
            fields[i] = field
    matrix = np.empty((len(block[0]), sum(len(field) + 1 for field in fields)), np.uint8)
    col = 0
    for field in fields:
        matrix[:, col : col + len(field)] = field.T
        col += len(field)
        matrix[:, col] = ord(",")
        col += 1
    matrix[:, -1] = ord("\n")
    return matrix[matrix != 0].tobytes().decode()
