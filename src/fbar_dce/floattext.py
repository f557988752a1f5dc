"""CSV bytes of blocks of rows, with the float cells written in numpy exactly as '%.17g' % writes them.

Each positive finite value a = f * 2**q (f in [0.5, 1)) is scaled to its
17 significant digits y = a * 10**-k, k = E - 16, E being the decimal
exponent. The factor 2**q * 10**-k comes from a double-double table entry
for 10**-k built from Python ints (correctly rounded; the table is built on
import), and f times it is formed with Dekker's exact product, so y is
known to within ~1.1e-14. The decade E is seeded by log10 and corrected by
one step where the rounded digits show it wrong, so the result does not
depend on how the host rounds log10. Python's '%.17g' % still writes every
cell not proven by this: NaN, infinities, zeros and cells whose y lies
within _TIE_MARGIN of a rounding tie.

A cell is a run of whole 8-byte little-endian words, NUL-padded, the last
byte of its last word the separator. A block is built as a (words, rows)
uint64 matrix, so that each word of a column is one contiguous row, then
staged in row order 512 rows at a time, where bytearray.translate drops the
NUL pads. The matrix, the staging and the output are held for the table.
A float cell takes four words, each a gather from a small table or a few
whole-array operations on one column, with no pass per digit:

- word 0, right-aligned: the sign, and "0." with up to three zeros for
  -4 <= E < 0;
- words 1-3, left-aligned: the 17 digits d with a zero put in at the point's
  place P (after digit E + 1 for 0 <= E < 17, after the first digit in
  exponent notation), 10 * d - 9 * (d mod 10**(17 - P)), written four digits
  at a time from a table of 10**4 4-byte words. That zero becomes the point,
  and the bytes after the last significant digit (never before the point for
  E >= 0) become NUL;
- bytes 2-6 of word 3, right-aligned: "e", the exponent's sign and at least
  two of its digits.

A (codes, texts) column, such as the flags, has each text encoded once into
its words, which are then gathered by code.
"""

from __future__ import annotations

import numpy as np

_TIE_MARGIN = 2.0**-30  # far above the ~1.1e-14 error bound of y
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_K_OFFSET = 350  # k = E - 16 lies in [-341, 294]
_E_OFFSET = 330  # the tables by decimal exponent hold E in [-330, 330)
_WORDS = 4  # words of a float cell
_DOT = 0x1E  # '0' ^ '.'


def _split(x):
    t = _SPLIT * x
    high = t - (t - x)
    return high, x - high


# column k + _K_OFFSET: hi, its two Veltkamp halves, lo and s, with hi + lo = 10**-k * 2**s to ~2**-106 relative and
# hi in [1, 2), from Python ints: hi is 2**s / 10**k (k >= 0) or 10**-k / 2**-s, and int / int is correctly rounded
_POWERS = np.array(
    [
        (hi, *_split(hi), (num * b - a * den) / (den * b), s)
        for k in range(-_K_OFFSET, _K_OFFSET)
        for ten in [10 ** abs(k)]
        for s in [(ten - 1).bit_length() if k >= 0 else 1 - ten.bit_length()]
        for num, den in [(1 << s, ten) if k >= 0 else (ten, 1 << -s)]
        for hi in [num / den]
        for a, b in [hi.as_integer_ratio()]
    ]
).T.copy()  # contiguous rows: each is gathered on its own
_SHIFTS = _POWERS[4].astype(np.int32)


def _scaled(f, q, e10):
    """(digits, frac): y = f * 2**q * 10**(16 - e10) = digits + frac, digits the nearest int64, |frac| <= 0.5.

    y is (f * hi + f * lo) * 2**(q - s): the power of two, in [2**53, 2**58], scales exactly.
    """
    k = e10 + (_K_OFFSET - 16)
    hi, hh, hl, lo = (row.take(k) for row in _POWERS[:4])
    shift = q - _SHIFTS.take(k)
    p = f * hi
    fh, fl = _split(f)
    error = ((fh * hh - p) + fh * hl + fl * hh) + fl * hl  # f * hi = p + error exactly
    rest = np.ldexp(error + f * lo, shift)
    whole = np.rint(rest)
    # p * 2**shift >= 2**53 is an integer
    return np.ldexp(p, shift).astype(np.int64) + whole.astype(np.int64), rest - whole


def _off_decade(digits, frac):
    # y below 10**16, or not rounding into [10**16, 10**17]
    return (digits < 10**16) | ((digits == 10**16) & (frac < 0)) | (digits > 10**17)


def _digits(x):
    """(digits, e10, proven): |x| = digits * 10**(e10 - 16) rounded half to even, 10**16 <= digits < 10**17.

    Only the cells where proven is True carry them: NaN, infinities and zeros
    do not, nor do cells within _TIE_MARGIN of a rounding tie. The others
    still hold 17 digits and a decade within one of the value's.
    """
    a = np.abs(x)
    proven = np.isfinite(a) & (a > 0)
    a[~proven] = 1.0
    f, q = np.frexp(a)
    e10 = np.floor(np.log10(a)).astype(np.int64)
    digits, frac = _scaled(f, q, e10)
    # the seeded decade is wrong where the digits are not 17 long; one step corrects it
    wrong = np.flatnonzero(_off_decade(digits, frac))
    if wrong.size:
        e10[wrong] += np.where(digits[wrong] > 10**17, 1, -1)
        digits[wrong], frac[wrong] = _scaled(f[wrong], q[wrong], e10[wrong])
        off = wrong[_off_decade(digits[wrong], frac[wrong])]
        proven[off] = False
        digits[off] = 10**16
    carry = np.flatnonzero(digits == 10**17)  # rounded up to the next decade
    digits[carry] = 10**16
    e10[carry] += 1
    return digits, e10, proven & (np.abs(frac) < 0.5 - _TIE_MARGIN)


# tables by E + _E_OFFSET: P (17: no point among the digits), 10**(17 - P), the least length of the digit field,
# word 0 (then with a minus sign), the exponent's word (its last byte left for the separator), and the point's XOR
# into each of words 1-3
_EXPONENTS = range(-_E_OFFSET, _E_OFFSET)
_LEADS = [b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"" for e in _EXPONENTS]
_POINT = np.array([e + 1 if 0 <= e < 17 else 17 if -4 <= e < 0 else 1 for e in _EXPONENTS])
_POWER10 = 10 ** (17 - _POINT)
_LEAST = np.where([bool(lead) for lead in _LEADS], 0, _POINT)
_PREFIX = np.array([(sign + lead).rjust(8, b"\0") for sign in (b"", b"-") for lead in _LEADS], "S8")
_SUFFIX = np.array([b"" if -4 <= e < 17 else (b"e%+03d\0" % e).rjust(8, b"\0") for e in _EXPONENTS], "S8")
_PREFIX, _SUFFIX = _PREFIX.view("<u8").astype(np.uint64), _SUFFIX.view("<u8").astype(np.uint64)
_DOTS = np.array([[_DOT << 8 * (p % 8) if p // 8 == w else 0 for p in _POINT.tolist()] for w in range(3)], np.uint64)
# by n: the mask of each of words 1-3 that keeps the first n bytes of the digit field
_KEEP = np.array([[(1 << 8 * min(max(n - 8 * w, 0), 8)) - 1 for n in range(19)] for w in range(3)], np.uint64)
_PAIRS = np.array([b"%02d" % i for i in range(100)]).view("<u2").astype(np.uint64)
_QUADS = (_PAIRS[:, None] | _PAIRS << 16).ravel()  # "%04d" % g as a little-endian word, by g
_TENS = np.arange(10**4)
# by group i and g, "%04d" % g being digits 4i to 4i + 3 of the 18: the digits up to its last nonzero one, 0 if none
_PLACES = (4 - sum(_TENS % 10**i == 0 for i in range(1, 4)) + np.arange(0, 17, 4)[:, None]) * (_TENS != 0)
_COMMA, _NEWLINE = ord(",") << 56, (ord(",") ^ ord("\n")) << 56  # "," as a word's last byte; the XOR to "\n"


def _float_words(x, words):
    """Fill words, (_WORDS, n) uint64, with the '%.17g' text of each float64 cell (see the module docstring)."""
    digits, e10, proven = _digits(x)
    at = e10 + _E_OFFSET
    power = _POWER10.take(at)
    spread = digits + 9 * (digits // power) * power  # 18 digits, a zero at the point's place
    top = spread // 100  # digits 0-15
    high = top // 10**8  # digits 0-7
    mid = top - high * 10**8  # digits 8-15
    groups = [high // 10**4, 0, mid // 10**4, 0, (spread - top * 100) * 100]  # 4 digits each; digits 16-17, "00"
    groups[1] = high - groups[0] * 10**4
    groups[3] = mid - groups[2] * 10**4
    places = _LEAST.take(at)
    for i, group in enumerate(groups):
        np.maximum(places, _PLACES[i].take(group), out=places)
    quads = [_QUADS.take(group) for group in groups]
    words[0] = _PREFIX.take(at + np.signbit(x) * (2 * _E_OFFSET))
    words[1] = quads[0] | quads[1] << 32
    words[2] = quads[2] | quads[3] << 32
    words[3] = quads[4]
    for w in range(3):
        words[w + 1] ^= _DOTS[w].take(at)
        words[w + 1] &= _KEEP[w].take(places)
    words[3] |= _SUFFIX.take(at)

    fallback = np.flatnonzero(~proven)
    if fallback.size:
        cells = np.array([b"%.17g" % v for v in x[fallback].tolist()], "S24").view("<u8")
        words[:3, fallback] = cells.reshape(-1, 3).T
        words[3, fallback] = 0


def _text_table(texts):
    """(span, len(texts)) uint64 words of each text's UTF-8 bytes, NUL-padded with room for the separator."""
    encoded = [text.encode() for text in texts]
    span = max(map(len, encoded)) // 8 + 1
    return np.array(encoded, f"S{8 * span}").view("<u8").reshape(len(encoded), span).T


class BlockFormatter:
    """The CSV bytes of the blocks of one table: float columns as %.17g, (codes, texts) columns by their text.

    A block holds one column per field: a float array, or a (codes, texts)
    pair whose row i is texts[codes[i]]. The word matrix, the staging buffer
    and the output buffer are allocated at the first block and reused by each
    later one, a shorter block taking a leading part: buffers allocated per
    block are mapped afresh each time and paid for in page faults.
    """

    _STEP = 512  # rows staged at a time: 104 KiB of a spectrum's words, below glibc's 128 KiB mmap threshold

    def __init__(self):
        self._words = np.empty(0, "<u8")  # the block's (words, rows) matrix, flat
        self._staged = bytearray()  # _STEP rows of words in CSV order, viewed as self._stage
        self._stage = np.empty((0, 0), "<u8")
        self._text = bytearray()

    def __call__(self, block) -> memoryview:
        """The CSV bytes of a block: a view of the output buffer, which the next call overwrites."""
        fields = []  # (words of a cell, a float column or the (text table, codes) of a coded column)
        for column in block:
            if isinstance(column, tuple):
                table = _text_table(column[1])
                fields.append((len(table), (table, column[0])))
            else:
                fields.append((_WORDS, column.astype(float, copy=False)))
        rows = len(block[0][0] if isinstance(block[0], tuple) else block[0])
        spans = sum(span for span, _ in fields)
        # one row per word of a cell, so that a column's words are whole rows, then the rows of the CSV
        if self._words.size < spans * rows:
            self._words = np.empty(spans * rows, "<u8")
            self._text = bytearray(8 * spans * rows)
        words = self._words[: spans * rows].reshape(spans, rows)
        start = 0
        for span, column in fields:
            field = words[start : start + span]
            if isinstance(column, tuple):
                table, codes = column  # mode "clip" writes into field directly, where "raise" buffers
                np.take(table, codes, axis=1, out=field, mode="clip")
            else:  # a column at a time: the temporaries stay in cache
                _float_words(column, field)
            field[-1] |= _COMMA
            start += span
        words[-1] ^= _NEWLINE
        if self._stage.shape[1] != spans:
            self._staged = bytearray(8 * self._STEP * spans)
            self._stage = np.frombuffer(self._staged, "<u8").reshape(self._STEP, spans)
        end = 0
        for i in range(0, rows, self._STEP):
            n = min(self._STEP, rows - i)
            self._stage[:n] = words[:, i : i + n].T
            self._stage[n:] = 0  # rows of NUL, dropped with the pads
            piece = self._staged.translate(None, b"\0")
            self._text[end : end + len(piece)] = piece
            end += len(piece)
        return memoryview(self._text)[:end]
