"""Small shared I/O helpers: UTF-8 input, atomic writes, hashing, number
formatting.

fmt is repr of one float, for scalars.  repr_csv writes arrays of floats
as CSV rows with the bytes of repr, computed in NumPy over a block of
values at a time: Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020) on uint64 lanes, with 64 x 64-bit products formed from
32-bit limbs.  For a normal double, Schubfach's decimal (the shortest in
its rounding interval, the closest of those, ties to even) has the
digits repr writes; zero, subnormal, inf and nan lanes go through repr
itself.
"""

import hashlib
import os

import numpy as np

REPR_CHUNK = 10_500  # values per repr_csv pass; bounds its working set
_SLICE = 1024  # values per bytes copy: about 57 KB, so it reuses freed heap


def fmt(x):
    """Shortest decimal that round-trips the float (repr semantics)."""
    return repr(float(x))


def decode_utf8(data, path):
    """data as UTF-8 text; a bad byte raises ValueError naming path."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start}") from None


def atomic_write_text(path, text):
    """Write text to path via a temp file + rename (never a torn file).

    A str is encoded once, as UTF-8; bytes are written as they are.
    Returns the sha256 of the bytes written, so no caller reads a file
    back to hash it.
    """
    data = text.encode() if isinstance(text, str) else text
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    # an exclusive new name beside path, created with mode 0o666, so the
    # umask applies as it does to a plain open(path, "w")
    tmp = os.path.join(d, f".tmp-{os.urandom(8).hex()}~")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# repr_csv
#
# A value's text is laid out in six little-endian uint64 words (48 byte
# slots, NUL where unused), and bytes.translate drops the NULs:
#   word 0     sign, "0." and up to three zeros (0.000ddd), digit 0, '.'
#   words 1-4  digits 1-16, each followed by a slot for the '.'
#   word 5     'e', exponent sign, 2-3 exponent digits, the byte that
#              ends the value ("," or "\n")
# With ids, a row's "i," takes whole words in front of its first value.

_U = np.uint64
_K_MIN, _K_MAX = -324, 292  # the decimal exponents k of normal doubles
_M63 = (1 << 63) - 1
_M32 = _U(0xFFFFFFFF)
_P = 350  # decimal points p index the tables below at p + _P


def _g_table():
    """g(k) for k in [_K_MIN, _K_MAX] as the (4, 617) uint32 array of the
    32-bit limbs [g0 low, g0 high, g1 low, g1 high] of its 63-bit halves,
    g = g1 2^63 + g0.  10^-k = beta 2^r with 2^125 <= beta < 2^126, and
    g = floor(beta) + 1."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = ((-k * 913124641741) >> 38) - 125  # floor(-k log2 10) - 125
        if k <= 0:
            p = 10 ** -k
            g = (p >> r if r >= 0 else p << -r) + 1
        else:
            g = (1 << -r) // 10 ** k + 1
        g1, g0 = g >> 63, g & _M63
        rows.append((g0 & 0xFFFFFFFF, g0 >> 32, g1 & 0xFFFFFFFF, g1 >> 32))
    return np.array(rows, dtype=np.uint32).T.copy()


def _digit_tables():
    """By a 4-digit group n < 10^4: its digits as ASCII in the even bytes
    of a word, most significant first; and, for the group j = 0..3 of
    digits 1-16, at j 10^4 + n, how many digits the value has if its
    last nonzero digit is in that group (1, digit 0 alone, when n = 0)."""
    text = np.zeros((10 ** 4, 8), dtype=np.uint8)
    n = np.arange(10 ** 4, dtype=np.uint16)
    for i, place in enumerate((1000, 100, 10, 1)):
        text[:, 2 * i] = n // place % 10
    last = 3 - np.argmax(text[:, 6::-2] != 0, axis=1)  # 0-based
    nd = np.empty((4, 10 ** 4), dtype=np.uint8)
    for j in range(4):
        nd[j] = np.where(n > 0, 4 * j + 2 + last, 1)
    text[:, 0::2] += ord("0")
    return text.view("<u8").reshape(-1), nd.reshape(-1)


def _layout_tables():
    """What a value's decimal point p (the value is 0.d0d1... 10^p) and
    its count nd of significant digits fix.  Row (min(max(p, -4), 17)
    + 4) 18 + nd of the first table holds the OR template of words 0-4
    (the "0." and zeros, the '.'), then the AND masks of the digit slots
    of words 1-4; it is stored transposed, a row per word.  At p + _P,
    the second table holds the row's first term and the third word 5's
    exponent.  repr writes no exponent when -4 < p <= 16."""
    lay = np.zeros((22, 18, 9), dtype=_U)
    for row, p in enumerate(range(-4, 18)):
        fixed = -4 < p <= 16
        for nd in range(1, 18):
            slots = p + 1 if fixed and p >= nd else nd
            dot = (p - 1 if p >= 1 else None) if fixed else (
                0 if nd > 1 else None)
            fix, dig = bytearray(40), bytearray(40)
            if fixed and p <= 0:
                fix[1:3 - p] = b"0." + b"0" * -p
            for i in range(slots):
                dig[6 + 2 * i] = 0xFF
            if dot is not None:
                fix[7 + 2 * dot] = ord(".")
            lay[row, nd, :5] = np.frombuffer(bytes(fix), dtype="<u8")
            lay[row, nd, 5:] = np.frombuffer(bytes(dig), dtype="<u8")[1:]
    base = np.empty(2 * _P, dtype=np.int64)
    exp = np.zeros(2 * _P, dtype=_U)
    for p in range(-_P, _P):
        base[p + _P] = (min(max(p, -4), 17) + 4) * 18
        if not -4 < p <= 16:
            e = f"e{p - 1:+03d}".encode().ljust(8, b"\0")
            exp[p + _P] = np.frombuffer(e, dtype="<u8")[0]
    return lay.reshape(-1, 9).T.copy(), base, exp


_G = _g_table()
_ASCII4, _ND4 = _digit_tables()
_ND4_AT = np.arange(4, dtype=np.uint32)[:, None] * 10 ** 4  # group j's _ND4
_LAY, _ROW, _EXP = _layout_tables()


def _mul(aL, aH, cL, cH):
    """The high and low 64-bit halves of a c, from the 32-bit limbs of a
    and c, as four limb products; at most five arrays are alive."""
    lo = aL * cL
    mid = lo >> 32
    lo &= _M32
    t = aL * cH
    hi = t >> 32
    t &= _M32
    mid += t
    np.multiply(aH, cL, out=t)
    mid += t & _M32
    t >>= 32
    hi += t
    np.multiply(aH, cH, out=t)
    hi += t
    hi += mid >> 32
    mid <<= 32
    lo |= mid
    return hi, lo


def _rop(g, cp):
    """Round to odd of g cp 2^-127, as Schubfach computes it, for cp <
    2^63 (overwritten) and g = g1 2^63 + g0 given by the 32-bit limbs
    g[0..3] of g0 and g1."""
    cH = cp >> 32
    cp &= _M32
    x1 = _mul(g[0], g[1], cp, cH)[0]
    y1, z = _mul(g[2], g[3], cp, cH)  # g1 cp = y1 2^64 + z
    z >>= 1
    z += x1
    y1 += z >> 63
    z &= _U(_M63)
    z += _U(_M63)
    z >>= 63
    y1 |= z
    return y1


def _shortest(bits):
    """(f, k): f 10^k is the shortest decimal that rounds to the normal
    double of bits (either sign), the closest to it of those, ties to
    even f, with 10^15 < f < 10^17 (trailing zeros kept).  Schubfach's
    steps; its fast path for integers is left out, as the general one
    gives the same decimal."""
    c = bits & _U((1 << 52) - 1)
    q = (bits >> 52) & _U(0x7FF)
    irregular = (c == 0) & (q > 1)  # a power of 2: the gap below is half
    q = q.view(np.int64)
    q -= 1075
    k = q * 661971961083
    k -= irregular * 274743187321
    k >>= 41
    h = k * -913124641741
    h >>= 38
    h += q
    h += 2
    h = h.astype(np.uint8)  # 1 <= h <= 4
    del q
    g = np.take(_G, k - _K_MIN, axis=1)
    odd = (c & _U(1)).astype(bool)  # the rounding interval is open for odd c
    c |= _U(1 << 52)
    c <<= _U(2)

    def rop(cp):
        cp <<= h
        return _rop(g, cp)

    vbl = rop(c - _U(2) + irregular)  # c - 1 below a power of 2
    vb = rop(c.copy())
    vbr = rop(c + _U(2))
    del c, g, h, irregular
    vbl += odd
    vbr -= odd
    s = vb >> _U(2)
    sp10 = s // _U(10)
    sp10 *= _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= vbr
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    # s + 1 when only it is in, or both are and vb is above 4 s + 2 or
    # at it with s odd
    win &= (vb & _U(3)) + (s & _U(1)) > 2
    win |= ~uin
    s += win
    del vbl, vb, vbr, uin, win
    return np.where(upin != wpin, sp10 + _U(10) * ~upin, s), k


def id_words(rows):
    """The "i," of each row i < rows as NUL-padded uint64 words, one row
    of the (rows, w) result per id: what repr_csv(X, ids=True) puts in
    front of each row, built once for callers that format many blocks."""
    width = len(str(rows - 1))
    place = 10 ** np.arange(width - 1, -1, -1)
    ids = np.arange(rows)[:, None]
    b = np.zeros((rows, (width + 8) // 8 * 8), dtype=np.uint8)
    b[:, :width] = np.where((ids >= place) | (place == 1),
                            ids // place % 10 + 48, 0)
    b[:, width] = ord(",")
    return b.view("<u8")


def _words(x, hw):
    """The (lanes, hw + 6) uint64 words of the values x: hw words left
    for the caller to fill, then the six value words, with no row byte."""
    bits = x.view(_U)
    f, p = _shortest(bits)
    big = f >= _U(10 ** 16)
    p += big
    p += 16 + _P  # the decimal point, + _P
    t = f * _U(9)
    t *= ~big
    f += t  # f 10 when f has 16 digits: 17 digits, digit 0 the lead
    del t, big
    lead = f // _U(10 ** 16)
    f -= lead * _U(10 ** 16)
    groups = np.empty((4, len(x)), dtype=np.uint32)  # digits 1-16 by 4
    groups[0] = f // _U(10 ** 8)
    f -= groups[0] * _U(10 ** 8)
    groups[2] = f
    del f
    groups[1::2] = groups[0::2] % np.uint32(10 ** 4)
    groups[0::2] //= np.uint32(10 ** 4)
    nd = np.take(_ND4, groups + _ND4_AT).max(axis=0)  # significant digits
    row = np.take(_ROW, p) + nd
    del nd
    out = np.empty((len(x), hw + 6), dtype="<u8")  # bytes in text order
    w = np.take(_EXP, p)
    out[:, hw + 5] = w
    del p
    np.take(_LAY[0], row, out=w)
    w |= (bits >> _U(63)) * _U(0x2D)
    lead += _U(0x30)
    lead <<= _U(48)
    w |= lead
    out[:, hw] = w
    del lead
    for j in range(1, 5):
        np.take(_ASCII4, groups[j - 1], out=w)
        w &= np.take(_LAY[4 + j], row)
        w |= np.take(_LAY[j], row)
        out[:, hw + j] = w
    # zero, subnormal, inf and nan: exponent bits 0 or 0x7FF
    slow = np.flatnonzero(((bits >> _U(52)) + _U(1)) & _U(0x7FF) < 2)
    if slow.size:
        vals, inv = np.unique(bits[slow], return_inverse=True)
        b = b"".join(repr(v).encode().ljust(40, b"\0")
                     for v in vals.view(float).tolist())
        out[slow, hw:hw + 5] = np.frombuffer(b, dtype="<u8").reshape(-1, 5)[inv]
        out[slow, hw + 5] = 0
    return out


def repr_csv(X, ids=False):
    """The CSV bytes of each table of X, a (tables, rows, cols) float64
    array, as a list of bytes: row i of a table is f"{i}," when ids,
    then ",".join(repr(v) for v in row), then "\\n".  ids may also be
    id_words(rows), built once by the caller.

    The bytes equal those of the join for every float, in passes of
    about REPR_CHUNK values (whole rows; a pass may span tables)."""
    X = np.ascontiguousarray(X, dtype=float)
    tables, rows, cols = X.shape
    x = X.reshape(-1)
    per = rows * cols
    step = max(1, REPR_CHUNK // cols)  # rows per pass
    ends = np.full(cols, ord(","), dtype=_U)
    ends[-1] = ord("\n")
    ends <<= _U(40)  # the row byte's slot in the last value word
    if isinstance(ids, np.ndarray):
        heads = ids
    else:
        heads = id_words(rows) if ids else np.zeros((rows, 0), dtype=_U)
    hw = heads.shape[1]
    pieces = [[] for _ in range(tables)]
    for r0 in range(0, tables * rows, step):
        r1 = min(r0 + step, tables * rows)
        words = _words(x[r0 * cols:r1 * cols], hw)
        w3 = words.reshape(r1 - r0, cols, -1)
        w3[:, 0, :hw] = np.take(heads, np.arange(r0, r1), axis=0, mode="wrap")
        w3[:, 1:, :hw] = 0
        w3[:, :, -1] |= ends
        for t in range(r0 // rows, (r1 - 1) // rows + 1):
            a = max(t * per, r0 * cols) - r0 * cols
            b = min((t + 1) * per, r1 * cols) - r0 * cols
            for i in range(a, b, _SLICE):
                text = words[i:min(i + _SLICE, b)].tobytes()
                pieces[t].append(text.translate(None, b"\0"))
        del words, w3
    return [b"".join(p) for p in pieces]
