"""CSV cells as bytes: Python's ``"%.17g" % v`` and ``"%d" % v``, made by numpy.

``cell_bytes`` turns a column of numbers into one row of bytes per
value, NUL-padded to ``cell_width`` bytes.  Deleting the NULs leaves
exactly the text Python's ``%`` gives, byte for byte: digits come from
a lookup table of 4-digit groups, and each notation has one static
layout in which unused positions (leading or trailing zeros, an absent
point or sign) hold NUL.  Floats whose digits the arithmetic cannot
certify are formatted by Python itself (see ``_float_cells``).  The
tables are built on first use, not at import.
"""

import functools

import numpy as np

__all__ = ["cell_bytes", "cell_width"]


#: Bytes of a cell: "-" and 19 digits; "-", 17 digits, "." and "e-123".
_INT_BYTES, _FLOAT_BYTES = 20, 24
#: Decimal exponents whose digits the float64 arithmetic certifies.
_MAX_EXPONENT = 250


@functools.cache
def _digit_tables():
    """The tables of ``_int_cells`` and ``_float_cells``, built on first use.

    ``quads`` holds the four ASCII digits of 0..9999 as one uint32: as
    they are, with trailing zeros as NUL, and with leading zeros as NUL.
    Row i of the others is for the decimal exponent x = i - 251:
    ``hi[i] + lo[i]`` is 10^(16 - x), each part correctly rounded from
    exact integers, so the pair is off by at most 2^-106, and
    ``exponents[i]`` is "e+dd" (NUL-padded, NUL in fixed notation).
    """
    g = np.arange(10000)[:, None]
    place = 10 ** np.arange(3, -1, -1)
    plain = (ord("0") + g // place % 10).astype(np.uint8)
    trailing = g % (10 * place) != 0  # this digit or a later one is not 0
    leading = g >= place  # this digit or an earlier one is not 0
    quads = np.concatenate([plain, plain * trailing, plain * leading]).view(np.uint32).ravel()
    hi, lo = [], []
    for k in range(16 - _MAX_EXPONENT - 1, 16 + _MAX_EXPONENT + 2)[::-1]:
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den  # int / int is correctly rounded
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    exponents = b"".join((b"" if -4 <= x <= 16 else b"e%+03d" % x).ljust(5, b"\0")
                         for x in range(-_MAX_EXPONENT - 1, _MAX_EXPONENT + 2))
    return (quads, np.array(hi), np.array(lo),
            np.frombuffer(exponents, np.uint8).reshape(-1, 5), 10 ** np.arange(19))


def _groups(n: np.ndarray) -> list:
    """The four 4-digit groups of each int64 below 10^16, highest first
    (``//`` and products: numpy's int64 ``%`` is several times slower)."""
    top = n // 10**8
    groups = []
    for half in (top, n - top * 10**8):
        high = half // 10**4
        groups += [high, half - high * 10**4]
    return groups


def _int_cells(values: np.ndarray) -> np.ndarray:
    """``"%d" % v`` of each int64 as ``cell_width(values)`` NUL-padded bytes."""
    quads = _digit_tables()[0]
    magnitude = values.view(np.uint64)
    magnitude = np.where(values < 0, -magnitude, magnitude)  # 2^63 for the minimum
    top = magnitude // 10**16
    groups = [top.astype(np.int64)] + _groups((magnitude - top * 10**16).astype(np.int64))
    body = np.empty((len(values), 5), np.uint32)
    zero_before = np.ones(len(values), bool)
    for k, group in enumerate(groups):
        body[:, k] = quads[group + 20000 * zero_before]  # leading zeros as NUL
        zero_before &= group == 0
    cells = body.view(np.uint8)[:, _INT_BYTES - cell_width(values):]
    cells[:, -1] = ord("0") + groups[-1] % 10  # 0 prints one digit
    # a negative value has fewer digits than the widest cell: its first byte is NUL
    cells[:, 0] = np.where(values < 0, ord("-"), cells[:, 0])
    return cells


def _float_cells(values: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` of each float64 as ``_FLOAT_BYTES`` NUL-padded bytes.

    The 17 digits D = round(|v| 10^(16 - x)), x = floor(log10 |v|) the
    decimal exponent, come from the double-double product p + r of |v|
    and 10^(16 - x): p = fl(|v| hi), r its exact (Dekker) error plus
    fl(|v| lo), within 4e-15 of the true remainder.  D = p + rint(r) is
    then certain unless r is within 1e-12 of a half (ties), or p is
    within 32 of 10^16 or 10^17 or beyond them (powers of ten, and the
    values next to them whose x log10 puts one off).  Those rows, zeros,
    subnormals, non-finite values, |x| > 250 and fixed-notation integer
    parts ending in zero are formatted by Python's own ``%``.
    """
    quads, hi_pow, lo_pow, exponents, pow10 = _digit_tables()
    magnitude = np.abs(values)
    certain = (magnitude >= 10.0**-_MAX_EXPONENT) & (magnitude <= 10.0**_MAX_EXPONENT)
    magnitude[~certain] = 1.0
    x = np.floor(np.log10(magnitude)).astype(np.int64)
    table_row = x + _MAX_EXPONENT + 1
    # fixed notation for -4 <= x <= 16 (layout 0..20), else exponent form (21)
    layout = np.where((x >= -4) & (x <= 16), x + 4, 21).astype(np.int8)
    hi, lo = hi_pow[table_row], lo_pow[table_row]
    p = magnitude * hi
    m_hi, m_lo = _veltkamp(magnitude)
    h_hi, h_lo = _veltkamp(hi)
    r = (((m_hi * h_hi - p) + m_hi * h_lo + m_lo * h_hi) + m_lo * h_lo) + magnitude * lo
    rounded = np.rint(r)
    certain &= (np.abs(r - rounded) < 0.5 - 1e-12) & (p > 1e16 + 32) & (p < 1e17 - 32)
    digits = p.astype(np.int64) + rounded.astype(np.int64)
    # digits after the point: 16 - x in fixed notation, 16 in exponent form
    decimals = np.where(layout < 21, np.minimum(16 - x, 17), 16)
    certain &= digits % pow10[decimals + 1] != 0  # else the integer part ends in 0
    lead = digits // 10**16
    groups = _groups(digits - lead * 10**16)
    cells = np.empty((len(values), _FLOAT_BYTES), np.uint8)
    # the exponent layout: sign, lead digit, point, 16 digits, "e+123"
    cells[:, 0] = ord("-") * np.signbit(values)
    cells[:, 1] = ord("0") + lead
    cells[:, 2] = ord(".") * (digits % pow10[decimals] != 0)
    body = cells[:, 3:19].view(np.uint32)
    zero_after = np.ones(len(values), bool)
    for k in range(3, -1, -1):
        body[:, k] = quads[groups[k] + 10000 * zero_after]  # trailing zeros as NUL
        zero_after &= groups[k] == 0
    cells[:, 19:] = exponents[table_row]
    # fixed notation, one exponent at a time (a contiguous run of rows in
    # a sorted column)
    counts = np.bincount(layout, minlength=22)
    ends = np.cumsum(counts)
    in_order = not (layout[1:] < layout[:-1]).any()
    for c in np.flatnonzero(counts[:21]).tolist():
        where = slice(ends[c] - counts[c], ends[c]) if in_order else np.flatnonzero(layout == c)
        rows = cells[where]  # a view of a run, or a copy written back below
        # bytes move one column at a time: numpy copies a column of a
        # few thousand rows faster than rows of a few bytes
        e = c - 4  # the rows' decimal exponent
        if e >= 0:  # the point moves behind e more digits
            point = rows[:, 2].copy()
            for j in range(2, 2 + e):
                rows[:, j] = rows[:, j + 1]
            rows[:, 2 + e] = point
        else:  # "0." and -e - 1 zeros go before all 17 digits
            for j in range(18, 2, -1):
                rows[:, j - e] = rows[:, j]
            rows[:, 2 - e] = rows[:, 1]
            rows[:, 1:2 - e] = ord("0")
            rows[:, 2] = ord(".")
        cells[where] = rows
    fallback = np.flatnonzero(~certain)
    if len(fallback):
        text = b"".join(("%.17g" % v).encode().ljust(_FLOAT_BYTES, b"\0")
                        for v in values[fallback].tolist())
        cells[fallback] = np.frombuffer(text, np.uint8).reshape(-1, _FLOAT_BYTES)
    return cells


def _veltkamp(a: np.ndarray):
    """a = hi + lo exactly, each with at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def cell_width(values: np.ndarray) -> int:
    """Bytes of each row ``cell_bytes`` returns for ``values`` (or any run of
    them that holds their minimum and maximum)."""
    if values.dtype.kind == "f":
        return _FLOAT_BYTES
    return max(len("%d" % values.min()), len("%d" % values.max()))


def cell_bytes(values: np.ndarray) -> np.ndarray:
    """The cells of a float (``%.17g``) or integer (``%d``) column."""
    if values.dtype.kind == "f":
        return _float_cells(values.astype(np.float64, copy=False))
    return _int_cells(values.astype(np.int64, copy=False))
