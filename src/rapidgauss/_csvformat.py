"""Exact '%.17g' text of float tables, built from whole arrays.

A double x whose rounding to 17 significant digits has decimal exponent X
prints the digits of D = round(|x| 10^(16-X)), an integer in
[10^16, 10^17), laid out by %g's rules for X.  X comes from exact
comparisons with the least double of each exponent.  With
10^(16-X) = hi + lo to about 2^-106, Dekker's exact product |x| hi = p + e
(after a Veltkamp split; Numer. Math. 18:224, 1971) gives
D = p + round(e + |x| lo): p is an integer, and the rounded sum is off by
less than 2^-47.  So D is exact unless that sum lies within 2^-40 of a tie.
Its digits come from a table of 4-digit groups, and the %g layout from one
gather of source-row bytes per value.  So every byte equals
``'%.17g' % x``.

:func:`format_table` formats the values in range so, then formats the
values it cannot vouch for with '%', all in one call, and splices their
text into their rows: those outside 0 and |X| <= EXP_MAX (non-finite,
subnormal, below about 1e-40 or from about 1e41), which skip the arrays,
and those that round near a tie.  A
table is formatted in one pass, so its size bounds the memory: the
command-line interface hands over strings of at most its BLOCK_VALUES
values, and only the byte gather goes GATHER_VALUES values at a time.  The
interface imports this module on its first CSV table, so that compiling it
and building its tables add nothing to the interface's own import.
"""

import math

import numpy as np

# Values whose bytes are gathered at a time, to bound the memory of the
# byte indices.
GATHER_VALUES = 2**9
EXP_MAX = 40
# Classes of |x|: 0 for zero, 1 + EXP_MAX + X for exponent X; a class from
# CLASSES up is out of range.
CLASSES = 2 * EXP_MAX + 2
# Bytes of a value's source row: its 17 digits at 3..19 (the 4-digit groups
# of D // 10^16, whose first three bytes are '0', and of four more groups),
# then ALPHABET, then zeros, which mark the bytes to drop.
ROW_BYTES = 40
ALPHABET = b"-.e+0123456789"
MINUS, DOT, E, PLUS, ZERO = (20 + ALPHABET.index(c) for c in b"-.e+0")
DROP = 20 + len(ALPHABET)
# Bytes per formatted value: at most 23 (as '-0.00012345678901234567' or
# '-1.2345678901234567e-05') and a separator.  A spliced '%' text may take
# 24 (as '-2.2250738585072014e-308'); the rows then take one byte more.
FIELD = 24
VELTKAMP = 2.0**27 + 1


def _exponent_floors():
    """The least double whose 17-digit exponent is at least X, for each
    class from zero to CLASSES, then +inf: 0.0, then the least double at or
    above 10^X - 5*10^(X-18), the least value that rounds up to 10^X."""
    floors = [0.0]
    for x in range(-EXP_MAX, EXP_MAX + 2):
        num, den = (10**18 - 5) * 10 ** max(x - 18, 0), 10 ** max(18 - x, 0)
        floor = num / den  # correctly rounded
        top, bottom = floor.as_integer_ratio()
        floors.append(floor if top * den >= num * bottom else math.nextafter(floor, math.inf))
    return np.array(floors + [math.inf])


def _binade_classes(floors):
    """The class of the least double of each binary exponent field, as the
    number of finite nonzero floors at or below it; the class of NaN and
    inf for the last field."""
    classes = np.zeros(2048, np.intp)
    for floor in floors[1:-1].tolist():
        mantissa, exponent = math.frexp(floor)
        classes[1022 + exponent + (mantissa > 0.5) :] += 1
    classes[-1] = CLASSES
    return classes


def _powers():
    """Rows hi, lo, and hi's Veltkamp halves, of 10^(16-X) = hi + lo for
    each class (10^16 for zero)."""
    columns = []
    for x in [0, *range(-EXP_MAX, EXP_MAX + 1)]:
        num, den = 10 ** max(16 - x, 0), 10 ** max(x - 16, 0)
        hi = num / den  # correctly rounded
        top, bottom = hi.as_integer_ratio()
        big = hi * VELTKAMP
        big -= big - hi
        columns.append((hi, (num * bottom - top * den) / (den * bottom), big, hi - big))
    return np.array(list(zip(*columns)))


def _digit_groups():
    """The ASCII digits of 0000..9999 as uint32 words, and the number of
    trailing zeros of each."""
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    zero, trailing = np.zeros(10, np.uint8), np.zeros((1, 1, 1, 1), np.uint8)
    zero[0] = 1
    for place in range(4):
        shape = [10 if axis == place else 1 for axis in range(4)]
        digits[..., place] = np.frombuffer(b"0123456789", np.uint8).reshape(shape)
        trailing = zero.reshape(shape) * (1 + trailing)
    return digits.view(np.uint32).ravel(), trailing.ravel()


def _layouts():
    """Source-row bytes of each '%.17g' output byte, padded with drop
    bytes, by sign, class and number of trailing zeros of D: the fixed form
    for -4 <= X <= 16 (zero as X = 0), else d.ddde+XX, with trailing zeros
    and a bare '.' dropped."""
    rows = []
    for x in [0, *range(-EXP_MAX, EXP_MAX + 1)]:
        for kept in range(17, 0, -1):
            digits = list(range(3, 3 + kept))
            if x < -4 or x > 16:
                row = [3, *[DOT] * (kept > 1), *digits[1:], E, MINUS if x < 0 else PLUS]
                row += [ZERO + abs(x) // 10, ZERO + abs(x) % 10]
            elif x < 0:
                row = [ZERO, DOT, *[ZERO] * (-x - 1), *digits]
            else:
                row = (digits + [ZERO] * x)[: x + 1] + [DOT] * (kept > x + 1) + digits[x + 1 :]
            rows.append(bytes(row).ljust(FIELD, bytes([DROP])))
    positive = np.frombuffer(b"".join(rows), np.uint8).reshape(-1, FIELD)
    layouts = np.full((2, *positive.shape), MINUS, np.uint8)
    layouts[0] = positive
    layouts[1, :, 1:] = positive[:, :-1]
    return layouts.reshape(-1, FIELD)


FLOORS = _exponent_floors()
BINADE_CLASS = _binade_classes(FLOORS)
POWERS = _powers()
DIGITS4, TRAILING4 = _digit_groups()
TAIL_WORDS = np.frombuffer(ALPHABET.ljust(ROW_BYTES - 20, b"\0"), np.uint32)
LAYOUTS = _layouts()


def _significands(mag, cls):
    """D = round(mag 10^(16-X)) of each value, X given by its class, as
    int64, and a mask of those whose residual is within 2^-40 of a tie."""
    hi, lo, hi_big, hi_small = np.take(POWERS, cls, axis=1)
    product = mag * hi
    big = mag * VELTKAMP
    big -= big - mag
    small = mag - big
    residual = ((big * hi_big - product) + big * hi_small + small * hi_big) + small * hi_small
    residual += mag * lo
    rounded = np.rint(residual)
    value = product.astype(np.int64)
    value += rounded.astype(np.int64)
    return value, np.abs(residual - rounded) > 0.5 - 2.0**-40


def _digit_rows(value):
    """The source rows of significands value (see ROW_BYTES) as uint32
    words, and the number of trailing zeros of each significand."""
    groups, rest = np.empty((5, len(value)), np.int64), np.empty((3, len(value)), np.int64)
    np.divmod(value, 10**16, out=(groups[0], rest[0]))
    np.divmod(rest[0], 10**8, out=(rest[1], rest[2]))
    np.divmod(rest[1], 10**4, out=(groups[1], groups[2]))
    np.divmod(rest[2], 10**4, out=(groups[3], groups[4]))
    source = np.empty((len(value), ROW_BYTES // 4), np.uint32)
    source[:, :5] = np.take(DIGITS4, groups).T
    source[:, 5:] = TAIL_WORDS
    ends = np.take(TRAILING4, groups[1:])
    trailing = ends[0]
    # a zero group adds its 4 zeros to the trailing zeros of the groups before it
    for end, group in zip(ends[1:], groups[2:]):
        trailing = np.where(group, end, trailing + 4)
    return source, trailing


def _layout(value, signed_class):
    """The '%.17g' bytes of significands value, one row of FIELD bytes
    each, drop bytes included; signed_class is sign * CLASSES + class."""
    source, trailing = _digit_rows(value)
    layout = np.take(LAYOUTS, signed_class * 17 + trailing, axis=0)
    flat, out = source.view(np.uint8).ravel(), np.empty_like(layout)
    offsets = np.arange(0, flat.size, ROW_BYTES)[:, None]
    for first in range(0, len(out), GATHER_VALUES):
        rows = slice(first, first + GATHER_VALUES)
        np.take(flat, np.add(layout[rows], offsets[rows]), out=out[rows], mode="clip")
    return out


def _exact_rows(values, mag):
    """The '%.17g' bytes of in-range values of magnitudes mag, one row of
    FIELD bytes each, drop bytes included, and a mask of those whose
    significand rounds near a tie."""
    cls = np.take(BINADE_CLASS, mag.view(np.int64) >> 52)
    cls = np.where(mag >= np.take(FLOORS, cls + 1), cls + 1, cls)
    value, near_tie = _significands(mag, cls)
    return _layout(value, np.where(np.signbit(values), cls + CLASSES, cls)), near_tie


def _format_values(values, separators):
    """The '%.17g' bytes of a 1-D float array, each value followed by its
    separator (separators repeat along the array), without drop bytes."""
    mag = np.abs(values)
    # mark the values neither 0 nor of an exponent within EXP_MAX of 0 (NaN
    # included); only the others go through the arrays
    marked = ~((mag < FLOORS[CLASSES]) & ((mag >= FLOORS[1]) | (mag == 0)))
    if marked.any():
        inside = ~marked
        out = np.zeros((len(values), FIELD), np.uint8)
        out[inside], marked[inside] = _exact_rows(values[inside], mag[inside])
    else:
        out, marked = _exact_rows(values, mag)
    if marked.any():
        # their text by '%', in one call, each left-justified in FIELD bytes
        count = np.count_nonzero(marked)
        texts = (f"%-{FIELD}.17g" * count % tuple(values[marked].tolist())).encode()
        texts = np.frombuffer(texts.replace(b" ", b"\0"), np.uint8).reshape(count, FIELD)
        # a text of FIELD bytes leaves no byte for its separator
        if texts[:, -1].any():
            out = np.pad(out, ((0, 0), (0, 1)))
        out[marked, :FIELD] = texts
    out.reshape(-1, len(separators), out.shape[1])[:, :, -1] = separators
    out = out.ravel()
    return out[out != 0]


def format_table(table):
    """The rows of a C-contiguous 2-D float table as CSV text, each value
    exactly '%.17g' % value, fields joined by ',' and rows by newlines.
    The whole table is formatted in one pass."""
    separators = np.full(table.shape[1], ord(","), np.uint8)
    separators[-1] = ord("\n")
    # no separator after the last row
    return _format_values(table.ravel(), separators)[:-1].tobytes().decode()
