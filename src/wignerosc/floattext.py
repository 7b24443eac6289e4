"""Python's shortest round-trip text of many floats at once, computed in numpy.

``json_join(values, sep)`` returns the bytes of
``sep.join(json.dumps(v) for v in values)``.  ``float.__repr__`` finds each
value's digits with bignum arithmetic, about 0.6 us for a 17-digit value;
here the digits of every value come from a few dozen numpy passes, and one
bytes ``%`` writes them all.

Each |x| is scaled to s = |x| 10^-k = N + r, a 17-digit integer N and a
remainder r, by an error-free product against 10^-k held as hi + lo
(Dekker's two-product; the error is about 1e-14 units of s).  The shortest
decimal that reads back as x drops the most digits j: the largest j whose
nearest multiple of 10^j lies within h, half an ulp of x in units of s
(Steele & White, PLDI 1990; Adams, PLDI 2018).  Since every multiple of
10^(j+1) is one of 10^j, a fit is monotone in j and a search finds the
largest; rounding to that multiple gives repr's shortest-then-nearest
digits.

These values go through ``json.dumps`` one at a time instead: zeros,
non-finite values, exact powers of two (whose lower half-gap is half the
upper one), |x| outside [1e-250, 1e250) (where the product could overflow
or lose bits) and any value with a decision within 1e-6 units of a tie or
of the bound h.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["json_join"]

_EPS = 1e-6  # units of s, against a scaling error of about 1e-14
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's splitter for float64


def _halves(a):
    """a = high + low, each with at most 26 significant bits, so their products are exact."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _powers(first: int, last: int) -> np.ndarray:
    """Rows (hi, lo, hi's halves) with hi + lo = 10^-k to about 2^-106, for k = first..last."""
    rows = []
    for k in range(first, last + 1):
        num, den = (1, 10**k) if k > 0 else (10**-k, 1)
        hi = num / den  # int / int rounds correctly
        n, d = hi.as_integer_ratio()
        rows.append((hi, (num * d - n * den) / (den * d)))
    hi, lo = np.array(rows).T
    return np.stack([hi, lo, *_halves(hi)], axis=1)


def _scaled(a, row, table):
    """a 10^-k as N + r, with int64 N and 0 <= r < 1, and 10^-k itself; 10^-k is table[row]."""
    hi, lo, hh, hl = np.take(table, row, axis=0).T
    p = a * hi
    ah, al = _halves(a)
    t = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo  # a (hi + lo) - p
    f = np.floor(t)
    return p.astype(np.int64) + f.astype(np.int64), t - f, hi + lo


def _fit(distance, h):
    """Whether each distance lies within h, and whether it lies too near h to tell."""
    return distance < h, np.abs(distance - h) < _EPS


def _shortest(a):
    """repr's digits of each a > 0 as an integer D of n digits, a ~ D 10^(E-n+1).

    The fourth array marks the values whose digits are not certified.
    """
    k = np.floor(np.log10(a)).astype(np.int64) - 16
    first = int(k.min(initial=0)) - 1
    table = _powers(first, int(k.max(initial=0)) + 1)
    N, r, scale = _scaled(a, k - first, table)
    off = (N >= _POW10[17]).astype(np.int64) - (N < _POW10[16])  # where log10 missed by one
    if off.any():
        i = np.flatnonzero(off)
        k[i] += off[i]
        N[i], r[i], scale[i] = _scaled(a[i], k[i] - first, table)
    h = np.ldexp(scale, np.frexp(a)[1] - 54)
    # j = 0, 1 and 2 for every value at once, from s = 100 q + x; j = 0 always fits, as h > 0.55
    q = N // 100
    x = (N - q * 100) + r
    near = [np.rint(x / 10**j) for j in range(3)]
    dist = [np.abs(x - 10**j * c) for j, c in enumerate(near)]
    fit1, bad = _fit(dist[1], h)
    fit2, bad2 = _fit(dist[2], h)
    near = [c.astype(np.int64) for c in near]
    D = np.where(fit2, q + near[2], np.where(fit1, 10 * q + near[1], 100 * q + near[0]))
    bad |= bad2 | (np.abs(np.where(fit2, 1.0, np.where(fit1, dist[1] - 5, dist[0] - 0.5))) < _EPS)  # ties
    j = fit1 + fit2.astype(np.int64)
    # past j = 2 one multiple of 100 at most lies within h < 12, so the rest of j is D's trailing zeros
    for p in (8, 4, 2, 1):
        cut = D // _POW10[p]
        strip = fit2 & (cut * _POW10[p] == D)
        D, j = np.where(strip, cut, D), j + p * strip
    n, E = 17 - j, k + 16
    carry = j == 17  # the nearest multiple of 10^17 is 10^17 itself: D = 1
    n[carry], E[carry] = 1, E[carry] + 1
    return D, n, E, bad


def _template(key: int) -> bytes:
    """The % template of one layout key of json_join, with one %d (two for ddd.ddd)."""
    key, e = divmod(key, 1024)
    key, zeros = divmod(key, 32)
    key, lead = divmod(key, 1000)
    form, neg = divmod(key, 2)
    z = b"0" * zeros
    body = (b"0." + z + b"%d", b"%d" + z + b".0", b"%d." % lead + z + b"%d", b"%d." + z + b"%d", b"%d")[form]
    return (b"-" if neg else b"") + body + (b"e%+03d" % (e - 512) if e else b"")


def json_join(values, sep: bytes) -> bytes:
    """The bytes of sep.join(json.dumps(v) for v in values) for a 1-d float array and a bytes sep."""
    x = np.asarray(values, dtype=float)
    a = np.abs(x)
    with np.errstate(invalid="ignore"):  # NaN compares false
        fast = (a >= 1e-250) & (a < 1e250) & (np.frexp(a)[0] != 0.5)
    i = np.flatnonzero(fast)
    D, n, E, bad = _shortest(a[i])
    fast[i[bad]] = False
    i, D, n, E = i[~bad], D[~bad], n[~bad], E[~bad]
    # repr's layout: positional for -4 <= E < 16, else one digit, the point if more follow, and e+-dd
    positional = (E >= -4) & (E < 16)
    point = np.where(positional, E + 1, 1)  # digits before the point
    after = n - point  # digits of D after it
    lead, tail = np.divmod(D, _POW10[np.clip(after, 0, 18)])
    # forms: 0.00ddd, ddd00.0, d.0ddd with the lead written in, ddd.0ddd, de+dd
    form = np.where(point <= 0, 0, np.where(after <= 0, np.where(positional, 1, 4), np.where(point > 3, 3, 2)))
    # the zeros after the point in 0.00ddd and before it in ddd00.0, or leading the tail's digits
    zeros = np.abs(after - np.searchsorted(_POW10, tail, side="right"))
    # one integer per layout, in the mixed radix that _template decodes: form, sign, lead, zeros, exponent
    key = (((form * 2 + (x[i] < 0)) * 1000 + np.where(form == 2, lead, 0)) * 32 + zeros) * 1024
    key += np.where(positional, 0, E + 512)
    keys, which = np.unique(key, return_inverse=True)
    slow = np.flatnonzero(~fast)
    bits, same = np.unique(x[slow].view(np.int64), return_inverse=True)  # -0.0 is not 0.0 here
    special = [json.dumps(v).encode() for v in bits.view(float).tolist()]
    templates = np.array([_template(k) for k in keys.tolist()] + special, dtype=object)
    order = np.empty(x.size, np.intp)
    order[i], order[slow] = which, keys.size + same
    args = np.where(form == 2, tail, np.where(form == 3, lead, D))
    if (form == 3).any():  # ddd.0ddd converts the lead, then the tail
        args = np.stack([args, tail], axis=1)[np.stack([np.ones_like(positional), form == 3], axis=1)]
    return sep.replace(b"%", b"%%").join(templates[order].tolist()) % tuple(args.tolist())
