"""Bundled scheme catalog, lookup, and the on-disk scheme file format.

The catalog covers cycle lengths 2..20 for ellipse aspect ratios
``{0, 1/10, 1/5, 1/3, 1/2}``, plus the earlier real-axis-only listing
(which also provides the single-factor M = 1 entry).  Amplification
bounds are recomputed from the factors at lookup time rather than
trusted from any external source.

Scheme files are line-oriented text::

    srj-scheme v1
    m=<int>
    c=<p/q rational, decimal, or none>
    g_bar=<decimal or none>
    <one factor per line, application order, 17 significant digits>
"""

from fractions import Fraction
from pathlib import Path

import numpy as np

from . import _catalog_data
from .amplification import Scheme, amp_eval
from .region import _test_points

C_RATIO_KEYS = ("0", "1/10", "1/5", "1/3", "1/2")
M_RANGE = range(2, 21)

FILE_HEADER = "srj-scheme v1"


class SchemeNotFoundError(KeyError):
    """Requested (m, c) pair is not in the bundled grid."""


class SchemeFileError(ValueError):
    """Scheme file is malformed or fails validation."""


def c_ratio_value(key):
    """Float value of a catalog aspect-ratio key like ``"1/3"``."""
    return float(Fraction(key))


def normalize_c_key(c):
    """Map a ratio given as str, Fraction, or float onto a catalog key.

    Strings are matched after Fraction normalization (so ``"2/10"`` means
    ``"1/5"``); floats match the nearest grid value within 1e-9.  Returns
    None when the ratio is off-grid.
    """
    if isinstance(c, str):
        c = c.strip()
        try:
            c = float(Fraction(c))
        except (ValueError, ZeroDivisionError):
            return None
    elif isinstance(c, Fraction):
        c = float(c)
    for key in C_RATIO_KEYS:
        if abs(float(c) - c_ratio_value(key)) <= 1e-9:
            return key
    return None


def catalog_keys():
    """All bundled (m, c-key) pairs, the M = 1 classic row included."""
    keys = [(1, "0")]
    for key in C_RATIO_KEYS:
        keys.extend((m, key) for m in M_RANGE)
    return keys


_g_bar_cache = {}


def recomputed_g_bar(m, c_key, factors):
    """Max |amplification| over the (m, c) test points for the factors."""
    cache_key = (m, c_key, factors)
    if cache_key not in _g_bar_cache:
        probe = Scheme(factors=factors)
        _g_bar_cache[cache_key] = float(np.abs(amp_eval(probe, _test_points(m, c_ratio_value(c_key)))).max())
    return _g_bar_cache[cache_key]


def lookup(m, c):
    """Bundled scheme for cycle length m and aspect ratio c.

    Factors come back verbatim in catalog order with the amplification
    bound recomputed over the scheme's own test points.  Unknown keys
    raise :class:`SchemeNotFoundError` naming the valid grid.
    """
    c_key = normalize_c_key(c)
    grid_msg = (
        f"valid grid: m in 2..20 (plus m=1 for c=0), c in {{{', '.join(C_RATIO_KEYS)}}}"
    )
    if c_key is None:
        raise SchemeNotFoundError(f"no bundled scheme for c={c!r}; {grid_msg}")
    if (m, c_key) in _catalog_data.SCHEME_FACTORS:
        factors = _catalog_data.SCHEME_FACTORS[(m, c_key)]
    elif c_key == "0" and m in _catalog_data.CLASSIC_REAL_AXIS_FACTORS:
        factors = _catalog_data.CLASSIC_REAL_AXIS_FACTORS[m]
    else:
        raise SchemeNotFoundError(f"no bundled scheme for (m={m}, c={c_key}); {grid_msg}")
    return Scheme(
        factors=factors,
        c_ratio=c_ratio_value(c_key),
        g_bar=recomputed_g_bar(m, c_key, factors),
    )


def classic_lookup(m):
    """Scheme from the earlier real-axis listing (m in {1, 2, 3, 5, 7})."""
    try:
        factors = _catalog_data.CLASSIC_REAL_AXIS_FACTORS[m]
    except KeyError:
        raise SchemeNotFoundError(
            f"no classic real-axis scheme for m={m}; available: 1, 2, 3, 5, 7"
        ) from None
    return Scheme(factors=factors, c_ratio=0.0, g_bar=recomputed_g_bar(m, "0", factors))


def slope_table():
    """Amplification slope at 1 for the full catalog grid.

    Returns ``{(m, c_key): slope}`` with an extra ``(m, "jacobi")`` column
    equal to m (the slope of m unrelaxed sweeps).
    """
    from .amplification import slope_at_one

    table = {}
    for m in M_RANGE:
        for c_key in C_RATIO_KEYS:
            table[(m, c_key)] = slope_at_one(lookup(m, c_key))
        table[(m, "jacobi")] = float(m)
    return table


def _format_c(c_ratio):
    if c_ratio is None:
        return "none"
    as_fraction = Fraction(c_ratio).limit_denominator(1_000_000)
    if float(as_fraction) == c_ratio:
        return "0" if as_fraction == 0 else f"{as_fraction.numerator}/{as_fraction.denominator}"
    return format(c_ratio, ".17g")


def save_scheme(scheme, path, converged=True):
    """Write a scheme file; 17 significant digits round-trip bit-exactly."""
    lines = [FILE_HEADER, f"m={scheme.m}", f"c={_format_c(scheme.c_ratio)}"]
    lines.append("g_bar=" + ("none" if scheme.g_bar is None else format(scheme.g_bar, ".17g")))
    if not converged:
        lines.append("converged=false")
    lines.extend(format(w, ".17g") for w in scheme.factors)
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_field(line, lineno, name):
    prefix = name + "="
    if not line.startswith(prefix):
        raise SchemeFileError(f"line {lineno}: expected '{name}=...', got {line!r}")
    return line[len(prefix):].strip()


def load_scheme(path):
    """Read a scheme file written by :func:`save_scheme`."""
    raw = Path(path).read_text().splitlines()
    lines = [ln.strip() for ln in raw if ln.strip()]
    if not lines or lines[0] != FILE_HEADER:
        raise SchemeFileError(f"line 1: missing '{FILE_HEADER}' header")
    if len(lines) < 5:
        raise SchemeFileError("truncated scheme file: header, m, c, g_bar and factors required")

    m_text = _parse_field(lines[1], 2, "m")
    try:
        m = int(m_text)
    except ValueError:
        raise SchemeFileError(f"line 2: m must be an integer, got {m_text!r}") from None
    if m < 1:
        raise SchemeFileError(f"line 2: m must be >= 1, got {m}")

    c_text = _parse_field(lines[2], 3, "c")
    if c_text == "none":
        c_ratio = None
    else:
        try:
            c_ratio = float(Fraction(c_text)) if "/" in c_text else float(c_text)
        except (ValueError, ZeroDivisionError):
            raise SchemeFileError(f"line 3: bad c value {c_text!r}") from None

    g_text = _parse_field(lines[3], 4, "g_bar")
    try:
        g_bar = None if g_text == "none" else float(g_text)
    except ValueError:
        raise SchemeFileError(f"line 4: bad g_bar value {g_text!r}") from None

    body = lines[4:]
    if body and body[0].startswith("converged="):
        body = body[1:]
    factors = []
    for offset, text in enumerate(body):
        try:
            factors.append(float(text))
        except ValueError:
            raise SchemeFileError(f"line {5 + offset}: bad factor {text!r}") from None
    if len(factors) != m:
        raise SchemeFileError(f"factor count {len(factors)} does not match m={m}")
    for offset, w in enumerate(factors):
        if w <= 0.0:
            raise SchemeFileError(f"line {5 + offset}: factors must be positive, got {w}")
    try:
        return Scheme(factors=tuple(factors), c_ratio=c_ratio, g_bar=g_bar)
    except ValueError as exc:
        raise SchemeFileError(str(exc)) from None
