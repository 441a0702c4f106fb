"""SVG rendering of wall atlases.

Coordinates are the single place the library writes decimal approximations;
they are produced by one integer division to 20 significant digits, never
by floating point.  A pixel is one integer numerator over one denominator,
read off a vertex's reduced triple (X, Y, W) and the box sides, so no
`Fraction` is built per vertex.  Everything semantic in the picture (tick
labels, cell tooltips) stays in exact "p/q" notation.  Cell colors are
assigned by the lexicographic rank of the distinct ideal divisors, so the
same atlas always renders byte-identically.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .rationals import _integer, _rational, format_point, format_rational
from .walls import WallAtlas


def decimal_approx(value: Fraction, significant: int = 20) -> str:
    """Decimal expansion of an exact rational, truncated to the given number
    of significant digits, computed with integer arithmetic only."""
    value = _rational(value, "value")
    significant = _integer(significant, "significant digits")
    return _decimal(value.numerator, value.denominator, significant)


def _decimal(numerator: int, denominator: int, significant: int = 20) -> str:
    """`decimal_approx` of numerator / denominator > 0, in any terms."""
    if numerator == 0:
        return "0"
    sign = "-" if numerator < 0 else ""
    numerator = abs(numerator)
    integer_part, remainder = divmod(numerator, denominator)
    digits = str(integer_part)
    if remainder == 0:
        return sign + digits
    if integer_part > 0:
        places = significant - len(digits)
    else:
        # leading zeros are not significant: the first nonzero digit is at
        # the least place t with remainder * 10**t >= denominator
        t = len(str(denominator)) - len(str(remainder))
        if remainder * 10**t < denominator:
            t += 1
        places = significant + t - 1
    if places <= 0:
        return sign + digits
    tail = str(remainder * 10**places // denominator).zfill(places).rstrip("0")
    return sign + digits + ("." + tail if tail else "")


_WIDTH = 720
_MARGIN = 60


def _palette(count: int) -> list[str]:
    return [
        f"hsl({(360 * rank) // max(count, 1)}, 62%, 82%)"
        for rank in range(count)
    ]


def render_atlas_svg(
    atlas: WallAtlas, lct_ticks: Sequence[Fraction] = ()
) -> str:
    """Filled constancy cells, stroked facets, exact tick labels."""
    bx, by = atlas.box
    px, qx, py, qy = bx.numerator, bx.denominator, by.numerator, by.denominator
    height = _WIDTH  # logical square viewport; axes scale independently

    def x_pix(x: int, w: int) -> str:  # _MARGIN + (x/w) / bx * _WIDTH
        return _decimal(_MARGIN * w * px + x * qx * _WIDTH, w * px)

    def y_pix(y: int, w: int) -> str:  # _MARGIN + (1 - (y/w) / by) * height
        return _decimal((_MARGIN + height) * w * py - y * qy * height, w * py)

    divisors = sorted(set(atlas.cell_divisors))
    colors = _palette(len(divisors))
    color_of = {divisor: colors[rank] for rank, divisor in enumerate(divisors)}

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_WIDTH + 2 * _MARGIN}" height="{height + 2 * _MARGIN}" '
        f'viewBox="0 0 {_WIDTH + 2 * _MARGIN} {height + 2 * _MARGIN}">',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_WIDTH}" '
        f'height="{height}" fill="white" stroke="none"/>',
    ]

    arrangement = atlas.arrangement
    xs = [x_pix(x, w) for x, _, w in arrangement.vertex_triples]
    ys = [y_pix(y, w) for _, y, w in arrangement.vertex_triples]
    pixels = [f"{x},{y}" for x, y in zip(xs, ys)]
    for cell, divisor in zip(atlas.cells, atlas.cell_divisors):
        fill = color_of[divisor]
        label = ",".join(str(c) for c in divisor)
        for face_index in cell:
            points = " ".join(pixels[v] for v in arrangement.faces[face_index].loop)
            parts.append(
                f'<polygon points="{points}" fill="{fill}" stroke="none">'
                f"<title>D = {label}</title></polygon>"
            )

    for facet in atlas.facets:
        start = arrangement.edges[facet.edge_indices[0]].tail
        end = arrangement.edges[facet.edge_indices[-1]].head
        label = "; ".join(
            f"component {j + 1} level {level}" for j, level in facet.sources
        )
        parts.append(
            f'<line x1="{xs[start]}" y1="{ys[start]}" '
            f'x2="{xs[end]}" y2="{ys[end]}" '
            f'stroke="#222222" stroke-width="1.4">'
            f"<title>{label}; m = {facet.mult}</title></line>"
        )

    parts.append(
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_WIDTH}" '
        f'height="{height}" fill="none" stroke="black" stroke-width="1"/>'
    )

    for axis, tick in enumerate(lct_ticks):
        if axis == 0 and 0 <= tick <= bx:
            x = x_pix(tick.numerator, tick.denominator)
            parts.append(
                f'<line x1="{x}" y1="{_MARGIN + height}" x2="{x}" '
                f'y2="{_MARGIN + height + 10}" '
                f'stroke="crimson" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{x}" y="{_MARGIN + height + 28}" '
                f'text-anchor="middle" font-size="13" fill="crimson">'
                f"{format_rational(tick)}</text>"
            )
        elif axis == 1 and 0 <= tick <= by:
            y = y_pix(tick.numerator, tick.denominator)
            parts.append(
                f'<line x1="{_MARGIN - 10}" y1="{y}" x2="{_MARGIN}" y2="{y}" '
                f'stroke="crimson" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{_MARGIN - 14}" y="{y}" '
                f'text-anchor="end" font-size="13" fill="crimson">'
                f"{format_rational(tick)}</text>"
            )

    origin_label = format_point((Fraction(0), Fraction(0)))
    corner_label = format_point((bx, by))
    parts.append(
        f'<text x="{_MARGIN}" y="{_MARGIN + height + 44}" '
        f'font-size="12" fill="#555555">({origin_label})</text>'
    )
    parts.append(
        f'<text x="{_MARGIN + _WIDTH}" y="{_MARGIN - 12}" '
        f'text-anchor="end" font-size="12" fill="#555555">'
        f"({corner_label})</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
