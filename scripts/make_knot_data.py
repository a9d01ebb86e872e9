"""Regenerate the bundled data files (PD codes, cochain, surface data).

The table knots are built as 4-plats from their two-bridge fractions
(3_1 = [3], 4_1 = [2,1,1], 6_1 = [4,1,1], 7_4 = [3,1,3], 7_7 = [2,1,1,1,2]),
validated against their determinants via dihedral coloring counts, and
mirrored where needed so the shadow invariant of every 3-colorable knot in
the bundle equals 9 + 18t (not the conjugate), matching the trefoil built
from the positive braid.  Run from the repository root:

    python scripts/make_knot_data.py
"""

from __future__ import annotations

import os

from quandlekit import (
    Cochain,
    count_colorings,
    make_dihedral,
    mirror,
    parse_pd,
    shadow_surface_data,
    state_sum_shadow,
    torus_diagram,
)
from quandlekit._util import union_classes
from quandlekit.diagram import Crossing, Diagram, format_pd, format_surface
from quandlekit.homology import format_cochain

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "quandlekit", "data")

THETA_R3 = Cochain(
    3,
    3,
    {
        (0, 1, 2): 1,
        (0, 2, 1): 1,
        (1, 0, 1): 1,
        (2, 0, 1): 1,
        (2, 0, 2): 1,
        (1, 0, 2): 1,
    },
)


def twobridge_plat(quotients: list[int]) -> Diagram:
    """Plat closure of sigma_2^a1 sigma_1^-a2 sigma_2^a3 ... on four strands.

    An odd-length continued fraction [a1, ..., a_2k+1] of p/q gives the
    standard alternating diagram of the two-bridge knot b(p, q).
    """
    cur = [0, 1, 2, 3]
    next_id = 4
    ends: list[list[int]] = []  # ccw edge ids per crossing: TL, BL, BR, TR
    over_pair: list[tuple[int, int]] = []
    letters: list[tuple[int, int]] = []
    for idx, a in enumerate(quotients):
        gen = 2 if idx % 2 == 0 else 1
        eps = 1 if idx % 2 == 0 else -1
        letters += [(gen, eps)] * a
    for i, eps in letters:
        left, right = cur[i - 1], cur[i]
        out_left, out_right = next_id, next_id + 1
        next_id += 2
        ends.append([left, out_left, out_right, right])
        over_pair.append((1, 3) if eps > 0 else (0, 2))
        cur[i - 1], cur[i] = out_left, out_right

    caps = [(0, 1), (2, 3), (cur[0], cur[1]), (cur[2], cur[3])]
    classes = union_classes(next_id, caps)
    if len(classes) != next_id - len(caps):
        raise ValueError("cap closes a crossing-free loop")
    eid = {e: i for i, cls in enumerate(classes) for e in cls}

    slots: dict[int, list[tuple[int, int]]] = {}
    for ci, quad in enumerate(ends):
        for p, e in enumerate(quad):
            slots.setdefault(eid[e], []).append((ci, p))

    # Orient each component by walking straight through the crossings.
    in_slot: dict[int, tuple[int, int]] = {}
    for start in range(len(classes)):
        if start in in_slot:
            continue
        e, entry = start, slots[start][1]
        while e not in in_slot:
            in_slot[e] = entry
            ci, p = entry
            out_p = (p + 2) % 4
            e2 = eid[ends[ci][out_p]]
            s1, s2 = slots[e2]
            entry = s2 if s1 == (ci, out_p) else s1
            e = e2

    crossings = []
    for ci, quad in enumerate(ends):
        ids = [eid[e] for e in quad]
        op = over_pair[ci]
        under_positions = (1, 3) if op == (0, 2) else (0, 2)
        u_in = next(p for p in under_positions if in_slot[ids[p]] == (ci, p))
        o_in = next(p for p in op if in_slot[ids[p]] == (ci, p))
        quad_rot = tuple(ids[(u_in + k) % 4] for k in range(4))
        sign = 1 if (o_in - u_in) % 4 == 3 else -1
        crossings.append(Crossing(quad_rot, ids[o_in], sign))
    return Diagram(len(classes), tuple(crossings))


def oriented_to_match(D: Diagram, want: str) -> Diagram:
    """Pick D or its mirror so the theta shadow invariant renders as ``want``."""
    R3 = make_dihedral(3)
    if state_sum_shadow(D, R3, THETA_R3).render() == want:
        return D
    M = mirror(D)
    got = state_sum_shadow(M, R3, THETA_R3).render()
    if got != want:
        raise AssertionError(f"neither chirality gives {want!r} (mirror gives {got!r})")
    return M


def main() -> None:
    os.makedirs(DATA_DIR, exist_ok=True)
    R3 = make_dihedral(3)

    def write(name: str, text: str) -> None:
        path = os.path.join(DATA_DIR, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}")

    write("theta_R3.cochain", format_cochain(THETA_R3))

    knots = {
        "trefoil.pd": ([3], 9, "9 + 18t"),
        "fig8.pd": ([2, 1, 1], 3, None),
        "6_1.pd": ([4, 1, 1], 9, "27"),
        "7_4.pd": ([3, 1, 3], 9, "9 + 18t"),
        "7_7.pd": ([2, 1, 1, 1, 2], 9, "9 + 18t"),
    }
    for name, (fraction, colorings, psi) in knots.items():
        D = twobridge_plat(fraction)
        assert count_colorings(D, R3) == colorings, name
        if psi is not None:
            D = oriented_to_match(D, psi)
        text = format_pd(D)
        assert count_colorings(parse_pd(text), R3) == colorings
        write(name, text)

    write("unknot.pd", "pd\n")
    write("sphere.surf", "surface\nsheets 1\n")

    # Surface data with genuinely nontrivial triple-point weights: the
    # shadow-coloring structure of the trefoil, sheet-ified.
    trefoil = parse_pd(read(os.path.join(DATA_DIR, "trefoil.pd")))
    sd = shadow_surface_data(trefoil)
    write("trefoil_shadow.surf", format_surface(sd))

    # Consistency: T(2,3) must agree with the bundled trefoil.
    assert state_sum_shadow(torus_diagram(2, 3), R3, THETA_R3).render() == "9 + 18t"


def read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


if __name__ == "__main__":
    main()
