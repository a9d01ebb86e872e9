"""Tabulate coloring counts and cocycle invariants across the bundled knots
and the small torus families.

    python scripts/knot_table.py
"""

from __future__ import annotations

from quandlekit import count_colorings, make_dihedral, state_sum_shadow, torus_diagram
from quandlekit.specs import parse_diagram_text, read_data_file, resolve_cochain

KNOTS = ["unknot", "trefoil", "fig8", "6_1", "7_4", "7_7"]


def main() -> None:
    r3 = make_dihedral(3)
    theta = resolve_cochain("theta_R3.cochain")

    print(f"{'diagram':<12} {'crossings':>9} {'3-colorings':>11} {'shadows':>8}  psi_theta")
    print("-" * 60)

    def row(label, D):
        cols = count_colorings(D, r3)
        psi = state_sum_shadow(D, r3, theta)
        shadows = psi.augmentation()
        print(f"{label:<12} {len(D.crossings):>9} {cols:>11} {shadows:>8}  {psi.render()}")

    for name in KNOTS:
        row(name, parse_diagram_text(read_data_file(f"{name}.pd"), name=name))
    print("-" * 60)
    for n in range(2, 13):
        row(f"T(2,{n})", torus_diagram(2, n))
    print("-" * 60)
    for k in range(1, 6):
        row(f"T(3,{2 * k})", torus_diagram(3, 2 * k))
    row("T(2,-3)", torus_diagram(2, -3))


if __name__ == "__main__":
    main()
