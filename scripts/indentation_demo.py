"""Continuous rezoning under a rigid die pressed into a box.

The mesh-motion core of an indentation run: three top nodes act as a
rigid die and are displaced downward by a small increment each round;
the smoother then rezones the interior and the remaining (movable) top
surface before the next increment. Without smoothing, the die would
invert the rows beneath it within a few increments; with it, the mesh
stays valid to large indentation depths. Writes one SVG per round.
"""

import argparse
import os
import sys

from osmot.cli import loop_count
from osmot.driver import SmootherConfig, smooth
from osmot.fixtures import (INDENTED_PITCH, INDENTED_ROWS, FixtureKind,
                            generate_fixture)
from osmot.geometry import Point2
from osmot.mesh import Mobility, build_topology
from osmot.svgout import ColorBy, render_svg


def build_box_with_die():
    """The flat indented box with three top-chain nodes made fixed as the
    die; they are moved by the script, not smoothed."""
    box = generate_fixture(FixtureKind.INDENTED_BOX)
    top = INDENTED_ROWS * INDENTED_PITCH
    positions = [box.position(n.id) for n in box.nodes]
    die_ids = [nid for nid, p in enumerate(positions)
               if p.y == top and p.x in {1.5, 2.0, 2.5}]
    mobility = [Mobility.FIXED if n.id in die_ids else n.mobility
                for n in box.nodes]
    return build_topology(mobility, positions, box.triangles), die_ids


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=loop_count, default=15)
    parser.add_argument("--increment", type=float, default=0.08)
    parser.add_argument("--loops-per-round", type=loop_count, default=5)
    parser.add_argument("--out-dir", default="indentation_svgs")
    args = parser.parse_args(argv)

    mesh, die_ids = build_box_with_die()
    os.makedirs(args.out_dir, exist_ok=True)
    render_svg(mesh, os.path.join(args.out_dir, "round00.svg"), ColorBy.Q2)

    print(f"{'round':>5} {'die y':>7} {'minQ2':>8} {'inverted':>8}")
    for rnd in range(1, args.rounds + 1):
        for nid_ in die_ids:
            p = mesh.position(nid_)
            mesh.set_position(nid_, Point2(p.x, p.y - args.increment))
        result = smooth(mesh, SmootherConfig(i_max=args.loops_per_round))
        rep = result.reports[-1]
        print(f"{rnd:>5} {mesh.position(die_ids[0]).y:>7.3f} "
              f"{rep.min_q2:>8.4f} {rep.inverted_elements:>8}")
        render_svg(mesh, os.path.join(args.out_dir, f"round{rnd:02d}.svg"),
                   ColorBy.Q2)
        if rep.inverted_elements:
            print("mesh inverted; stopping", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
