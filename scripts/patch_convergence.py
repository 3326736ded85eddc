"""Loop-count study on the structured square patch.

Distorts the patch interior, then smooths with the optimization-based
rule and with the averaging baseline under the identical driver, printing
the per-loop quality evolution side by side. Five to ten loops take the
optimizer to an almost optimal mesh; the baseline plateaus earlier and
lower. Optionally renders per-loop SVG snapshots.
"""

import argparse
import os
import sys

from osmot.cli import loop_count
from osmot.driver import SmootherConfig, SmootherKind, smooth
from osmot.fixtures import FixtureKind, generate_fixture
from osmot.svgout import ColorBy, render_svg


def run(kind: SmootherKind, args, svg_dir=None):
    mesh = generate_fixture(FixtureKind.PATCH32, args.seed, args.distortion)
    on_loop = None
    if svg_dir:
        os.makedirs(svg_dir, exist_ok=True)

        def on_loop(loop, m):
            render_svg(m, os.path.join(svg_dir, f"loop{loop:03d}.svg"),
                       ColorBy.Q2)

    cfg = SmootherConfig(i_max=args.loops, smoother_kind=kind,
                         early_exit=False)
    return smooth(mesh, cfg, on_loop=on_loop)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--distortion", type=float, default=0.45)
    parser.add_argument("--loops", type=loop_count, default=10)
    parser.add_argument("--svg-dir", default=None,
                        help="write per-loop snapshots under this directory")
    args = parser.parse_args(argv)
    try:
        # generate_fixture holds the one rule for --distortion
        generate_fixture(FixtureKind.PATCH32, args.seed, args.distortion)
    except ValueError as err:
        parser.error(str(err))

    osmot_run = run(SmootherKind.OSMOT, args,
                    svg_dir=args.svg_dir and os.path.join(args.svg_dir, "osmot"))
    lap_run = run(SmootherKind.LAPLACIAN, args,
                  svg_dir=args.svg_dir and os.path.join(args.svg_dir, "laplacian"))

    print(f"patch seed={args.seed} distortion={args.distortion}")
    print(f"{'loop':>4}  {'osmot minQ2':>12} {'meanQ2':>8}  "
          f"{'laplacian minQ2':>16} {'meanQ2':>8}")
    for ro, rl in zip(osmot_run.reports, lap_run.reports):
        print(f"{ro.loop:>4}  {ro.min_q2:>12.6f} {ro.mean_q2:>8.4f}  "
              f"{rl.min_q2:>16.6f} {rl.mean_q2:>8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
