"""Command-line interface.

Subcommands:

- ``gen``: generate a built-in fixture mesh.
- ``check``: validate a mesh file and print a quality report.
- ``smooth``: run the smoother and write the result, optionally with a
  per-loop quality CSV and periodic SVG snapshots.

Exit codes: 0 on success, 1 on parse/validation failure, 2 on bad
arguments.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .driver import RunReport, SmootherConfig, SmootherKind, smooth
from .fixtures import FixtureKind, generate_fixture
from .meshio import ParseError, ValidationError, read_mesh, write_mesh
from .objective import ObjectiveParams
from .quality import QualityConfig
from .report import q2_histogram, quality_report, write_report_csv
from .svgout import ColorBy, render_svg


def loop_count(text: str) -> int:
    """argparse type of a loop or round count: a non-negative integer."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a non-negative integer, got {text!r}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process. A parser and the
    help formatters that building it makes are reference cycles, so a
    parser built per call of ``main`` would leave garbage that only the
    cyclic collector frees, and loads run with it paused."""
    parser = argparse.ArgumentParser(
        prog="osmot",
        description="Optimization-based smoothing of planar triangle meshes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = SmootherConfig()
    p_smooth = sub.add_parser("smooth", help="smooth a mesh file")
    p_smooth.add_argument("--input", required=True)
    p_smooth.add_argument("--output", required=True)
    p_smooth.add_argument("--max-loops", type=loop_count, default=defaults.i_max)
    p_smooth.add_argument("--qmin", type=float, default=defaults.quality.q_min)
    p_smooth.add_argument("--beta", type=float, default=defaults.objective.beta)
    p_smooth.add_argument("--gamma", type=float, default=defaults.objective.gamma)
    p_smooth.add_argument("--rref", type=float, default=defaults.objective.r_ref)
    p_smooth.add_argument("--smoother", default=defaults.smoother_kind.value,
                          choices=[k.value for k in SmootherKind])
    p_smooth.add_argument("--report", metavar="CSV",
                          help="write per-loop quality CSV")
    p_smooth.add_argument("--svg-every", type=loop_count, metavar="K", default=0,
                          help="render an SVG snapshot every K loops")
    p_smooth.add_argument("--svg-dir", metavar="DIR",
                          help="directory for SVG snapshots")
    p_smooth.add_argument("--reflag", action="store_true",
                          help="recompute the flagged node set every loop")
    p_smooth.add_argument("--no-early-exit", action="store_true",
                          help="always run the full loop count")

    p_check = sub.add_parser("check", help="validate a mesh and report quality")
    p_check.add_argument("--input", required=True)

    p_gen = sub.add_parser("gen", help="generate a fixture mesh")
    p_gen.add_argument("--kind", required=True,
                       choices=[k.value for k in FixtureKind])
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--distortion", type=float, default=0.0)
    p_gen.add_argument("--output", required=True)

    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    mesh = generate_fixture(FixtureKind(args.kind), args.seed, args.distortion)
    write_mesh(mesh, args.output)
    print(f"wrote {args.output}: {len(mesh.nodes)} nodes, "
          f"{len(mesh.triangles)} triangles")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    mesh = read_mesh(args.input)
    rep = quality_report(mesh, QualityConfig(), ObjectiveParams().r_ref, 0)
    print(f"nodes {len(mesh.nodes)} triangles {len(mesh.triangles)} "
          f"chains {len(mesh.chains)}")
    print(f"minQ2 {rep.min_q2:.6g} meanQ2 {rep.mean_q2:.6g} "
          f"minQ1 {rep.min_q1:.6g} flagged {rep.flagged_elements} "
          f"inverted {rep.inverted_elements}")
    print("q2 histogram " + " ".join(map(str, q2_histogram(mesh))))
    return 0


def _cmd_smooth(args: argparse.Namespace) -> int:
    mesh = read_mesh(args.input)
    cfg = SmootherConfig(
        i_max=args.max_loops,
        quality=QualityConfig(q_min=args.qmin),
        objective=ObjectiveParams(beta=args.beta, gamma=args.gamma,
                                  r_ref=args.rref),
        reflag_each_loop=args.reflag,
        smoother_kind=SmootherKind(args.smoother),
        early_exit=not args.no_early_exit,
    )

    on_loop = None
    if args.svg_every > 0:
        svg_dir = args.svg_dir or "."
        os.makedirs(svg_dir, exist_ok=True)

        def on_loop(loop: int, m) -> None:
            if loop % args.svg_every == 0:
                render_svg(m, os.path.join(svg_dir, f"loop{loop:04d}.svg"),
                           ColorBy.Q2)

    result: RunReport = smooth(mesh, cfg, on_loop=on_loop)
    write_mesh(mesh, args.output)
    if args.report:
        write_report_csv(result.reports, args.report)

    final = result.reports[-1]
    note = ""
    if result.early_exit_loop is not None:
        note = f" (no motion after loop {result.early_exit_loop})"
    print(f"loops {result.loops_run} relocations {result.relocations} "
          f"skipped {len(result.skipped)} minQ2 {final.min_q2:.6g} "
          f"meanQ2 {final.mean_q2:.6g}{note}")
    for nid, reason in result.skipped:
        print(f"skipped node {nid}: {reason}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if (args.command == "smooth" and args.svg_dir is not None
                and args.svg_every == 0):
            # snapshots are written only every K > 0 loops
            parser.error("--svg-dir needs --svg-every K with K > 0")
    except SystemExit as err:
        return int(err.code or 0)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_smooth(args)
    except (ParseError, ValidationError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
