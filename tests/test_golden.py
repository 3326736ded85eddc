"""Golden bytes of ``osmot smooth``.

Each case generates a fixture, smooths it through the CLI and pins the
SHA-256 of the written mesh and of the per-loop report CSV. A refactor
must leave these bytes unchanged. A change that alters output bytes on
purpose updates the hashes here and says so in CHANGES.md.
"""

import hashlib

import pytest

from osmot.cli import main
from osmot.driver import SmootherConfig, smooth
from osmot.fixtures import FixtureKind, generate_fixture
from osmot.geometry import Point2
from osmot.meshio import write_mesh
from osmot.svgout import ColorBy, render_svg

CASES = {
    "patch32-10-loops": (
        ["--kind", "patch32", "--seed", "1", "--distortion", "0.45"],
        ["--max-loops", "10"],
        "b3868fe60bab51b778a4768233ef6500557269c0fef20042ebec8466d180291a",
        "093964ed85a1beb3323f087e11edcd5a7c0ae644ba9fe250ec165746265828c3",
    ),
    "indentedbox-movable-chain": (
        ["--kind", "indentedbox", "--distortion", "0.6"],
        [],
        "193014b8deb0d47dc7afe76c7bb3c5c752f3bed518d1cece5cf6f83043b160cb",
        "e0b47c443b32411008b3adbc6bb299f3518ab8d4b17c74a8ef79fa32ab7702c4",
    ),
    "patch32-beta2-gamma2": (
        ["--kind", "patch32", "--seed", "1", "--distortion", "0.45"],
        ["--beta", "2", "--gamma", "2"],
        "2956802f7f0b30fd564f8543b952c59b082be695a4c641c5ccf79d52d09ab65a",
        "0405305dcac9d60966d568b35f2fb5a476114e3e634d4bf7035b98d6f16190bd",
    ),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", list(CASES))
def test_smooth_output_bytes(tmp_path, case):
    gen_args, smooth_args, mesh_sha, csv_sha = CASES[case]
    src = tmp_path / "in.mesh"
    out = tmp_path / "out.mesh"
    csv = tmp_path / "report.csv"
    assert main(["gen", *gen_args, "--output", str(src)]) == 0
    assert main(["smooth", "--input", str(src), "--output", str(out),
                 "--report", str(csv), *smooth_args]) == 0
    assert (sha256(out), sha256(csv)) == (mesh_sha, csv_sha)


# indentedbox with its movable chain, reflagged every loop, with an SVG
# snapshot after every loop: the report, flagging and SVG colouring all
# read per-triangle quality after the nodes of a few triangles moved.
REFLAG_SVG_MESH_SHA = "ed636a6d4eea4cdd02521f569d3100c04fcae9cb2a4fb576cdcd624a6f287911"
REFLAG_SVG_CSV_SHA = "fc6aec6153c18844ca8a67a8ecd3173fcbfa83ac7e42d1b59470d55b2e094f93"
REFLAG_SVG_SNAPSHOT_SHA = {
    "loop0000.svg": "4e58b7c9f7903f87d4ce44d7c5f90854056021426c33c98e1e99a3147ed01e77",
    "loop0001.svg": "d632ee71957d772f165791beee9d80ac17c8d725b6c0a841596ec63801d556b2",
    "loop0002.svg": "f8275d9012feb506a2a8046ab0a6ba5faddde573c0134fa070aff1c28bcfc547",
    "loop0003.svg": "5da3f48e75299d901ef74707f2dce50a73f5778c265a8fe97637ed6db80145ec",
    "loop0004.svg": "d3cd7da9353cbb3b47bd454282a6f66bbf6fb625a644611b9c2bec1a16796150",
    "loop0005.svg": "2bda014e38477e170e8bb4eedab470dbbf0518ab11f73a3b26825a1ccef6d10a",
    "loop0006.svg": "3a4dd025d5ad5cd9dd1d9dba1cfd449ea92c2de2c937571229a1bdcfadb73465",
    "loop0007.svg": "a1dce8b6b1befdab949600ad2f9da2969a6622d860f423056367cc6e5dad14db",
    "loop0008.svg": "8fda6aab9d34bba638c85acf4cd810dea78625c610893add58be1b7be5b66e60",
    "loop0009.svg": "161c95e45b169e8da6f6d7b8d506a8a08955532894e0b323f010174db8577c00",
    "loop0010.svg": "4476cfbaf033bdc3a7d09949c0821ed0cfbc44bad12c7ded9b286970e7fb35fa",
}


def test_reflag_svg_every_loop_bytes(tmp_path):
    src = tmp_path / "in.mesh"
    out = tmp_path / "out.mesh"
    csv = tmp_path / "report.csv"
    svg_dir = tmp_path / "svg"
    assert main(["gen", "--kind", "indentedbox", "--distortion", "0.6",
                 "--output", str(src)]) == 0
    assert main(["smooth", "--input", str(src), "--output", str(out),
                 "--report", str(csv), "--reflag", "--svg-every", "1",
                 "--svg-dir", str(svg_dir)]) == 0
    assert (sha256(out), sha256(csv)) == (REFLAG_SVG_MESH_SHA, REFLAG_SVG_CSV_SHA)
    snapshots = {p.name: sha256(p) for p in sorted(svg_dir.iterdir())}
    assert snapshots == REFLAG_SVG_SNAPSHOT_SHA


# patch32 with an rref section that overrides r_ref on every other
# triangle, beta = gamma = 2: the per-element reference radii reach the
# objective of every ball and the report's minQ1.
RREF_MESH_SHA = "5b67c584fd8cff6f97c8646ccca83a42738d6bc78063bc349d9f960097541106"
RREF_CSV_SHA = "470368678ab6c7fb183b0ec0c5da6711ac6b96fd4fad758bf27b46e750dd66a7"


def test_per_element_rref_bytes(tmp_path):
    src = tmp_path / "in.mesh"
    out = tmp_path / "out.mesh"
    csv = tmp_path / "report.csv"
    assert main(["gen", "--kind", "patch32", "--seed", "1", "--distortion",
                 "0.45", "--output", str(src)]) == 0
    overrides = {tid: 0.1 + 0.02 * tid for tid in range(0, 32, 2)}
    with src.open("a") as fh:
        fh.write(f"rref {len(overrides)}\n")
        fh.writelines(f"{tid} {r!r}\n" for tid, r in overrides.items())
    assert main(["smooth", "--input", str(src), "--output", str(out),
                 "--report", str(csv), "--beta", "2", "--gamma", "2",
                 "--rref", "0.25"]) == 0
    assert (sha256(out), sha256(csv)) == (RREF_MESH_SHA, RREF_CSV_SHA)


# indentedbox with its movable chain, driven as a rezoning run through the
# library: each round pushes the three top nodes over the notch down with
# set_position, smooths, renders an SVG and writes a checkpoint of the same
# Mesh object, so every output after the first is of a mesh in which only
# some nodes moved since it was last written.
REZONE_DIE_IDS = (39, 40, 41)
REZONE_SHA = {
    "round1.svg": "f6ca4988ca34ea53926b56420afe0a0e93c73274dc9e2795ff85be4471f1ec70",
    "round1.mesh": "2d515288d8e480af964f1f1c974ab6a59e18ff8ea8dfca82c4cfbf960012796f",
    "round2.svg": "0da832dbf7b97ce53bdf05c91331063fbb3da8852dca573015509fc1eb952459",
    "round2.mesh": "2d83c37eb13f1b1443476189e84d5982888669d78935e7218a11b0730605f146",
    "round3.svg": "9e3b15586c46b979657e4da7e018962fb1ef5be3cf43a0d0078af32e3491da13",
    "round3.mesh": "3cb7ae90ac351beac7f02d67ba98c3a5b82937e11ca1ab9f2e4425aeb6e0ca77",
}


def test_rezone_rounds_write_the_same_mesh_bytes(tmp_path):
    mesh = generate_fixture(FixtureKind.INDENTED_BOX, distortion=0.6)
    for rnd in range(1, 4):
        for nid in REZONE_DIE_IDS:
            p = mesh.position(nid)
            mesh.set_position(nid, Point2(p.x, p.y - 0.05))
        smooth(mesh, SmootherConfig(i_max=3))
        render_svg(mesh, str(tmp_path / f"round{rnd}.svg"), ColorBy.Q2)
        write_mesh(mesh, str(tmp_path / f"round{rnd}.mesh"))
    written = {p.name: sha256(p) for p in sorted(tmp_path.iterdir())}
    assert written == REZONE_SHA
