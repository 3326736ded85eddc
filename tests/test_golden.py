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
        "7f3cf37c4d4993fd4cd752a6d748daf6711f1b33cb3e1ef59ca2e9a5779d5591",
        "54d23bbcf0d83c782611313550cfff399e655e20f9a164ef72a1d58f5e84c565",
    ),
    "indentedbox-movable-chain": (
        ["--kind", "indentedbox", "--distortion", "0.6"],
        [],
        "f657edc83f5aeb4fc9f2c741746cd60b24f13a1ce13c361db32edd7ee8a8909b",
        "ad4c8caff38a4854fa166b99dd30d35384613936c1db973678995f51d7c66d83",
    ),
    "patch32-beta2-gamma2": (
        ["--kind", "patch32", "--seed", "1", "--distortion", "0.45"],
        ["--beta", "2", "--gamma", "2"],
        "a8ba7b2894304a57b8b8395f5ac1c32141bdb3410a0d300a38198cccf7638b5a",
        "90c3df4a5db18596237cf834bb546fb71e515fec0da72f973f3f8bd5a103e1fb",
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
REFLAG_SVG_MESH_SHA = "e6f51b371e73d5a6e8112980170312aae9d76e04facf0c8d9b83c8c11b1ca1a8"
REFLAG_SVG_CSV_SHA = "664d309423db4ee6329ac332390a46613e4af684778a7252eb1a67ccc13dfe91"
REFLAG_SVG_SNAPSHOT_SHA = {
    "loop0000.svg": "4e58b7c9f7903f87d4ce44d7c5f90854056021426c33c98e1e99a3147ed01e77",
    "loop0001.svg": "d632ee71957d772f165791beee9d80ac17c8d725b6c0a841596ec63801d556b2",
    "loop0002.svg": "f8275d9012feb506a2a8046ab0a6ba5faddde573c0134fa070aff1c28bcfc547",
    "loop0003.svg": "5da3f48e75299d901ef74707f2dce50a73f5778c265a8fe97637ed6db80145ec",
    "loop0004.svg": "d3cd7da9353cbb3b47bd454282a6f66bbf6fb625a644611b9c2bec1a16796150",
    "loop0005.svg": "2bda014e38477e170e8bb4eedab470dbbf0518ab11f73a3b26825a1ccef6d10a",
    "loop0006.svg": "3a4dd025d5ad5cd9dd1d9dba1cfd449ea92c2de2c937571229a1bdcfadb73465",
    "loop0007.svg": "a1dce8b6b1befdab949600ad2f9da2969a6622d860f423056367cc6e5dad14db",
    "loop0008.svg": "d08c7f86d84f36de0f2185bc3f49244b3fa32bf9eab4e2d6be705d3a75d0c10b",
    "loop0009.svg": "161c95e45b169e8da6f6d7b8d506a8a08955532894e0b323f010174db8577c00",
    "loop0010.svg": "e19a3ce219b2c15e3728d2d345af94cb37a4b320a42d7c456bbf9a1650a7b4d6",
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
RREF_MESH_SHA = "92c0d0587c282d5637050a7fed1ba71a9d36e5478bfc7e4a8de32c396670d9d3"
RREF_CSV_SHA = "e2030a3315bc04ad0b35ea5f7ed00cd2bc79a2d2ad57b0fd9ea3dcd47318491b"


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
    "round1.mesh": "cbe04285b3f83227a5ee0d82ecfbe97c675f37a62a791c608495a4f23241591a",
    "round2.svg": "0da832dbf7b97ce53bdf05c91331063fbb3da8852dca573015509fc1eb952459",
    "round2.mesh": "d66306b5af82c6cec1864faf708b413d8093e8d2d52882e264423473528f76b5",
    "round3.svg": "9e3b15586c46b979657e4da7e018962fb1ef5be3cf43a0d0078af32e3491da13",
    "round3.mesh": "ffe0664225414086a65a742af7a45208098addeca31f98aa80e153dfad1ed7ad",
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
