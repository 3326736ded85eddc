"""Golden bytes of ``osmot smooth``.

Each case generates a fixture, smooths it through the CLI and pins the
SHA-256 of the written mesh and of the per-loop report CSV. A refactor
must leave these bytes unchanged. A change that alters output bytes on
purpose updates the hashes here and says so in CHANGES.md.
"""

import hashlib

import pytest

from conftest import hexagon_fan, square_ring
from osmot.cli import main
from osmot.driver import SmootherConfig, smooth
from osmot.fixtures import FixtureKind, generate_fixture
from osmot.geometry import Point2
from osmot.mesh import Mobility, build_topology
from osmot.meshio import write_mesh
from osmot.svgout import ColorBy, render_svg

CASES = {
    "patch32-10-loops": (
        ["--kind", "patch32", "--seed", "1", "--distortion", "0.45"],
        ["--max-loops", "10"],
        "197c6cce7deb096dfbe7472a9d616564791be7ff1de0b7cdf7f4b7fc116ff575",
        "3cd04cc5803c64ed1e40ade9aa8d0d13e77f96a4b3a4d0330c8121f216ad7774",
    ),
    "indentedbox-movable-chain": (
        ["--kind", "indentedbox", "--distortion", "0.6"],
        [],
        "ed9d153b7f8e7f24e54e4a90cde23e29f0275b5e7f619b3746a7d455d917df6d",
        "f97e934dd2f49ac200fa86c45751fa1e8b28dcd49e75d3cb834fbe9076a2d704",
    ),
    "patch32-beta2-gamma2": (
        ["--kind", "patch32", "--seed", "1", "--distortion", "0.45"],
        ["--beta", "2", "--gamma", "2"],
        "4ca07080cad8e3bed3beb5de6280c2462212f5aef12a0dd92e1d6e49ec070c32",
        "1f19ebdab7aaa663bdc6629dff355116facae8366cb7b00b54c2b7a84f427e9b",
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
REFLAG_SVG_MESH_SHA = "e319e58a11c703abdb111c973bdb2bb6b9a193b4b356701cae46029bf3eed18b"
REFLAG_SVG_CSV_SHA = "f3c9e852de90fb99234b815a6b4e5642b9a43d9a5dd3d1a2fa0f588dce3dfbe9"
REFLAG_SVG_SNAPSHOT_SHA = {
    "loop0000.svg": "4e58b7c9f7903f87d4ce44d7c5f90854056021426c33c98e1e99a3147ed01e77",
    "loop0001.svg": "0605f5bde238eee0c1e3b3a5df4e37ae47b1a1a19c30092b5fc1a6ba6a8e5e91",
    "loop0002.svg": "f513144b3e46583a050949f5299a2b7160231e4f3febd4e050e2977d5b3645b4",
    "loop0003.svg": "9e8d703891895828a28df29ca27e796277c916f66b22bc60ddcfc04b0f9d1b12",
    "loop0004.svg": "431c1a934b407488bd9be9a1ead2abcca6e7580f10c2e0da29dfe27d7a044671",
    "loop0005.svg": "191aed2e546adc410721b4ba9a8f8defa7019350ea3e6865d7d5354046d21bbe",
    "loop0006.svg": "3879f1246b65d6292b1576e9ecde57293bab0df02e5f0de95c3023e9dfe79303",
    "loop0007.svg": "c6288e7944e0159126087f017d1ad0e97e2aa87aa4083fb1b7478e99662e8e58",
    "loop0008.svg": "ade7843c69378600c2d601d35146f84289283d97b9e1e532682e9352f22794bf",
    "loop0009.svg": "8f3d51bd12c02e6db21300cf32aabbf48bf86a4cff33f75d8533511da02b15ca",
    "loop0010.svg": "e37279b1a3269142a24089d01a2c1628b289f3daffcb7d0da9fda5788828f984",
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
    "round1.svg": "4706e87e1f212426e64bf98316b98d2339740e4c26a4b6248909c12aea060b8f",
    "round1.mesh": "8b5e57c17e73eba40273f2e0505207c8c3f44f514d957e66a29e80c5594c656c",
    "round2.svg": "07eb3a2e59f08083648871245e5fe7cb6f7f863fcdb6fc4138bd65ffb5ba42d9",
    "round2.mesh": "b3b7ce3d1364cce8bf62b857305cd029988e871cd372085d3f4a1b3685af2605",
    "round3.svg": "089cf3f5816360a14338f74b6fbfcabcd7e46883b1b56aa8efd902ef994ca360",
    "round3.mesh": "bbc1f5d6de352caefdfced04229950b9482aa5e0bc75727ab1e4ddf9a1eb86ff",
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


# The two closed chains of the tests, smoothed through the library with the
# default configuration: the hexagon's ring relocates (its cos and sin
# leave the ring distances a few ulps apart), the square ring is a fixpoint.
CLOSED_CHAINS = {
    "hexagon": (lambda: hexagon_fan(ring_mobility=Mobility.BOUNDARY),
                "c64f181a0ad3abc2581bacf18285c184bcba3cad4744b991ff3105f8388b04f9"),
    "square": (square_ring,
               "9690cf127747cafb2eefec25423639e52a3f31d7232b748830fcfbad48e72801"),
}


@pytest.mark.parametrize("name", list(CLOSED_CHAINS))
def test_closed_chain_bytes(tmp_path, name):
    columns, mesh_sha = CLOSED_CHAINS[name]
    mesh = build_topology(*columns())
    assert [chain.closed for chain in mesh.chains] == [True]
    smooth(mesh, SmootherConfig())
    out = tmp_path / "out.mesh"
    write_mesh(mesh, str(out))
    assert sha256(out) == mesh_sha
