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
        "822dad6c5e88a9f9d2d36363e0655e4bfeae9606e439d31f7b501cd59e254b24",
        "ec2c7f102a9ebf2e86d8130704586457c8e2918b89bcf0e9d27f9f04fea7fa7f",
    ),
    "indentedbox-movable-chain": (
        ["--kind", "indentedbox", "--distortion", "0.6"],
        [],
        "ed4d9d9eccc2b671a7c68d8b86c7be90970d12e3d8c5d664d1a4e6d9e4f10643",
        "b4d39562597681e5be61c3533c46ddae33255d20d55e475be46fc76c9366e700",
    ),
    "patch32-beta2-gamma2": (
        ["--kind", "patch32", "--seed", "1", "--distortion", "0.45"],
        ["--beta", "2", "--gamma", "2"],
        "f1897215ae19db0302dea58e90492a75fe369393e229f84f289379acc5bdaf9b",
        "29a398ef3bfb9b9200301dc5a2177c50c89d5b716217f740439f02fdd0255c44",
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
REFLAG_SVG_MESH_SHA = "8b09829d8a796617229bbc169dc01592c86b84eed237a357a71395b6a67d491a"
REFLAG_SVG_CSV_SHA = "e72509745489b08e4bf2c87f23af200e34ef51e73543a3be9735dcb190de6ea0"
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
RREF_MESH_SHA = "3514e52f5c52920468b668a0336a6e74ecc1c75e6e6a43c881eda0de26093056"
RREF_CSV_SHA = "37a678265dc09a5d12d4ef10c84f839b3260cc99141fd5f5d6d2770e58ca99d2"


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
    "round1.mesh": "8c94b5aef18b7003a3fbea2b88dc59ff8d608c256460115356bee02c274116c1",
    "round2.svg": "0da832dbf7b97ce53bdf05c91331063fbb3da8852dca573015509fc1eb952459",
    "round2.mesh": "3ef52fc3615e81861b42c284915569bab491047fcef1050b4358f1a88ea87a8e",
    "round3.svg": "e27756179afae803a8e35df8569007ea2ddb11e57951a0e1c2b1301656319e89",
    "round3.mesh": "2c5a0f54771901b2eb96a2475e3a3139568350cad7e1edc7282fa4fe780619f6",
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
