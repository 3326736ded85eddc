import hashlib
import math

import pytest

from osmot.fixtures import (
    FixtureKind,
    freeze_boundary,
    generate_fixture,
    graded_zone_ids,
    patch32_lattice_positions,
)
from osmot.geometry import signed_area, triangle_geometry
from osmot.mesh import Mobility, flag_nodes
from osmot.meshio import mesh_to_text
from osmot.quality import QualityConfig, q2_shape
from osmot.report import quality_report

# pinned canonical serializations: fixture generation is deterministic
REGRESSION_HASHES = {
    (FixtureKind.PATCH32, 1, 0.45):
        "f8a49b4e248b45d7a866d8e874df2875abb8fc49f439a69ea771c23ba02bd55a",
    (FixtureKind.PATCH32, 0, 0.0):
        "ee5f5c05d280e265c8d2041a02128c509d6d5360eb7501bcfe943fd85257c3dd",
    (FixtureKind.GRADED_INTERFACE, 0, 0.0):
        "feb6a1fd97e09ec09f745c8eb310b7edbe7c12d00cd24cb86ea5eab1422cfad9",
    (FixtureKind.HORSESHOE, 0, 0.0):
        "3cddfe0fad92cc5750b1ac16e7a9ffcb532bd22b1298bced14c9e3d041dd3933",
    (FixtureKind.INDENTED_BOX, 0, 0.6):
        "146ed105da2453eaff721d059a1a5daa997ed4a810740ec8d506774e75fd05c1",
}


@pytest.mark.parametrize("key", sorted(REGRESSION_HASHES, key=str))
def test_regression_hashes(key):
    kind, seed, distortion = key
    mesh = generate_fixture(kind, seed, distortion)
    digest = hashlib.sha256(mesh_to_text(mesh).encode()).hexdigest()
    assert digest == REGRESSION_HASHES[key]


def test_patch32_flat_is_uniformly_optimal():
    mesh = generate_fixture(FixtureKind.PATCH32)
    assert len(mesh.triangles) == 32
    q2s = [
        q2_shape(triangle_geometry(*mesh.triangle_points(t)))
        for t in mesh.triangles
    ]
    for q2 in q2s:
        assert q2 == pytest.approx(0.8284271247461901, rel=1e-12)
    assert flag_nodes(mesh, QualityConfig(q_min=0.6)) == set()


def test_patch32_distorted_flags_something():
    mesh = generate_fixture(FixtureKind.PATCH32, seed=1, distortion=0.45)
    rep = quality_report(mesh, QualityConfig(), 1.0, 0)
    assert rep.min_q2 == pytest.approx(0.21219014856401022, rel=1e-12)
    assert rep.min_q2 < 0.6
    assert rep.inverted_elements == 0
    # displacement magnitude is exactly distortion * pitch
    for nid, lattice in patch32_lattice_positions().items():
        p = mesh.position(nid)
        d = math.hypot(p.x - lattice.x, p.y - lattice.y)
        assert d == pytest.approx(0.45 * 0.25, rel=1e-12)


def test_patch32_distortion_zero_is_lattice():
    mesh = generate_fixture(FixtureKind.PATCH32, seed=5, distortion=0.0)
    for nid, lattice in patch32_lattice_positions().items():
        assert mesh.position(nid) == lattice


def test_patch32_different_seeds_differ():
    a = mesh_to_text(generate_fixture(FixtureKind.PATCH32, 1, 0.3))
    b = mesh_to_text(generate_fixture(FixtureKind.PATCH32, 2, 0.3))
    assert a != b


def test_graded_zones_and_flagging():
    mesh = generate_fixture(FixtureKind.GRADED_INTERFACE)
    fine, coarse = graded_zone_ids(mesh)
    assert len(fine) == 32
    assert len(coarse) == 16
    assert len(mesh.triangles) - len(fine) - len(coarse) == 6
    # structured zones are uniform; only strip elements fall below 0.6
    flagged_tris = [
        t.id for t in mesh.triangles
        if q2_shape(triangle_geometry(*mesh.triangle_points(t))) < 0.6
    ]
    assert flagged_tris
    assert all(t not in fine and t not in coarse for t in flagged_tris)
    # the movable flagged set is the internal interface nodes
    movable = {
        n for n in flag_nodes(mesh, QualityConfig())
        if mesh.nodes[n].mobility is Mobility.INTERNAL
    }
    assert movable
    for nid in movable:
        assert mesh.position(nid).x in (1.0, 1.75)


def test_graded_zone_mean_areas():
    mesh = generate_fixture(FixtureKind.GRADED_INTERFACE)
    fine, coarse = graded_zone_ids(mesh)

    def mean_area(ids):
        return sum(
            signed_area(*mesh.triangle_points(mesh.triangles[t])) for t in ids
        ) / len(ids)

    assert mean_area(fine) == pytest.approx(0.25 ** 2 / 2.0)
    assert mean_area(coarse) == pytest.approx(0.5 ** 2 / 2.0)


def test_horseshoe_centroid_outside_kernel():
    mesh = generate_fixture(FixtureKind.HORSESHOE)
    assert len(mesh.balls) == 1
    ball = mesh.balls[0]
    ring = sorted({n for _tid, n1, n2 in ball.elements for n in (n1, n2)})
    cx = sum(mesh.position(n).x for n in ring) / len(ring)
    cy = sum(mesh.position(n).y for n in ring) / len(ring)
    # placing the vertex at the ring centroid inverts at least one element
    mesh.set_position(0, type(mesh.position(0))(cx, cy))
    assert any(
        signed_area(*mesh.triangle_points(t)) <= 0.0 for t in mesh.triangles)


def test_indented_box_structure():
    mesh = generate_fixture(FixtureKind.INDENTED_BOX, distortion=0.6)
    assert len(mesh.chains) == 1
    assert not mesh.chains[0].closed
    movable = [n for n in mesh.nodes if n.mobility is Mobility.BOUNDARY]
    assert len(movable) == 7
    # valid (positively oriented) despite the deep notch
    assert all(
        signed_area(*mesh.triangle_points(t)) > 0.0 for t in mesh.triangles)
    rep = quality_report(mesh, QualityConfig(), 1.0, 0)
    assert rep.min_q2 < 0.6


def test_indented_box_zero_distortion_is_flat():
    mesh = generate_fixture(FixtureKind.INDENTED_BOX, distortion=0.0)
    rep = quality_report(mesh, QualityConfig(), 1.0, 0)
    assert rep.min_q2 == pytest.approx(0.8284271247461901, rel=1e-12)


def test_freeze_boundary():
    mesh = freeze_boundary(generate_fixture(FixtureKind.INDENTED_BOX,
                                            distortion=0.6))
    assert all(n.mobility is not Mobility.BOUNDARY for n in mesh.nodes)
    assert mesh.chains == []


def test_distortion_range_validated():
    with pytest.raises(ValueError):
        generate_fixture(FixtureKind.PATCH32, 0, 1.0)
