import math

import pytest

from osmot.fixtures import FixtureKind, generate_fixture
from osmot.meshio import parse_mesh_text
from osmot.svgout import ColorBy, _fill, mesh_to_svg, render_svg

SINGLE = """\
osmot-mesh v1
nodes 3
0 0 0 F
1 1 0 F
2 0 1 F
triangles 1
0 0 1 2
"""


def test_single_triangle_single_polygon():
    svg = mesh_to_svg(parse_mesh_text(SINGLE))
    assert svg.count("<polygon") == 1


def test_patch_polygon_count_and_viewbox():
    mesh = generate_fixture(FixtureKind.PATCH32)
    svg = mesh_to_svg(mesh)
    assert svg.count("<polygon") == 32
    # unit square plus 5% margin, with the y axis flipped
    assert 'viewBox="-0.05 -1.05 1.1 1.1"' in svg


def test_color_none_gives_white_fills():
    svg = mesh_to_svg(parse_mesh_text(SINGLE), ColorBy.NONE)
    assert 'fill="white"' in svg
    assert "rgb(" not in svg


def test_q2_color_scale():
    svg = mesh_to_svg(parse_mesh_text(SINGLE), ColorBy.Q2)
    assert 'fill="rgb(' in svg


def unmemoised_fill(q2):
    q2 = min(max(q2, 0.0), 1.0)
    red = round(255 * (1.0 - q2))
    green = round(255 * q2)
    return f"rgb({red},{green},0)"


# a dense sweep, the half-way ties of both channels, their neighbouring
# floats, and values outside [0, 1]
SWEEP = [k / 100_000 for k in range(100_001)]
TIES = [(k + 0.5) / 255 for k in range(-2, 257)]
NEAR_TIES = [math.nextafter(q2, d) for q2 in TIES for d in (-math.inf, math.inf)]
OUTSIDE = [-math.inf, -1e300, -1.0, -0.0, -5e-324, 1.0 + 2**-52, 2.0, 1e300, math.inf]


@pytest.mark.parametrize("values", [SWEEP, TIES, NEAR_TIES, OUTSIDE],
                         ids=["sweep", "ties", "near-ties", "outside"])
def test_memoised_fill_matches_the_formula(values):
    for q2 in values:
        assert _fill(q2) == unmemoised_fill(q2), q2
    # a second call reads the kept string
    assert [_fill(q2) for q2 in values] == list(map(unmemoised_fill, values))


def test_determinism(tmp_path):
    mesh = generate_fixture(FixtureKind.PATCH32, seed=1, distortion=0.45)
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    render_svg(mesh, str(a))
    render_svg(mesh, str(b))
    assert a.read_bytes() == b.read_bytes()
