import gc
from xml.etree import ElementTree

import pytest

from osmot.cli import _build_parser, main
from osmot.driver import SmootherConfig
from osmot.geometry import triangle_geometry
from osmot.meshio import read_mesh
from osmot.quality import q2_shape

from conftest import SLIVER_FAN_TEXT


def run(args):
    return main(args)


def test_gen_check_smooth_flow(tmp_path, capsys):
    mesh = tmp_path / "patch.mesh"
    out = tmp_path / "smoothed.mesh"
    csv = tmp_path / "report.csv"

    assert run(["gen", "--kind", "patch32", "--seed", "1",
                "--distortion", "0.45", "--output", str(mesh)]) == 0
    assert run(["check", "--input", str(mesh)]) == 0
    captured = capsys.readouterr()
    assert "minQ2" in captured.out

    assert run(["smooth", "--input", str(mesh), "--output", str(out),
                "--max-loops", "10", "--report", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "loop,minQ2,meanQ2,minQ1,flagged,inverted"
    assert len(lines) == 12  # header + initial state + 10 loops
    final_min_q2 = float(lines[-1].split(",")[1])
    assert final_min_q2 >= 0.80


@pytest.mark.parametrize("kind, seed, distortion, expected", [
    ("patch32", "1", "0.45", [0, 0, 1, 1, 2, 5, 3, 4, 10, 6]),
    ("indentedbox", "0", "0.9", [5, 6, 4, 2, 2, 4, 1, 9, 29, 2]),
])
def test_check_prints_q2_histogram(tmp_path, capsys, kind, seed, distortion,
                                   expected):
    # the histogram line counts each triangle's radius ratio in ten
    # uniform buckets over [0, 1], q2 = 1 in the last
    path = tmp_path / f"{kind}.mesh"
    assert run(["gen", "--kind", kind, "--seed", seed,
                "--distortion", distortion, "--output", str(path)]) == 0
    capsys.readouterr()
    assert run(["check", "--input", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("q2 histogram ")
    printed = [int(count) for count in lines[2].split()[2:]]

    mesh = read_mesh(str(path))
    counts = [0] * 10
    for tri in mesh.triangles:
        q2 = q2_shape(triangle_geometry(*mesh.triangle_points(tri)))
        counts[min(int(q2 * 10), 9)] += 1
    assert printed == counts == expected
    assert lines[0].endswith(f"triangles {sum(counts)} chains {len(mesh.chains)}")


def test_check_invalid_mesh_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.mesh"
    bad.write_text(
        "osmot-mesh v1\nnodes 3\n0 0 0 F\n1 1 0 F\n2 0 1 F\n"
        "triangles 1\n0 0 2 1\n")
    assert run(["check", "--input", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "triangle 0" in captured.err


def test_check_accepts_sliver_fan(tmp_path, capsys):
    # three sliver triangles of positive exact area around an internal node
    # whose ring winds once: a valid mesh
    path = tmp_path / "sliver.mesh"
    path.write_text(SLIVER_FAN_TEXT)
    assert run(["check", "--input", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("nodes 4 triangles 3 chains 0\n")


def test_truncated_file_names_the_line_after_the_last(tmp_path, capsys):
    # a file that ends early has no line at fault; the error names the
    # line where the missing one would start
    short = tmp_path / "short.mesh"
    short.write_text("osmot-mesh v1\nnodes 2\n0 0 0 F\n")
    assert run(["check", "--input", str(short)]) == 1
    err = capsys.readouterr().err
    assert "line 4: unexpected end of file, expected a node line" in err


def test_missing_file_exit_1(tmp_path):
    assert run(["check", "--input", str(tmp_path / "nope.mesh")]) == 1


def test_bad_arguments_exit_2(tmp_path, capsys):
    assert run(["smooth", "--input", "x"]) == 2  # missing --output
    assert run(["gen", "--kind", "nonsense", "--output", "x"]) == 2
    assert run(["smooth", "--input", "x", "--output", "y",
                "--smoother", "none"]) == 2
    # the gradient tolerance is a module constant, not an option
    assert run(["smooth", "--input", "x", "--output", "y",
                "--eps", "1e-6"]) == 2
    for option in ("--max-loops", "--svg-every"):
        for value in ("-1", "-2", "1.5", "x"):
            assert run(["smooth", "--input", "x", "--output", "y",
                        option, value, "--svg-dir", str(tmp_path)]) == 2
    assert "expected a non-negative integer, got '-2'" in capsys.readouterr().err
    # a snapshot directory with no K > 0 to write into it
    svg_dir = tmp_path / "svgs"
    for every in ([], ["--svg-every", "0"]):
        assert run(["smooth", "--input", "x", "--output", "y",
                    "--svg-dir", str(svg_dir), *every]) == 2
        err = capsys.readouterr().err
        assert "--svg-dir needs --svg-every K with K > 0" in err
    assert not svg_dir.exists()


def test_zero_loops_identity(tmp_path):
    mesh = tmp_path / "patch.mesh"
    out = tmp_path / "copy.mesh"
    csv = tmp_path / "report.csv"
    run(["gen", "--kind", "patch32", "--seed", "1", "--distortion", "0.45",
         "--output", str(mesh)])
    assert run(["smooth", "--input", str(mesh), "--output", str(out),
                "--max-loops", "0", "--report", str(csv)]) == 0
    assert out.read_bytes() == mesh.read_bytes()
    assert [line.split(",")[0] for line in csv.read_text().splitlines()] == [
        "loop", "0"]


def test_laplacian_smoother_runs(tmp_path):
    mesh = tmp_path / "patch.mesh"
    out = tmp_path / "lap.mesh"
    run(["gen", "--kind", "patch32", "--seed", "1", "--distortion", "0.45",
         "--output", str(mesh)])
    assert run(["smooth", "--input", str(mesh), "--output", str(out),
                "--smoother", "laplacian", "--max-loops", "10"]) == 0
    assert out.read_bytes() != mesh.read_bytes()


def test_smooth_warns_when_its_output_will_not_load(tmp_path, capsys):
    # one Laplacian loop on the horseshoe inverts two triangles: the run
    # still exits 0 with its summary, and names the count on stderr
    mesh = tmp_path / "horseshoe.mesh"
    out = tmp_path / "laplacian.mesh"
    run(["gen", "--kind", "horseshoe", "--output", str(mesh)])
    capsys.readouterr()
    assert run(["smooth", "--input", str(mesh), "--output", str(out),
                "--smoother", "laplacian", "--max-loops", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("loops 1 relocations ")
    assert captured.err.splitlines() == [
        f"warning: {out} has 2 inverted elements; "
        "read_mesh and osmot check will refuse it"]
    assert run(["check", "--input", str(out)]) == 1
    assert "non-positive signed area" in capsys.readouterr().err
    # a run that leaves no inverted element prints no warning
    assert run(["smooth", "--input", str(mesh), "--output", str(out),
                "--max-loops", "1"]) == 0
    assert capsys.readouterr().err == ""


def test_svg_snapshots(tmp_path):
    mesh = tmp_path / "patch.mesh"
    out = tmp_path / "out.mesh"
    svg_dir = tmp_path / "svgs"
    run(["gen", "--kind", "patch32", "--seed", "1", "--distortion", "0.45",
         "--output", str(mesh)])
    assert run(["smooth", "--input", str(mesh), "--output", str(out),
                "--max-loops", "4", "--no-early-exit",
                "--svg-every", "2", "--svg-dir", str(svg_dir)]) == 0
    names = sorted(p.name for p in svg_dir.iterdir())
    assert names == ["loop0000.svg", "loop0002.svg", "loop0004.svg"]


def test_empty_mesh_svg_snapshot(tmp_path):
    mesh = tmp_path / "empty.mesh"
    out = tmp_path / "out.mesh"
    svg_dir = tmp_path / "svgs"
    mesh.write_text("osmot-mesh v1\nnodes 0\ntriangles 0\n")
    assert run(["smooth", "--input", str(mesh), "--output", str(out),
                "--svg-every", "1", "--svg-dir", str(svg_dir)]) == 0
    assert out.read_text() == mesh.read_text()
    snapshot = ElementTree.parse(svg_dir / "loop0000.svg").getroot()
    assert snapshot.tag == "{http://www.w3.org/2000/svg}svg"
    assert snapshot.get("viewBox") == "-0.05 -1.05 1.1 1.1"
    assert len(snapshot) == 0

def test_custom_tolerances_accepted(tmp_path):
    mesh = tmp_path / "patch.mesh"
    out = tmp_path / "out.mesh"
    run(["gen", "--kind", "patch32", "--seed", "2", "--distortion", "0.3",
         "--output", str(mesh)])
    assert run(["smooth", "--input", str(mesh), "--output", str(out),
                "--qmin", "0.7", "--rref", "0.5",
                "--reflag"]) == 0


def test_gen_all_kinds(tmp_path):
    for kind in ["patch32", "graded", "horseshoe", "indentedbox"]:
        out = tmp_path / f"{kind}.mesh"
        assert run(["gen", "--kind", kind, "--distortion", "0.5",
                    "--output", str(out)]) == 0
        assert out.exists()


def test_rref_reaches_the_report(tmp_path):
    mesh = tmp_path / "patch.mesh"
    run(["gen", "--kind", "patch32", "--seed", "1", "--distortion", "0.45",
         "--output", str(mesh)])
    min_q1 = {}
    for rref in ("1", "2"):
        csv = tmp_path / f"rref{rref}.csv"
        assert run(["smooth", "--input", str(mesh),
                    "--output", str(tmp_path / "out.mesh"), "--max-loops", "0",
                    "--rref", rref, "--report", str(csv)]) == 0
        min_q1[rref] = float(csv.read_text().splitlines()[1].split(",")[3])
    assert min_q1["2"] == pytest.approx(2.0 * min_q1["1"], rel=1e-11)


@pytest.mark.parametrize("flag", ["--beta", "--gamma", "--rref"])
def test_non_finite_objective_parameter_exit_1(tmp_path, capsys, flag):
    mesh = tmp_path / "patch.mesh"
    out = tmp_path / "out.mesh"
    run(["gen", "--kind", "patch32", "--seed", "1", "--distortion", "0.45",
         "--output", str(mesh)])
    assert run(["smooth", "--input", str(mesh), "--output", str(out),
                flag, "inf"]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [["--beta", "200", "--rref", "0.001"],
                                  ["--gamma", "400"],
                                  ["--gamma", "40", "--rref", "1e-300"]],
                         ids=["beta-rref", "gamma", "product"])
def test_objective_overflow_exit_1(tmp_path, capsys, args):
    # finite exponents whose w overflows a float at the starting positions
    # (one power, or the product of two finite powers): one error line,
    # exit 1
    mesh = tmp_path / "patch.mesh"
    out = tmp_path / "out.mesh"
    run(["gen", "--kind", "patch32", "--seed", "1", "--distortion", "0.45",
         "--output", str(mesh)])
    capsys.readouterr()
    assert run(["smooth", "--input", str(mesh), "--output", str(out)]
               + args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: element objective overflows")
    assert err.count("\n") == 1
    assert not out.exists()


def test_overflowing_trial_is_rejected(tmp_path):
    # w is finite at the start, but powers overflow at trial points near
    # the barrier: those trials are rejected and the run goes on
    mesh = tmp_path / "patch.mesh"
    csv = tmp_path / "report.csv"
    run(["gen", "--kind", "patch32", "--seed", "1", "--distortion", "0.45",
         "--output", str(mesh)])
    assert run(["smooth", "--input", str(mesh),
                "--output", str(tmp_path / "out.mesh"), "--gamma", "24",
                "--report", str(csv)]) == 0
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    assert float(rows[-1][1]) >= float(rows[0][1])
    assert rows[-1][5] == "0"


def test_smooth_defaults_come_from_smoother_config():
    args = _build_parser().parse_args(
        ["smooth", "--input", "in.mesh", "--output", "out.mesh"])
    cfg = SmootherConfig()
    assert (args.max_loops, args.qmin, args.beta, args.gamma, args.rref,
            args.smoother) == (
        cfg.i_max, cfg.quality.q_min, cfg.objective.beta, cfg.objective.gamma,
        cfg.objective.r_ref, cfg.smoother_kind.value)


@pytest.mark.parametrize("command", ["check", "smooth"])
def test_repeated_main_leaves_no_cyclic_garbage(tmp_path, command):
    # the parser is built once per process: a parser built per call is a
    # web of reference cycles that only the cyclic collector frees
    mesh = tmp_path / "patch.mesh"
    argv = [command, "--input", str(mesh)]
    if command == "smooth":
        argv += ["--output", str(tmp_path / "out.mesh"), "--max-loops", "1"]
    assert run(["gen", "--kind", "patch32", "--output", str(mesh)]) == 0
    assert run(argv) == 0
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert run(argv) == 0
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
