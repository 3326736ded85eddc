"""Golden bytes of ``osmot smooth``.

Each case generates a fixture, smooths it through the CLI and pins the
SHA-256 of the written mesh and of the per-loop report CSV. A refactor
must leave these bytes unchanged. A change that alters output bytes on
purpose updates the hashes here and says so in CHANGES.md.
"""

import hashlib

import pytest

from osmot.cli import main

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
