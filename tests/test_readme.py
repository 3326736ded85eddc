import pathlib

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_snippet_runs(capsys):
    # the first python block after the "## Library" heading, run as written
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    start = section.index("```python\n") + len("```python\n")
    code = section[start:section.index("```", start)]
    exec(compile(code, str(README), "exec"), {})
    min_q2, histogram = capsys.readouterr().out.splitlines()
    assert float(min_q2) >= 0.80
    assert histogram.startswith("[") and len(histogram.split(",")) == 10
