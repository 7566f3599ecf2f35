"""Every benchmark file and document the docs, CI and docstrings name
must exist.

A deleted benchmark leaves its name behind in CI steps, README
paragraphs and docstrings; CI finds a stale step only when it runs it,
and prose never fails at all.  The same goes for a docstring sending the
reader to a design note that was never written.  These tests fail on the
first such reference instead.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: A path under ``benchmarks/``; a trailing dot or comma is prose.
_BENCH_PATH = re.compile(r"benchmarks/[\w./*-]*[\w/*]")
#: A benchmark script or result file cited without its directory.
_BENCH_NAME = re.compile(r"\b(?:bench|BENCH)_[\w*]+\.(?:py|json)\b")
#: A Markdown document cited by name, e.g. ``DESIGN.md``.
_DOC_NAME = re.compile(r"\b[\w./-]+\.md\b")
#: A CI step running a benchmark script.
_CI_COMMAND = re.compile(r"python3? benchmarks/\S+\.py")


def _exists(path):
    if "*" in path:
        return any(ROOT.glob(path))
    return (ROOT / path).exists()


def _missing(text):
    cited = {match.group(0) for match in _BENCH_PATH.finditer(text)}
    cited |= {
        f"benchmarks/{match.group(0)}"
        for match in _BENCH_NAME.finditer(text)
    }
    return sorted(path for path in cited if not _exists(path))


def test_ci_benchmark_commands_name_existing_scripts():
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    # Every command's script is a cited path; this only keeps the
    # check from passing on a CI file that names none.
    assert _CI_COMMAND.search(ci), "no benchmark command found in ci.yml"
    assert _missing(ci) == []


def test_readme_cites_existing_benchmark_files():
    assert _missing((ROOT / "README.md").read_text()) == []


def test_source_docstrings_cite_existing_benchmark_files():
    stale = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        missing = _missing(path.read_text())
        if missing:
            stale[str(path.relative_to(ROOT))] = missing
    assert stale == {}


def test_traced_pass_wrap_points_are_defined_on_their_owners(monkeypatch):
    """The traced benchmark pass wraps each point through
    ``owner.__dict__[attr]``, so a refactor that deletes a wrapped name
    or leaves it inherited breaks ``run.py --trace`` alone.  Importing
    ``layers`` wraps nothing; ``layers.install`` is never called here,
    since its wraps would last for the whole test process."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks" / "e2e"))
    import layers
    from repro.service.matcher import OnlineMatcher

    points = [(owner, attr) for owner, attr, _, _ in layers.WRAPS]
    points.append((OnlineMatcher, "flush"))
    unwrappable = [
        f"{owner.__name__}.{attr}"
        for owner, attr in points
        if not callable(vars(owner).get(attr))
    ]
    assert unwrappable == []


def test_source_docstrings_cite_existing_documents():
    stale = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        missing = sorted(
            {
                name
                for name in _DOC_NAME.findall(path.read_text())
                if not (ROOT / name).exists()
            }
        )
        if missing:
            stale[str(path.relative_to(ROOT))] = missing
    assert stale == {}
