"""Every benchmark file, document, ``repro.*`` name, Sphinx
cross-reference and ``python -m repro.X`` command the docs, CI and
docstrings name must exist.

A deleted benchmark leaves its name behind in CI steps, README
paragraphs and docstrings; CI finds a stale step only when it runs it,
and prose never fails at all.  The same goes for a docstring sending the
reader to a design note that was never written, to a function that was
deleted, or to a module entry point that no longer runs.  These tests
fail on the first such reference instead.
"""

import argparse
import builtins
import importlib
import importlib.util
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
#: A dotted name in the package, e.g. ``repro.service.OnlineMatcher``;
#: ``src/repro/cli.py`` and ``paper-repro.x`` are not names.
_DOTTED_NAME = re.compile(r"(?<![\w./-])repro(?:\.\w+)+")
#: A module run as a script, e.g. ``python -m repro.cli``.
_MODULE_COMMAND = re.compile(r"python3? -m (repro(?:\.\w+)*)")
#: A ``repro`` command line, console script or ``python -m repro.cli``,
#: and its subcommand; ``repro join/match/serve`` names three.
_REPRO_COMMAND = re.compile(
    r"(?:python3? -m repro\.cli|(?<![\w./-])repro)\s+(\w+(?:/\w+)*)"
)
#: A long option, e.g. ``--spill-threshold``.
_FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")
#: A Sphinx cross-reference, e.g. :func:`~repro.graph.edge_key`; the
#: target may wrap across lines or sit in a ``title <target>`` form.
_ROLE = re.compile(r":(?:func|class|data|exc|mod):`([^`]+)`")
#: Marks a name ``getattr`` did not find; ``None`` is a valid value
#: (a dataclass field defaulting to ``None`` is a class attribute).
_MISSING = object()


def _citing_files():
    """The prose and code that cite package names: the two top-level
    documents, the examples and every source module."""
    return [
        ROOT / "README.md",
        ROOT / "DESIGN.md",
        *sorted((ROOT / "examples").glob("*.py")),
        *sorted((ROOT / "src").rglob("*.py")),
    ]


def _has_path(target, attrs):
    """``getattr`` each of ``attrs`` in turn, starting at ``target``."""
    for attr in attrs:
        target = getattr(target, attr, _MISSING)
        if target is _MISSING:
            return False
    return True


def _resolves(name):
    """Import the longest importable module prefix of ``name``, then
    ``getattr`` the rest of it."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        return _has_path(target, parts[cut:])
    return False


def _role_resolves(target, module):
    """Resolve a role's target the way Sphinx reads it from ``module``:
    ``repro.*`` by import, anything else in the module's namespace or
    among the builtins."""
    if target.startswith("repro."):
        return _resolves(target)
    head, *rest = target.split(".")
    namespace = {**vars(builtins), **vars(module)}
    return head in namespace and _has_path(namespace[head], rest)


def _module_name(path):
    """``src/repro/graph/io.py`` -> ``repro.graph.io``."""
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _runs_as_script(module):
    """``python -m module`` runs: a package with a ``__main__`` module,
    or a module with a ``__name__ == "__main__"`` block."""
    try:
        spec = importlib.util.find_spec(module)
    except ImportError:
        return False
    if spec is None:
        return False
    if spec.submodule_search_locations is not None:
        return _runs_as_script(f"{module}.__main__")
    source = Path(spec.origin).read_text()
    return re.search(r"__name__ == [\"']__main__[\"']", source) is not None


def _command_flags(text):
    """``(subcommands, flags)`` for every ``repro`` command in ``text``.

    A command runs to the end of its line, across backslash
    continuations.  One that opens inside inline code (an odd number of
    backticks before it on its line) runs to the closing backtick
    instead, across line breaks.
    """
    for match in _REPRO_COMMAND.finditer(text):
        line_start = text.rfind("\n", 0, match.start()) + 1
        rest = text[match.end():]
        if text.count("`", line_start, match.start()) % 2:
            rest = rest.split("`", 1)[0]
        else:
            rest = re.split(r"(?<!\\)\n", rest, maxsplit=1)[0]
        yield match.group(1).split("/"), _FLAG.findall(rest)


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


def test_cited_repro_commands_use_existing_options():
    """Every ``--flag`` on a ``repro <subcommand>`` line of the README
    or CI is an option of that subcommand's parser, so a deleted option
    leaves no example behind that would fail when pasted."""
    from repro.cli import build_parser

    (subparsers,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        name: set(parser._option_string_actions)
        for name, parser in subparsers.choices.items()
    }
    stale = []
    checked = set()
    for path in (ROOT / "README.md", ROOT / ".github/workflows/ci.yml"):
        for commands, flags in _command_flags(path.read_text()):
            for command in commands:
                if command not in options:
                    continue  # prose: "the repro package"
                for flag in flags:
                    checked.add((command, flag))
                    if flag not in options[command]:
                        stale.append(f"{path.name}: repro {command} {flag}")
    # This only keeps the check from passing on a regex matching nothing.
    assert ("chaos", "--frame-drop-rate") in checked
    assert stale == []


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


def test_cited_package_names_resolve():
    """Every dotted ``repro.*`` name cited resolves by import plus
    ``getattr``, so a deleted or moved function leaves no reference
    behind in a docstring, the README or an example."""
    cited = {}
    for path in _citing_files():
        for name in _DOTTED_NAME.findall(path.read_text()):
            cited.setdefault(name, str(path.relative_to(ROOT)))
    # This only keeps the check from passing on a regex matching nothing.
    assert "repro.telemetry.loadgen.zipf_events" in cited
    stale = {name: where for name, where in cited.items() if not _resolves(name)}
    assert stale == {}


def test_source_docstring_roles_resolve():
    """Every :func:, :class:, :data:, :exc: and :mod: role in a source
    module names something that exists, bare names included: the
    dotted-name check above sees only ``repro.*`` targets."""
    stale = {}
    checked = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        module = importlib.import_module(_module_name(path))
        for text in _ROLE.findall(path.read_text()):
            titled = re.search(r"<([^>]+)>", text)
            target = re.sub(r"\s+", "", titled.group(1) if titled else text)
            checked += 1
            if not _role_resolves(target.lstrip("~"), module):
                stale.setdefault(str(path.relative_to(ROOT)), []).append(text)
    # This only keeps the check from passing on a regex matching nothing.
    assert checked > 200
    assert stale == {}


def test_cited_module_commands_run_as_scripts():
    """Every ``python -m repro.X`` cited names a module that runs as a
    script."""
    files = _citing_files() + [ROOT / ".github" / "workflows" / "ci.yml"]
    cited = {}
    for path in files:
        for module in _MODULE_COMMAND.findall(path.read_text()):
            cited.setdefault(module, str(path.relative_to(ROOT)))
    assert "repro.cli" in cited
    stale = {
        module: where
        for module, where in cited.items()
        if not _runs_as_script(module)
    }
    assert stale == {}
