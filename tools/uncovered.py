"""Lines of ``src/gpumux`` that the tier-1 tests never execute.

    python tools/uncovered.py [pytest arguments]

Runs the tier-1 suite (``pytest -q`` over the ``testpaths`` of
``pyproject.toml``, plus any arguments given) in this process under a
``sys.settrace`` line tracer, then prints each executable line of
``src/gpumux`` that no test reached, as ``path:line: source``, and a count
per module. Standard library only: it needs no ``coverage`` package.

A forked child, such as the one that runs the overlapped runs of a paired
sweep, inherits the tracer, and its lines count too: while the suite runs,
``os._exit`` is wrapped so that any process other than this one first
writes the lines it has seen (``marshal``) into a directory made before
pytest starts, and they are merged afterwards. A child killed by a signal,
before or while it writes, adds nothing, so a line that only such a child
runs is listed. Tracing slows the suite several times over.
"""

from __future__ import annotations

import marshal
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gpumux"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that carry bytecode, in the module and every
    function and class body it defines."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``args`` under the tracer; its exit code and the
    lines executed per file of the package, in this process and in every
    child that leaves through ``os._exit``."""
    import pytest

    prefix = str(PACKAGE) + "/"
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        seen.setdefault(filename, set()).add(frame.f_lineno)
        return local

    if any(name == "gpumux" or name.startswith("gpumux.") for name in sys.modules):
        raise SystemExit("gpumux is already imported: its module-level lines would be missed")
    tool, real_exit = os.getpid(), os._exit
    # a path fixed now: the tests point tempfile at directories of their own
    children = tempfile.mkdtemp(prefix="uncovered-")

    def exit_with_lines(status):
        if os.getpid() != tool:
            # renamed once whole: a child killed while it writes leaves a .part
            path = os.path.join(children, str(os.getpid()))
            with open(path + ".part", "wb") as f:
                marshal.dump(seen, f)
            os.replace(path + ".part", path)
        real_exit(status)

    try:
        os._exit = exit_with_lines
        sys.settrace(call)
        try:
            code = pytest.main(["-q", "-p", "no:cacheprovider", f"--rootdir={ROOT}", *args])
        finally:
            sys.settrace(None)
            os._exit = real_exit
        for name in os.listdir(children):
            if name.endswith(".part"):
                continue
            with open(os.path.join(children, name), "rb") as f:
                for filename, lines in marshal.load(f).items():
                    seen.setdefault(filename, set()).update(lines)
    finally:
        shutil.rmtree(children)
    return int(code), seen


def main(argv: list[str]) -> int:
    code, seen = traced_run(argv)
    total = 0
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        missed = sorted(executable_lines(path) - seen.get(str(path), set()))
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
        counts.append(f"{path.name} {len(missed)}")
        total += len(missed)
    print(f"{total} unexecuted lines ({', '.join(counts)}); pytest exit code {code}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
