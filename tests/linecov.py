"""List the library lines that no in-process test reaches.

Run from anywhere as ``python tests/linecov.py [pytest arguments]``; with no
arguments it runs the whole suite.  A line tracer is installed before pytest
imports the package, so module-level lines count.  The executable lines of
each module under ``src/hallkernel`` are read off its code objects
(``co_lines``, recursively), and every one that neither a test reached nor
:data:`ALLOWED` covers is printed as ``file:line: source``.  The script exits
1 when it printed one, else with pytest's own exit code.

Tracing costs about four times the suite's untraced time, so this is a script
to run by hand after a change under ``src/``, not a test.  Pytest collects no
file without the ``test_`` prefix.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hallkernel"

#: ``(file, snippet, reason)``: the lines of the snippet, which occurs exactly
#: once in the file under :data:`PACKAGE`, may go unreached.  Each is run only
#: by a test that starts a child process, which the tracer does not follow.
ALLOWED = (
    ("cli.py",
     "    except BrokenPipeError:  # the reader left early, as ``| head`` does\n"
     "        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())\n"
     "        return 141\n",
     "a reader that closes the pipe mid-output: test_closed_pipe_exits_141_quietly"),
    ("__main__.py",
     "from .cli import main\n\nif __name__ == \"__main__\":\n    raise SystemExit(main())\n",
     "runs only as ``python -m hallkernel``, in the CLI's subprocess tests"),
)


def executable_lines(path: Path) -> set[int]:
    """The line numbers that some instruction of the module's code sits on."""
    lines = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def allowed_lines(name: str, text: str) -> set[int]:
    """The lines of ``name``'s source ``text`` that :data:`ALLOWED` covers."""
    lines = set()
    for file, snippet, _ in ALLOWED:
        if file == name and snippet in text:
            first = text[:text.index(snippet)].count("\n") + 1
            lines.update(range(first, first + snippet.count("\n")))
    return lines


def main(argv: list[str]) -> int:
    reached: dict[str, set[int]] = {}
    tracers = {}  # co_filename -> its module's line tracer, None outside the package

    def tracer_for(filename):
        path = Path(filename).resolve()
        if path.parent != PACKAGE:
            return None
        lines = reached.setdefault(path.name, set())

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            tracers[filename] = tracer_for(filename)
        local = tracers[filename]
        return local and local(frame, event, arg)

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    import pytest

    try:
        code = pytest.main(argv or ["-q", "--continue-on-collection-errors",
                                    str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    printed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        executable = executable_lines(path)
        total += len(executable)
        missed = executable - reached.get(path.name, set()) - allowed_lines(path.name, text)
        for line in sorted(missed):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            printed += 1
    print(f"{total} executable lines in {PACKAGE.relative_to(ROOT)}, "
          f"{printed} unreached outside the allowlist")
    return 1 if printed else int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
