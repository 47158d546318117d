"""Collects acceptance-criterion outcomes and prints one line per criterion."""

from contextlib import contextmanager
import importlib.util
from pathlib import Path

RESULTS = {}
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    """Import scripts/<name>.py as a module without running its main()."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextmanager
def criterion(number, description):
    """Record pass/fail for an acceptance criterion around a test body."""
    try:
        yield
    except BaseException:
        RESULTS[number] = (description, False)
        raise
    RESULTS[number] = (description, True)


def pytest_terminal_summary(terminalreporter):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(RESULTS):
        description, ok = RESULTS[number]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {status} - {description}")
