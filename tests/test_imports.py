"""The package namespace loads submodules on first use, and a command line
run imports only the modules its command calls.

The import checks run in a fresh interpreter each, because this test
process has already imported every module.
"""

import os
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest

import tablezeta

SRC = str(pathlib.Path(tablezeta.__file__).parents[1])
README = pathlib.Path(__file__).parents[1] / "README.md"

# what parsing the arguments and loading an algebra need
SOURCE_MODULES = {"tablezeta", *(f"tablezeta.{m}" for m in ("cli", "errors", "families", "algebra", "exact", "algfile"))}
COMPUTING_MODULES = {
    f"tablezeta.{m}" for m in ("genus", "ideals", "modp", "pipeline", "decomposition", "dirichlet", "polys", "ppoly")
}

C2_FILE = '{"rank": 2, "names": ["1", "g"], "involution": [0, 1], "lambda": [[[1,0],[0,1]],[[0,1],[1,0]]]}'


def _fresh(code, *args):
    "Run code in a new interpreter that finds this checkout's tablezeta; return its stdout."
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_and_source_resolution_load_no_computing_module(tmp_path):
    path = tmp_path / "c2.json"
    path.write_text(C2_FILE)
    code = """
        import contextlib, io, sys

        def loaded():
            print(" ".join(m for m in sys.modules if m.startswith("tablezeta")))

        import tablezeta.cli
        loaded()
        from tablezeta.algfile import load_algebra
        from tablezeta.families import FamilySpec
        FamilySpec("fusion", name="reps3").resolve()
        load_algebra(sys.argv[1])
        loaded()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = tablezeta.cli.main(["count", "--family", "drt", "--u", "1", "--max-index", "8"])
        assert rc == 0
        loaded()
    """
    after_import, after_source, after_count = (set(line.split()) for line in _fresh(code, str(path)).splitlines())
    assert after_import == after_source == SOURCE_MODULES
    assert not after_source & COMPUTING_MODULES
    assert "tablezeta.ideals" in after_count
    # count's series type lives in ideals, so it loads no Euler-product or polynomial layer
    assert not after_count & {f"tablezeta.{m}" for m in ("genus", "dirichlet", "polys", "decomposition", "pipeline")}


@pytest.mark.parametrize("name", tablezeta.__all__)
def test_every_exported_name_is_its_defining_modules_object(name):
    obj = getattr(tablezeta, name)
    assert getattr(sys.modules[obj.__module__], name) is obj


def test_exports_keep_the_public_names():
    for name in ("count_ideals", "verify_order", "zeta_series", "total_local_zeta", "FamilySpec", "load_algebra"):
        assert name in tablezeta.__all__
    assert set(tablezeta.__all__) <= set(dir(tablezeta))
    assert {"genus", "modp", "cli"} <= set(dir(tablezeta))


def test_submodules_load_on_first_attribute_access():
    code = """
        import sys
        import tablezeta
        assert not [m for m in sys.modules if m.startswith("tablezeta.")]
        assert tablezeta.genus is sys.modules["tablezeta.genus"]
        from tablezeta import modp
        assert modp is sys.modules["tablezeta.modp"]
        from tablezeta import cli, count_ideals
        assert cli is sys.modules["tablezeta.cli"]
        assert count_ideals is sys.modules["tablezeta.ideals"].count_ideals
        print("ok")
    """
    assert _fresh(code) == "ok\n"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tablezeta.no_such_name
    with pytest.raises(ImportError):
        from tablezeta import no_such_name  # noqa: F401


def test_readme_quick_tour_runs_fresh():
    tour = re.search(r"A quick tour in code:\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    assert tour.startswith("import tablezeta as tz\n")
    checks = """
assert tz.count_ideals(t.lam, 49).a(49) == 8
assert res.passed
assert str(tz.total_local_zeta(model)).startswith("(1 - t + 3*t^2 + 6*t^3 + ")
print("ok")
"""
    out = _fresh(tour + checks)
    assert out.endswith("ok\n")
