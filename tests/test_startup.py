"""The start-up surface: `import qsix.cli` and each command load only the
layers they run, none of them loads the dataclass machinery, and the
package resolves its public names on first access. The loading is
observed in child processes, which start with no qsix module imported."""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest
from test_cli import _subparsers

import qsix
from qsix import cli

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH")))))

#: modules that only some commands need
DEFERRED = ("csv", "json", "qsix.identities", "qsix.report")
#: modules that no command needs: the records are not dataclasses
MACHINERY = ("dataclasses", "inspect")

T_ROW = ["--q", "0.5,0", "--X", "1.2,0", "--B", "0.3,0", "--C", "0.1,0",
         "--D", "0.35,0", "--E", "0.45,0"]
TRUNC = ["--q", "0.5,0", "--A", "2,0", "--B", "0.3,0", "--C", "3,0",
         "--D", "0.7,0", "--E", "1.1,0"]


def _loaded(code: str) -> list:
    """The modules of DEFERRED and MACHINERY that a child running `code`
    has loaded."""
    probe = (f"import sys\n{code}\n"
             f"print([m for m in {DEFERRED + MACHINERY!r} "
             f"if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_deferred_module():
    assert _loaded("import qsix.cli") == []


@pytest.mark.parametrize("argv,want", [
    (["eval", "t", *T_ROW], []),
    (["check", "vdiff", *TRUNC, "--n", "2"], ["qsix.identities"]),
    (["check", "vdiff", *TRUNC, "--n", "2", "--format", "json"],
     list(DEFERRED)),
    (["sweep", "--identity", "bailey-a", "--samples", "1", "--format",
      "json"], list(DEFERRED)),
], ids=["eval", "check", "check-json", "sweep"])
def test_each_command_loads_only_what_it_runs(argv, want):
    code = f"import qsix.cli\nassert qsix.cli.main({argv!r}) == 0"
    assert _loaded(code) == want


def test_bare_package_import_loads_no_layer_but_resolves_them():
    code = ("import qsix\n"
            "assert not any(m.startswith('qsix.') for m in sys.modules)\n"
            "qsix.identities.check_bailey, qsix.report.render_sweep")
    assert _loaded(code) == list(DEFERRED)


def test_resolving_every_public_name_loads_no_machinery():
    code = ("from qsix import *\nimport qsix\n"
            "for name in qsix.__all__:\n    getattr(qsix, name)")
    assert _loaded(code) == list(DEFERRED)


def test_main_adds_flags_to_the_leaf_it_runs_alone(monkeypatch, capsys):
    built = []
    for name in ("_add_eval_flags", "_add_check_flags"):
        add = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda sp, leaf, add=add:
                            built.append(leaf) or add(sp, leaf))
    assert cli.main(["eval", "t", *T_ROW]) == 0
    assert cli.main(["check", "vdiff", *TRUNC, "--n", "2"]) == 0
    with pytest.raises(SystemExit):
        cli.main(["eval", "--q", "0.5,0", "t"])
    assert built == ["t", "vdiff"]


@pytest.mark.parametrize("command", ["eval", "check"])
def test_each_leaf_prints_the_help_of_the_full_parser(command, capsys):
    full = _subparsers(_subparsers(cli._build_parser())[command])
    for name, leaf in full.items():
        with pytest.raises(SystemExit) as exc:
            cli.main([command, name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == leaf.format_help(), name


def test_every_public_name_is_its_defining_modules_object():
    assert sorted(qsix._HOME) == sorted(qsix.__all__)
    for name in qsix.__all__:
        home = importlib.import_module(f"qsix.{qsix._HOME[name]}")
        obj = getattr(qsix, name)
        assert obj is getattr(home, name), name
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == home.__name__, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qsix import *", namespace)
    assert all(namespace[name] is getattr(qsix, name)
               for name in qsix.__all__)


def test_dir_lists_every_public_name():
    assert set(qsix.__all__) <= set(dir(qsix))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        qsix.nope
    assert not hasattr(qsix, "nope")
