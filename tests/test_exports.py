import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import vasosim

MODULES = ["vasosim"] + sorted(
    f"vasosim.{m.name}" for m in pkgutil.iter_modules(vasosim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    exported = getattr(importlib.import_module(name), "__all__", [])
    assert len(exported) == len(set(exported))
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert [n for n in exported if n not in namespace] == []


def test_cli_imports_no_http_library():
    # the remote provider runs on the standard library, whose HTTP modules
    # load only when one is built; an HTTP library pulled in by the import
    # adds its import time and memory to every run
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-c", "import sys, vasosim.cli; "
         "print(sorted({'requests', 'urllib3', 'http.client', 'ssl', "
         "'email', 'urllib.request'} & set(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_llm_config_loads_no_http_library(tmp_path):
    # the endpoint is checked at config time without the HTTP stack, and
    # nothing reads proxies or netrc; building the provider loads http.client
    ini = tmp_path / "llm.ini"
    ini.write_text("[risk]\nprovider = llm\nendpoint = http://127.0.0.1:1/\n")
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from vasosim import cli; "
         f"cfg = cli.load_config({str(ini)!r}); "
         "print(sorted({'http.client', 'ssl', 'urllib.request', 'netrc'} "
         "& set(sys.modules))); cli._make_provider(cfg); "
         "print('http.client' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["[]", "True"]
