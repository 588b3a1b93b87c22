"""The README's examples run as printed."""

import math
import os
import re

from fomcert import cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _blocks(lang):
    with open(README) as fh:
        return re.findall(r"```%s\n(.*?)```" % lang, fh.read(), re.S)


def test_readme_library_example_runs(capsys):
    [block] = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    # It prints the final primal, the perturbed gap (which may be negative)
    # and the violations.
    primal, gap, violations = capsys.readouterr().out.split(maxsplit=2)
    assert math.isfinite(float(primal)) and math.isfinite(float(gap))
    assert violations.strip() == "[]"


def test_readme_run_config_exits_0(tmp_path):
    [block] = _blocks("json")
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(block)
    assert cli.main(["run", "--config", str(cfgpath),
                     "--out", str(tmp_path / "out")]) == 0
