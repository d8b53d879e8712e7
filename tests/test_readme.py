"""The README's examples run as written: each JSON config through `cli.main`
with the command its text gives, and the library quick start, with the
values the README states."""

import json
import math
import re
from pathlib import Path

import pytest

from urlab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


# the commands of the README's JSON examples, in their order
COMMANDS = ["check", "scan", "scan", "minimize", "compare", "divergence"]


def _run(tmp_path, command, config_text):
    cfg, out = tmp_path / "config.json", tmp_path / "report.json"
    cfg.write_text(config_text, encoding="utf-8")
    code = main([command, "--config", str(cfg), "--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


def test_the_readme_has_one_json_example_per_listed_command():
    assert len(_blocks("json")) == len(COMMANDS)


@pytest.mark.parametrize("index", range(len(COMMANDS)),
                         ids=[f"{i}-{c}" for i, c in enumerate(COMMANDS)])
def test_readme_json_example_runs(tmp_path, index):
    command = COMMANDS[index]
    code, doc = _run(tmp_path, command, _blocks("json")[index])
    assert code == 0
    assert doc["command"] == command
    row = doc["results"][0]
    if command == "check":  # left side cosh(2r)/4 at r = 0.5, right side 1/4
        assert row["lhs"] == pytest.approx(math.cosh(1.0) / 4, rel=1e-9)
        assert row["rhs"] == pytest.approx(0.25, rel=1e-9)
    if command in ("check", "scan", "compare"):
        assert doc["summary"]["all_hold"] is True
    if command == "minimize":  # the variance sum reaches 1 at zero squeezing
        assert abs(row["slack"]) <= 1e-6 and row["converged"]
        assert abs(row["slots"][0]["r"]) <= 1e-3
    if command == "divergence":
        assert row["d_ab"] == pytest.approx(row["d_ba"]) and row["d_ab"] > 0


def test_readme_library_quick_start():
    (code,) = _blocks("python")
    ns = {}
    exec(code, ns)
    urlab, q, p, vac, sq = (ns[k] for k in ("urlab", "q", "p", "vac", "sq"))
    assert urlab.schrodinger(q, p, vac).saturated is True
    lhs = urlab.extended_schrodinger(q, p, vac, sq).lhs
    assert lhs == pytest.approx(math.cosh(1) / 4, rel=1e-9)
    res = ns["res"]
    assert abs(res.slack) <= 1e-6 and abs(res.slots[0].r) <= 1e-3
