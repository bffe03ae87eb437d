"""Record the golden output table of `test_cli.test_outputs_match_recorded_digests`.

Run by hand from the repository root::

    PYTHONPATH=src python tests/golden_record.py

It runs every case below through ``matchctl.cli.main`` on the current tree and
prints the ``GOLDEN_DIGESTS`` table, ready to replace the one in
``tests/test_cli.py``; an intended change of an output is then this one
command and a reviewable diff of that table.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

from matchctl.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# the builtin-test system as the benchmark's verify workload configures it
BUILTIN_CFG = """system = builtin-test
builtin.seed = 1
builtin.n_shape = 1
builtin.n_group = 2
grid.n = 41
sim.ic = 0.1, 0.0, 0.0, 0.0, 0.0, 0.0
sim.dt = 1e-3
sim.t_end = 0.1
"""

CONFIGS = ("cartpole", "incline", "cartpole-new-ode", "incline-new-ode", "builtin")
COMMANDS = ("check-matching", "check-helmholtz", "synthesize-tau", "simulate", "sweep")

# files each command writes into its --out directory
ARTEFACTS = {"synthesize-tau": "tau_samples.csv", "simulate": "trajectory.csv",
             "sweep": "sweep.csv"}
JSON_COMMANDS = ("check-matching", "check-helmholtz")
# the column of each output file that moves with any rounding of the shaped
# energy E; the file is also digested without it, which pins every other
# column when E moves on purpose
OBSERVED_COLUMNS = {"trajectory.csv": "E", "sweep.csv": "drift"}


def config_text(config: str) -> str:
    if config == "builtin":
        return BUILTIN_CFG
    base, _, variant = config.partition("-")
    text = (CONFIG_DIR / f"{base}.cfg").read_text(encoding="utf-8")
    if variant:
        text, count = re.subn(r"(?m)^tau\.mode = \S+", "tau.mode = new-ode", text)
        assert count == 1
    return text


def case_overrides(config: str, command: str) -> dict[str, str]:
    """Config lines appended to the config (later keys win) that keep the
    table's Tier-1 cost small.  The builtin config's simulate is short already."""
    if command == "check-helmholtz":
        return {"helmholtz.n_states": "4"}
    if command == "simulate" and config != "builtin":
        return {"sim.t_end": "1.0"}
    return {}


def run_case(config: str, command: str, overrides: dict[str, str], workdir: Path):
    """Exit code and the sha256 of stdout, of stderr when not empty and of the
    command's output file when it wrote one, for one case run in workdir."""
    text = config_text(config) + "".join(f"{k} = {v}\n" for k, v in overrides.items())
    (workdir / "run.cfg").write_text(text, encoding="utf-8")
    argv = [command, "--config", "run.cfg", "--out", "out"]
    argv += ["--json"] if command in JSON_COMMANDS else []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(workdir), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    digests = {"stdout": _sha(out.getvalue().encode())}
    if err.getvalue():
        digests["stderr"] = _sha(err.getvalue().encode())
    artefact = workdir / "out" / ARTEFACTS.get(command, "")
    if command in ARTEFACTS and artefact.exists():
        data = artefact.read_bytes()
        digests[artefact.name] = _sha(data)
        column = OBSERVED_COLUMNS.get(artefact.name)
        rest = _without_column(data, column) if column else None
        if rest is not None:
            digests[f"{artefact.name} without {column}"] = _sha(rest)
    return code, digests


def _without_column(data: bytes, name: str) -> bytes | None:
    """The CSV ``data`` with its column ``name`` left out and its ``#`` comment
    lines kept, or None when it has no such column."""
    lines = data.decode("utf-8").splitlines(keepends=True)
    header = next(csv.reader(lines[:1]), [])
    if name not in header:
        return None
    i = header.index(name)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for line in lines:
        if line.startswith("#"):
            out.write(line)
        else:
            row = next(csv.reader([line]))
            writer.writerow(row[:i] + row[i + 1:])
    return out.getvalue().encode("utf-8")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record() -> str:
    lines = ["GOLDEN_DIGESTS = {"]
    for config in CONFIGS:
        for command in COMMANDS:
            overrides = case_overrides(config, command)
            with tempfile.TemporaryDirectory() as tmp:
                code, digests = run_case(config, command, overrides, Path(tmp))
            lines.append(f'    "{config}/{command}": {{')
            lines.append(f"        \"overrides\": {overrides!r}, \"exit\": {code},")
            for name, digest in digests.items():
                lines.append(f'        "{name}": "{digest}",')
            lines.append("    },")
    lines.append("}")
    return "\n".join(lines).replace("'", '"')


if __name__ == "__main__":
    sys.stdout.write(record() + "\n")
