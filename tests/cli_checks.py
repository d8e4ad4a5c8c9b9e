"""Checks of the command-line program, run as a program of its own.

Usage: python tests/cli_checks.py COMMAND...

COMMAND is how to start the program: for example ``guidedboost``, the
console script of an installed package, or ``python -m
guidedboost.harness.cli``. The checks run in a temporary directory and stop
at the first that fails, which exits 1 with the reason on stderr. The script
uses the standard library only, so it runs where only the package and numpy
are installed.

The checks: a run saves the same archive bytes twice; a saved archive
predicts every row of a written synthetic dataset; ``guided-retrain`` and
``classic-retrain`` each write their own archive and no other; an archive
with one flipped blob byte, a misspelt config key, a value of the wrong
type, an out-of-range base setting and a data section without a source each
fail with an ``error:`` line that names the cause, and the failed runs write
no output directory; ``evaluate`` and ``predict`` refuse a config option,
which they would ignore, with a usage error (exit 2) that names it.
"""
from __future__ import annotations

import json
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

SYNTHETIC = {"n_per_class": 200, "n_features": 6, "seed": 1}


class CheckFailed(Exception):
    pass


def _check(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _run(command: list[str], args: list[str], cwd: Path, status: int = 0):
    done = subprocess.run([*command, *args], cwd=cwd, capture_output=True, text=True)
    _check(
        done.returncode == status,
        f"{' '.join(args)} exited {done.returncode}, not {status}\n{done.stderr}",
    )
    return done


def _fails_naming(command: list[str], args: list[str], cwd: Path, cause: str) -> None:
    """args exits 1 with an ``error:`` line that names cause."""
    stderr = _run(command, args, cwd, status=1).stderr
    _check(
        re.search(rf"^error: .*{re.escape(cause)}", stderr, re.MULTILINE),
        f"{' '.join(args)} failed without naming {cause}\n{stderr}",
    )


def _flip_first_byte(archive: Path, member: str, damaged: Path) -> None:
    """A copy of archive with the first stored byte of member flipped."""
    shutil.copyfile(archive, damaged)
    with zipfile.ZipFile(damaged) as zf:
        start = zf.getinfo(member).header_offset
    raw = bytearray(damaged.read_bytes())
    # the local file header is 30 bytes, then the name and the extra field
    name_len, extra_len = struct.unpack("<HH", raw[start + 26 : start + 30])
    raw[start + 30 + name_len + extra_len] ^= 0x01
    damaged.write_bytes(raw)


def run_checks(command: list[str], workdir: Path) -> None:
    """Every check, with command as the program, in workdir; raises
    CheckFailed at the first that fails."""
    workdir = Path(workdir)

    def config(name: str, **entries) -> str:
        cfg = {"data": {"synthetic": SYNTHETIC}, "base": {"kind": "logistic"},
               "train": {"max_epochs": 3, "patience": 2}, "seed": 0}
        (workdir / name).write_text(json.dumps({**cfg, **entries}))
        return name

    cfg = config("cfg.json", out_dir="out")
    archive = workdir / "out" / "pipeline_guided.zip"
    _run(command, ["run", "--config", cfg], workdir)
    first = archive.read_bytes()
    _flip_first_byte(archive, "arrays/model5_a0.bin", workdir / "damaged_guided.zip")
    _run(command, ["run", "--config", cfg], workdir)
    _check(archive.read_bytes() == first, "the same config saved different archive bytes")

    # a single-variant command writes that variant's archive and no other
    for variant in ("guided", "classic"):
        out = workdir / f"{variant}_out"
        _run(command, [f"{variant}-retrain", "--config", cfg, "--out", out.name], workdir)
        archives = sorted(p.name for p in out.glob("pipeline_*.zip"))
        _check(archives == [f"pipeline_{variant}.zip"],
               f"{variant}-retrain wrote the archives {archives}")

    _run(command, ["synth", "--config", cfg], workdir)
    predict = ["predict", "--data", "out/synthetic.csv", "--pipeline"]
    _run(command, [*predict, "out/pipeline_guided.zip", "--out", "out"], workdir)
    lines = (workdir / "out" / "predictions.csv").read_text().count("\n")
    _check(lines == 401, f"predictions.csv has {lines} lines, not a header and 400 rows")
    _fails_naming(command, [*predict, "damaged_guided.zip", "--out", "damaged_out"], workdir,
                  "arrays/model5_a0.bin is corrupt")

    # the commands that read an archive take no config option
    archive_args = ["--pipeline", "out/pipeline_guided.zip", "--data", "out/synthetic.csv"]
    for args, flag in ((["evaluate", *archive_args, "--seed", "7"], "--seed"),
                       (["predict", *archive_args, "--config", cfg], "--config")):
        stderr = _run(command, args, workdir, status=2).stderr
        _check(re.search(rf"^\S+: error: unrecognized arguments: {flag}\b", stderr, re.MULTILINE),
               f"{' '.join(args)} failed without naming {flag}\n{stderr}")

    # a config the loader refuses fails before any stage, naming the key
    bad_configs = (
        ("typo", {"feature_topk": 3}, "feature_topk"),
        ("typed", {"data": {"synthetic": {**SYNTHETIC, "planted": "no"}}},
         "data.synthetic.planted"),
        ("params", {"base": {"kind": "logistic", "params": {"epochs": -1}}},
         "base.params.epochs"),
        ("no-source", {"data": {}}, "config key data "),
    )
    for name, entries, key in bad_configs:
        out = f"{name}_out"
        _fails_naming(command, ["run", "--config", config(f"{name}_cfg.json", out_dir=out,
                                                          **entries)], workdir, key)
        _check(not (workdir / out).exists(), f"the refused {name} config wrote {out}")


def main(argv: list[str] | None = None) -> int:
    command = sys.argv[1:] if argv is None else argv
    if not command:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as workdir:
        try:
            run_checks(command, Path(workdir))
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            return 1
    print("command-line checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
