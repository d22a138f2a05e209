"""Digest the outputs of every benchmark workload command, for byte-identity checks.

Run from the root of a checkout:

    python3 tools/output_digests.py digests.tsv 1 2 3
    python3 tools/output_digests.py digests.tsv 1 --workloads floquet_orbits trajectory
    python3 tools/output_digests.py values.tsv 1 --workloads floquet_orbits --values
    python3 tools/output_digests.py --compare parent.tsv change.tsv

Every command that ``bench/workloads.generate`` yields at full size for the
given seeds (all four workloads unless ``--workloads`` names some) runs, in
order, through the ``savanna.cli.main`` of this checkout, in one process.
Each command writes one tab-separated line: workload, seed, group, index,
exit code, the sha256 of its ``--output`` file, of its ``--curves`` file and
of its stdout (``-`` for a file it did not write), and its stderr text as a
JSON string.  Run the script in two checkouts and ``diff`` the two files.

With ``--values`` each ``floquet`` line also ends with a JSON object of the
values parsed from its output (``anchor``, ``rho_tg``, ``verdict``,
``residual``, ``boundary``), and each ``sweep --quantity rho_tg`` line with
one of its ``cells`` (both axis values and ``rho_tg``, null where the cell is
undefined), so that two checkouts whose bytes are expected to differ in the
last digits can be compared numerically.

``--compare A B`` checks two ``--values`` files line by line.  A ``floquet``
line whose orbit converged in both (residual below 1e-10) passes when the
anchors agree within 3e-10 * max(K_T, K_G), with K_T and K_G rebuilt from the
command's parameters, and the boundary, verdict, exit code, level-curve and
stdout digests and stderr are equal.  An orbit that converged in one file
only is reported with that file's name, boundary and verdict.  Every other
line must be identical.  Each mismatch is printed, and the exit code is 1 if
there is any.  A ``rho_tg`` sweep line that differs is a mismatch too; it is
printed with whether the two defined masks are equal and the worst
``|drho_tg|`` over the cells defined in both.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from savanna.cli import main  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("floquet_orbits", "threshold_sweep", "trajectory", "rho_tg_sweep")
ANCHOR_TOL = 3e-10          # anchor agreement, as a share of max(K_T, K_G)
CONVERGED = 1e-10           # a floquet residual below this is a located orbit


def _sha(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


def _floquet_values(out: bytes | None) -> dict | None:
    """Anchor, rho_tg, verdict, residual and boundary of a ``floquet`` output."""
    if out is None:
        return None
    lines = out.decode().splitlines()
    comment = next(line for line in lines if line.startswith("# residual = "))
    residual, boundary = (part.split(" = ", 1)[1] for part in comment[2:].split(", "))
    header, row = (line for line in lines if not line.startswith("#"))
    rec = dict(zip(header.split(","), row.split(",")))
    return {
        "anchor": [float(rec[k]) for k in ("anchor_t_s", "anchor_t_ns", "anchor_g")],
        "rho_tg": float(rec["rho_tg"]),
        "verdict": rec["verdict"],
        "residual": float(residual),
        "boundary": boundary,
    }


def _sweep_values(out: bytes | None) -> dict | None:
    """The cells of a ``sweep`` output: axis values and value, None where undefined."""
    if out is None:
        return None
    rows = [line.split(",") for line in out.decode().splitlines() if not line.startswith("#")]
    return {"cells": [[float(x), float(y), float(v) if ok == "1" else None]
                      for x, y, v, ok in rows[1:]]}


def _digest(cmd, tmp: Path) -> tuple[str, bytes | None, bytes | None, str, str]:
    """Run one command; returns its exit code, output and curves bytes,
    stdout and stderr.  In stderr the temporary directory reads ``{tmp}``
    and the checkout ``{root}``."""
    out, curves = tmp / "out", tmp / "curves"
    for path in (out, curves):
        path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = str(main(cmd.argv_for(str(out), str(curves))))
        except Exception as exc:  # a crash is recorded, the run goes on
            code = f"raised {type(exc).__name__}"
            traceback.print_exc()
    err = stderr.getvalue().replace(str(tmp), "{tmp}").replace(str(ROOT), "{root}")
    return code, _read(out), _read(curves), stdout.getvalue(), err


@functools.lru_cache(maxsize=None)
def _commands(workload: str, seed: int) -> list:
    return workloads.generate(workload, seed, workloads.SIZES["full"])


def _values(fields: list[str]) -> dict | None:
    """The parsed values a ``--values`` line ends with, else None."""
    return json.loads(fields[9]) if len(fields) == 10 else None


def _located(fields: list[str]) -> dict | None:
    """The parsed values of a ``floquet`` line whose orbit converged, else None."""
    values = _values(fields)
    return values if values and values.get("residual", CONVERGED) < CONVERGED else None


def _cells_gap(va: dict, vb: dict) -> str:
    """Whether two ``rho_tg`` sweeps have the same defined mask, and the worst
    ``rho_tg`` difference over the cells defined in both."""
    same = [(x, y, v is None) for x, y, v in va["cells"]] == \
        [(x, y, v is None) for x, y, v in vb["cells"]]
    gap = max((abs(u[2] - v[2]) for u, v in zip(va["cells"], vb["cells"])
               if u[2] is not None and v[2] is not None), default=0.0)
    return f"defined masks {'equal' if same else 'differ'}, worst |drho_tg| {gap:.3g}"


def _anchor_gap(fields: list[str], va: dict, vb: dict) -> float:
    """Largest anchor difference of two located orbits, over max(K_T, K_G)
    of the command's parameters."""
    p = _commands(fields[0], int(fields[1]))[int(fields[2])][int(fields[3])].params()
    return max(abs(x - y) for x, y in zip(va["anchor"], vb["anchor"])) / max(p.K_T, p.K_G)


def compare(path_a: str, path_b: str) -> int:
    """Check two ``--values`` digest files; prints each mismatch."""
    lines_a, lines_b = (Path(p).read_text(encoding="utf-8").splitlines()
                        for p in (path_a, path_b))
    if len(lines_a) != len(lines_b):
        print(f"{len(lines_a)} lines against {len(lines_b)}")
        return 1
    mismatches = orbits = 0
    worst = 0.0
    for line_a, line_b in zip(lines_a, lines_b):
        a, b = line_a.split("\t"), line_b.split("\t")
        if a[:4] != b[:4]:
            print(f"commands differ: {' '.join(a[:4])} vs {' '.join(b[:4])}")
            return 1
        va, vb = _located(a), _located(b)
        why = None
        if (va is None) != (vb is None):
            path, v = (path_a, va) if vb is None else (path_b, vb)
            why = f"orbit converged only in {path}: {v['boundary']}/{v['verdict']}"
        elif va is None:
            if a != b:
                why = "lines differ"
                ca, cb = _values(a), _values(b)
                if ca and cb and "cells" in ca and "cells" in cb:
                    why += "; " + _cells_gap(ca, cb)
        else:
            gap = _anchor_gap(a, va, vb)
            orbits, worst = orbits + 1, max(worst, gap)
            if a[:5] + a[6:9] != b[:5] + b[6:9]:      # all but the output digest
                why = "exit code, curves, stdout or stderr differ"
            elif (va["boundary"], va["verdict"]) != (vb["boundary"], vb["verdict"]):
                why = f"boundary/verdict {va['boundary']}/{va['verdict']} vs " \
                      f"{vb['boundary']}/{vb['verdict']}"
            elif gap >= ANCHOR_TOL:
                why = f"anchors differ by {gap:.3g} of max(K_T, K_G)"
        if why is not None:
            mismatches += 1
            print(f"{' '.join(a[:4])}: {why}")
    print(f"{len(lines_a)} lines; {orbits} converged orbits compared, worst anchor gap "
          f"{worst:.3g} of max(K_T, K_G); {mismatches} mismatches")
    return int(mismatches > 0)


def main_digests(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("output", nargs="?", help="digest file to write")
    parser.add_argument("seeds", nargs="*", type=int)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    parser.add_argument("--values", action="store_true",
                        help="append the parsed values of each floquet and rho_tg sweep "
                             "output")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --values files instead of writing one")
    args = parser.parse_args(argv)
    if args.compare:
        if args.output is not None:
            parser.error("--compare takes no output file or seeds")
        return compare(*args.compare)
    if args.output is None or not args.seeds:
        parser.error("an output file and at least one seed are required")
    lines = []
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        for workload in args.workloads:
            for seed in args.seeds:
                for gi, group in enumerate(_commands(workload, seed)):
                    for ci, cmd in enumerate(group):
                        code, out, curves, stdout, err = _digest(cmd, tmp)
                        fields = [workload, str(seed), str(gi), str(ci), code, _sha(out),
                                  _sha(curves), _sha(stdout.encode()), json.dumps(err)]
                        if args.values and cmd.argv[0] == "floquet":
                            fields.append(json.dumps(_floquet_values(out)))
                        elif args.values and cmd.argv[0] == "sweep" \
                                and cmd.opt("--quantity") == "rho_tg":
                            fields.append(json.dumps(_sweep_values(out)))
                        lines.append("\t".join(fields))
    Path(args.output).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(lines)} commands digested into {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
