"""Digest the outputs of every benchmark workload command, for byte-identity checks.

Run from the root of a checkout:

    python3 tools/output_digests.py digests.tsv 1 2 3
    python3 tools/output_digests.py digests.tsv 1 --workloads floquet_orbits trajectory
    python3 tools/output_digests.py values.tsv 1 --workloads floquet_orbits --values

Every command that ``bench/workloads.generate`` yields at full size for the
given seeds (all four workloads unless ``--workloads`` names some) runs, in
order, through the ``savanna.cli.main`` of this checkout, in one process.
Each command writes one tab-separated line: workload, seed, group, index,
exit code, the sha256 of its ``--output`` file, of its ``--curves`` file and
of its stdout (``-`` for a file it did not write), and its stderr text as a
JSON string.  Run the script in two checkouts and ``diff`` the two files.

With ``--values`` each ``floquet`` line also ends with a JSON object of the
values parsed from its output (``anchor``, ``rho_tg``, ``verdict``,
``residual``, ``boundary``), so that two checkouts whose bytes are expected
to differ in the last digits can be compared numerically.
"""

from __future__ import annotations

import argparse
import contextlib
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


def main_digests(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("output", help="digest file to write")
    parser.add_argument("seeds", nargs="+", type=int)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    parser.add_argument("--values", action="store_true",
                        help="append the parsed values of each floquet output")
    args = parser.parse_args(argv)
    sizes = workloads.SIZES["full"]
    lines = []
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        for workload in args.workloads:
            for seed in args.seeds:
                for gi, group in enumerate(workloads.generate(workload, seed, sizes)):
                    for ci, cmd in enumerate(group):
                        code, out, curves, stdout, err = _digest(cmd, tmp)
                        fields = [workload, str(seed), str(gi), str(ci), code, _sha(out),
                                  _sha(curves), _sha(stdout.encode()), json.dumps(err)]
                        if args.values and cmd.argv[0] == "floquet":
                            fields.append(json.dumps(_floquet_values(out)))
                        lines.append("\t".join(fields))
    Path(args.output).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(lines)} commands digested into {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
