"""Digest what every CLI job prints and writes, for byte-identity checks.

Runs the four jobs (coeffs, simulate, compare, identify) in-process, in
that order unless JOB_ORDERS names another, on each scenario text: the
shipped scenarios and, unless --no-corpus is given, a corpus of
corrupted variants of each. The corpus holds each text with one line
deleted; with one value entry (one item of a comma list) set to each of
"", x, nan, inf, -1, 0, 1, 1e, 5%, 5e-324, 1e300 and 1e-300; with an
unknown key in each section; with one of nine sections appended; and
with one whole value set to each of 1e300, -1e300, 1e-300, 5e-324 and
1e150. It also holds the sample-selection edges of each shipped text:
[outputs] stride set to 2, 7 and 10**9, and [sim] duration set equal to
its dt (a grid of 2 samples), to 16384 times its dt (one simulation
block plus one sample) and to 32768 times its dt (a late half of one
block plus one sample). Last comes append:4:no-compare, the text
of append:4 ([identify] source_csv = timeseries.csv) run as coeffs,
simulate, identify: there identify reads the CSV simulate wrote, which
in append:4 compare overwrites first. Then come the csv:<edit> variants,
the same text run as simulate, then identify on the CSV simulate wrote
after one rewrite of it: one v_d cell of the middle row set to each of
CSV_TOKENS, CRLF line ends, a blank line, no final newline, a row one
cell short, one byte that is not UTF-8, the first row's v_d set to nan,
that nan with the middle row's v_d set to x, the middle row's v_d set to
1 after a no-break space, and a line of a blank and a tab after the
middle row. The identify line's digest covers the rewritten CSV.

Each text runs in a fresh working directory, with relative paths for the
scenario and for --out, and the four jobs share that --out as a user
running them in a row would. Prints one line per run:

    <scenario>:<variant> <job> <exit code> <sha256>

The sha256 covers stdout, stderr, the warnings raised, an exception that
escaped main() (the exit code then reads "raised") and the relative path
and bytes of every file under --out after the job. Run it on two commits
and diff the output: any line that differs names a run whose exit code,
messages or artifacts changed.

Usage: python3 scripts/artifact_digests.py [--no-corpus] [scenario.ini ...]
"""

import argparse
import configparser
import contextlib
import hashlib
import io
import os
import tempfile
import warnings
from pathlib import Path

from pmimb.cli import main as pmimb_main
from pmimb.refsim import _BLOCK
from pmimb.scenario import _SCHEMA

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
JOBS = ("coeffs", "simulate", "compare", "identify")
ENTRY_TOKENS = ("", "x", "nan", "inf", "-1", "0", "1", "1e", "5%", "5e-324",
                "1e300", "1e-300")
VALUE_TOKENS = ("1e300", "-1e300", "1e-300", "5e-324", "1e150")
APPENDED = (
    "[extra]\nkey = 1\n",
    "[DEFAULT]\n",
    "[DEFAULT]\nbogus = 1\n",
    "[sim]\ndt = 1e-5\n",
    "[identify]\nsource_csv = timeseries.csv\n",
    "[outputs]\nchannels = v_d, v_q, i_d, i_q, t_e\nstride = 3\n",
    "[outputs]\nchannels = t_e, i_q, i_d, v_q, v_d\nstride = 3\n",
    "[outputs]\nchannels = i_d, v_n\n",
    "[outputs]\nsummary = nosuch/summary.txt\n",
)
STRIDES = (2, 7, 10**9)
CSV_TOKENS = ("nan", "inf", "-0", "+1", ".5", "1E5", " 1", "1e", "x",
              "0x10", "1e400", "5e-324")


def _middle_row(edit, first=False):
    """A CSV rewrite that replaces the middle data row, or the first, with
    the lines ``edit(names, cells)`` makes of the header's names and its
    cells."""
    def rewrite(data):
        lines = data.split(b"\n")
        row = 1 if first else len(lines) // 2
        lines[row:row + 1] = edit(lines[0].split(b","),
                                  lines[row].split(b","))
        return b"\n".join(lines)
    return rewrite


def _set_v_d(token, first=False):
    def edit(names, cells):
        cells[names.index(b"v_d") if b"v_d" in names else -1] = token.encode()
        return [b",".join(cells)]
    return _middle_row(edit, first)


# Rewrites of the CSV simulate wrote, by csv:<edit> variant.
CSV_EDITS = {
    **{f"csv:{token}": _set_v_d(token) for token in CSV_TOKENS},
    "csv:crlf": lambda data: data.replace(b"\n", b"\r\n"),
    "csv:blank-line": _middle_row(lambda names, cells: [b",".join(cells),
                                                        b""]),
    "csv:no-final-newline": lambda data: data[:-1],
    "csv:ragged": _middle_row(lambda names, cells: [b",".join(cells[:-1])]),
    "csv:non-utf8": _middle_row(lambda names, cells: [b"\xff"
                                                      + b",".join(cells)]),
    "csv:nan-first-row": _set_v_d("nan", first=True),
    "csv:nan-then-x": lambda data: _set_v_d("x")(
        _set_v_d("nan", first=True)(data)),
    "csv:nbsp": _set_v_d("\xa01"),
    "csv:whitespace-line": _middle_row(lambda names, cells: [
        b",".join(cells), b" \t"]),
}
# Variants run with a job order of their own.
JOB_ORDERS = {"append:4:no-compare": ("coeffs", "simulate", "identify"),
              **dict.fromkeys(CSV_EDITS, ("simulate", "identify"))}


def corpus(text):
    """(variant, text) pairs: the text itself, then its corruptions."""
    yield "shipped", text
    lines = text.splitlines(keepends=True)
    for row in range(len(lines)):
        yield f"delete:{row}", "".join(lines[:row] + lines[row + 1:])
    keyed = [row for row, line in enumerate(lines)
             if "=" in line and not line.lstrip().startswith("#")]
    for row in keyed:
        key, _, value = lines[row].partition("=")
        entries = value.rstrip("\n").split(",")
        for idx in range(len(entries)):
            for token in ENTRY_TOKENS:
                edited = entries[:idx] + [" " + token] + entries[idx + 1:]
                yield (f"entry:{row}:{idx}:{token}",
                       set_line(lines, row, key + "=" + ",".join(edited)))
        for token in VALUE_TOKENS:
            yield f"value:{row}:{token}", set_line(lines, row,
                                                   f"{key}= {token}")
    for row, line in enumerate(lines):
        if line.startswith("["):
            yield (f"unknown-key:{row}",
                   set_line(lines, row, line.rstrip("\n") + "\nbogus = 1"))
    for idx, section in enumerate(APPENDED):
        yield f"append:{idx}", text + "\n" + section
    for stride in STRIDES:
        yield (f"edge:stride={stride}",
               with_key(lines, "outputs", "stride", str(stride)))
    parser = configparser.ConfigParser()
    parser.read_string(text)
    dt = parser.get("sim", "dt", fallback=_SCHEMA["sim"]["dt"][1])
    yield "edge:duration=dt", with_key(lines, "sim", "duration", dt)
    yield "edge:duration=block", with_key(lines, "sim", "duration",
                                          repr(_BLOCK * float(dt)))
    yield "edge:duration=2blocks", with_key(lines, "sim", "duration",
                                            repr(2 * _BLOCK * float(dt)))
    yield "append:4:no-compare", text + "\n" + APPENDED[4]
    for variant in CSV_EDITS:
        yield variant, text + "\n" + APPENDED[4]


def set_line(lines, row, line):
    return "".join(lines[:row] + [line + "\n"] + lines[row + 1:])


def with_key(lines, section, key, value):
    """The text with ``key = value`` in [section]: the key's line replaced,
    else a line added under the section header, else the section appended."""
    current, header = None, None
    for row, line in enumerate(lines):
        if line.startswith("["):
            current = line.strip()[1:-1]
            header = row if current == section else header
        elif current == section and line.partition("=")[0].strip() == key:
            return set_line(lines, row, f"{key} = {value}")
    if header is not None:
        return set_line(lines, header, f"[{section}]\n{key} = {value}")
    return "".join(lines) + f"\n[{section}]\n{key} = {value}\n"


def run_job(job):
    """Exit code and sha256 of one job run in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            rc = pmimb_main([job, "--scenario", "scenario.ini",
                             "--out", "out"])
        except Exception as exc:  # recorded, so a new traceback shows
            rc, escaped = "raised", f"{type(exc).__name__}: {exc}"
    digest = hashlib.sha256(repr((
        out.getvalue(), err.getvalue(), escaped,
        [f"{w.category.__name__}: {w.message}" for w in caught],
    )).encode())
    for path in sorted(Path("out").rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            digest.update(repr((path.as_posix(), len(data))).encode())
            digest.update(data)
    return rc, digest.hexdigest()


def digest_text(label, text, jobs, edit=None):
    """One line per job for one scenario text, run in a fresh directory.
    ``edit``, if given, rewrites the bytes of the CSV simulate wrote."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            Path("scenario.ini").write_text(text, encoding="utf-8")
            lines = []
            for job in jobs:
                lines.append(f"{label} {job} "
                             f"{' '.join(map(str, run_job(job)))}")
                csv = Path("out", "timeseries.csv")
                if job == "simulate" and edit and csv.exists():
                    csv.write_bytes(edit(csv.read_bytes()))
            return lines
        finally:
            os.chdir(home)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenarios", nargs="*", type=Path,
                        help="scenario files (default: scenarios/*.ini)")
    parser.add_argument("--no-corpus", action="store_true",
                        help="run the scenarios as given, uncorrupted")
    args = parser.parse_args(argv)
    for path in args.scenarios or sorted(SCENARIOS.glob("*.ini")):
        text = path.read_text(encoding="utf-8")
        variants = ([("shipped", text)] if args.no_corpus
                    else corpus(text))
        for variant, variant_text in variants:
            for line in digest_text(f"{path.name}:{variant}", variant_text,
                                    JOB_ORDERS.get(variant, JOBS),
                                    CSV_EDITS.get(variant)):
                print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
