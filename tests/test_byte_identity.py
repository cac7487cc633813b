"""Byte-identity gate: the artifacts of a fixed scenario set, by digest.

Runs ``scripts/artifact_digests.py``'s runs for the shipped scenarios
with their sample-selection edges (``edge:*``) and appended sections
(``append:*``), then the CSV rewrites (``csv:*``) of one text: 511 lines,
the subset of the script's full corpus that covers every job's success
path, the selection edges and what ``read_csv`` accepts and refuses. It
requires them equal to ``artifact_digests.txt`` beside this file. A
change that alters an exit code, a message or one artifact byte fails
here.

The digests hold numpy's float results, so the file is valid for the
numpy it was made with: numpy 2.4.6 on x86-64 Linux, Python 3.11. A
change that alters the bytes on purpose regenerates the file in the same
commit and names the changed lines and the reason in CHANGES.md:

    PYTHONPATH=src python3 tests/test_byte_identity.py
"""

import runpy
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "artifact_digests.txt"
# The text whose csv:* variants run: its identify reads every rewrite.
CSV_TEXT = ROOT / "scenarios" / "identify_flux.ini"


def gate_lines():
    """The digest lines of every shipped text's ``shipped``, ``edge:*`` and
    ``append:*`` variants, in the script's order, then CSV_TEXT's
    ``csv:*`` variants."""
    script = runpy.run_path(str(ROOT / "scripts" / "artifact_digests.py"))

    def digests(path, keep):
        text = path.read_text(encoding="utf-8")
        return [line for variant, variant_text in script["corpus"](text)
                if keep(variant)
                for line in script["digest_text"](
                    f"{path.name}:{variant}", variant_text,
                    script["JOB_ORDERS"].get(variant, script["JOBS"]),
                    script["CSV_EDITS"].get(variant))]

    lines = []
    for path in sorted((ROOT / "scenarios").glob("*.ini")):
        lines += digests(path, lambda variant: variant == "shipped"
                         or variant.startswith(("edge:", "append:")))
    return lines + digests(CSV_TEXT, lambda variant: variant.startswith(
        "csv:"))


def test_artifacts_match_the_reference_digests():
    expected = REFERENCE.read_text(encoding="utf-8").splitlines()
    actual = gate_lines()
    changed = [(old, new) for old, new in zip(expected, actual) if old != new]
    assert len(actual) == len(expected) == 511
    assert changed == [], (f"{len(changed)} digest lines differ "
                           f"(numpy {np.__version__}); first: {changed[0]}")


if __name__ == "__main__":
    REFERENCE.write_text("".join(f"{line}\n" for line in gate_lines()),
                         encoding="utf-8")
