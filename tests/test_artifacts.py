"""Artifact bytes pinned by digest.

Every `connsweep run` configuration below writes its artifacts (trace.txt
with every matrix, pivots.txt, final.cmx, schedule.txt, verify.txt and,
for rowcancel and smale, the reduction steps); the sha256 of each must
equal the one recorded in artifact_digests.json, as must each run's exit
code. A refactor that claims to keep every artifact byte for byte is held
to it here. After a change meant to alter artifacts, record the digests
anew with `PYTHONPATH=src python tests/test_artifacts.py`.
"""

import hashlib
import json
import os
import sys

from connsweep import RandomSpec, generate_surface_matrix, random_connection_matrix
from connsweep.cli import _RUNNERS, main
from connsweep.cmx import serialize_cmx
from connsweep.fixtures import FIX_CB, FIX_FIG3R, FIX_SPHERE, FIX_TUCB, FIX_ZERO

DIGESTS = os.path.join(os.path.dirname(__file__), "artifact_digests.json")

# The fixtures, a small and a mid-size surface (m=64; its z run solves 15
# kernel problems, up to c=16), seeded random inputs whose sweeps make
# change-of-basis marks (so z and accumulated change their bases), and a
# dense b=1 m=48 input whose z run solves 251 kernel problems, up to c=24,
# all read off one kernel chain.
INPUTS = {
    "zero": FIX_ZERO,
    "sphere": FIX_SPHERE,
    "tucb": FIX_TUCB,
    "cb": FIX_CB,
    "fig3r": FIX_FIG3R,
    "surface": generate_surface_matrix(3, (3, 4, 2), flips=1),
    "surface64": generate_surface_matrix(1, (16, 32, 16)),
    "random26": random_connection_matrix(RandomSpec(
        seed=26, m=8, b=1, density=0.7, values=tuple(range(-3, 4)))),
    "random10": random_connection_matrix(RandomSpec(
        seed=10, m=9, b=2, density=0.7, values=tuple(range(-3, 4)))),
    "random33": random_connection_matrix(RandomSpec(
        seed=33, m=10, b=3, style="scattered", density=0.7,
        values=tuple(range(-3, 4)))),
    "dense48": random_connection_matrix(RandomSpec(
        seed=7, m=48, b=1, density=0.6, values=tuple(range(-3, 4)))),
}


def _sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def run_all(workdir):
    """{"input/algorithm": {"exit": code, "artifacts": {path: sha256}}}."""
    out = {}
    for name, matrix in INPUTS.items():
        src = os.path.join(workdir, f"{name}.cmx")
        with open(src, "w", encoding="utf-8") as handle:
            handle.write(serialize_cmx(matrix))
        for algorithm in sorted(_RUNNERS):
            outdir = os.path.join(workdir, name, algorithm)
            argv = ["run", "-a", algorithm, src, "-o", outdir,
                    "--trace", "full", "--verify", "--schedule"]
            if algorithm in ("rowcancel", "smale"):
                argv.append("--reduction")
            code = main(argv)
            artifacts = {}
            for root, _, files in os.walk(outdir):
                for file in files:
                    path = os.path.join(root, file)
                    artifacts[os.path.relpath(path, outdir)] = _sha256(path)
            out[f"{name}/{algorithm}"] = {"exit": code,
                                          "artifacts": dict(sorted(artifacts.items()))}
    return out


def test_artifacts_match_recorded_digests(tmp_path, capsys):
    with open(DIGESTS, "r", encoding="utf-8") as handle:
        recorded = json.load(handle)
    got = run_all(str(tmp_path))
    capsys.readouterr()
    assert sorted(got) == sorted(recorded)
    for key in recorded:
        assert got[key] == recorded[key], key


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_all(tmp)
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(digests)} runs in {DIGESTS}", file=sys.stderr)
