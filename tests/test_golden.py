"""The byte contract: every artifact of a fixed chain of runs has the sha256
that tests/golden.sha256 records.

The chain is README.md's walkthrough (its library snippet, then every
`labelnoise` command it quotes: corrupt, incv, cotrain, report, theory and
an oracle simulate), a 20k-sample 1-NN simulate and an oracle incv. It runs
in-process from a temporary working directory with relative paths, so that
each resolved_config.json is the same wherever it runs.

A change that means to move artifact bytes rewrites the golden file in the
same diff, by running this file as a script:

    python tests/test_golden.py
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # as a script, import the package from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from conftest import readme_commands, run_readme  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.sha256")
CHAIN = [command for command, _ in readme_commands()] + [
    "simulate --learner knn --samples 20000 --grid 0.2,0.5 --seed 5 --out runs/knn",
    "incv --in runs/noisy --learner oracle --iterations 3 --remove-ratio auto --seed 2"
    " --out runs/oracle_sel",
]


def chain_digests(workdir: Path) -> list[str]:
    """Run the chain in workdir; a `sha256  path` line per file it wrote,
    sorted by path."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        run_readme(CHAIN)
    finally:
        os.chdir(cwd)
    paths = sorted(p.relative_to(workdir).as_posix() for p in workdir.rglob("*") if p.is_file())
    return [f"{hashlib.sha256((workdir / p).read_bytes()).hexdigest()}  {p}" for p in paths]


def test_every_artifact_of_the_chain_has_its_golden_bytes(tmp_path):
    assert chain_digests(tmp_path) == GOLDEN.read_text().splitlines()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text("".join(line + "\n" for line in chain_digests(Path(tmp))))
    print(f"wrote {GOLDEN}")
