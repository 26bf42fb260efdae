"""Rewrite ``cli_digest.json``: the outputs cli-batch expects at seed 0.

    python3 bench/record_digest.py

Each entry is a sha256 over a job's exit code, its stdout bytes and the
file it writes through ``--output``, as the library produces them in
process.  The known-defect job records the correct result (exit 2, no
output), not today's traceback.  Every ``cli-batch`` run at seed 0
compares the CLI processes' output against this file, so rerun it only
when a change to the CLI's output is intended.
"""
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    workdir = BENCH.parent / ".bench_work" / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        batch = workloads.CliBatch(workloads.DIGEST_SEED, False, workdir)
        jobs = {job.name: workloads.digest(exp) for job, exp in zip(batch.jobs, batch.expected)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.DIGEST_FILE.write_text(
        json.dumps({"seed": workloads.DIGEST_SEED, "jobs": jobs}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"recorded {len(jobs)} job digests in {workloads.DIGEST_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
