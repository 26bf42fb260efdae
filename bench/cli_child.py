"""Run one embtens CLI command with the benchmark's tracer installed.

    python3 bench/cli_child.py SPANS_JSON JOB_INDEX <embtens arguments...>

Behaves like ``python -m embtens.cli`` (same output, same exit code, the
same traceback if the command crashes) and, however the command ends,
writes its spans and layer counts to SPANS_JSON.
"""
import importlib
import json
import sys
from pathlib import Path

import benchtrace

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main() -> int:
    spans_path, job = sys.argv[1], int(sys.argv[2])
    cli = importlib.import_module("embtens.cli")
    tracer = benchtrace.Tracer()
    tracer.job = job
    tracer.install()
    try:
        return cli.main(sys.argv[3:])
    finally:
        tracer.uninstall()
        Path(spans_path).write_text(json.dumps(tracer.dump()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
