"""Run one slitflow CLI command with the benchmark's span wrappers installed.

    python3 perfbench/cli_traced.py SPANS_JSON <slitflow cli arguments...>

Behaves like ``python -m slitflow.cli`` (same stdout, same exit status) and
writes the recorded spans to SPANS_JSON when the command ends.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import slitflow.cli  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    rec = spans.Recorder()
    spans.install(rec)
    try:
        return rec.call("cli.main", slitflow.cli.main, argv)
    except SystemExit as exc:  # argparse reports usage errors by exiting
        return exc.code
    finally:
        Path(out_path).write_text(json.dumps(rec.to_json()))


if __name__ == "__main__":
    sys.exit(main())
