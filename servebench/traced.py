"""Traced launcher: ``repro serve`` with span recorders installed.

    python3 servebench/traced.py SPANS_FILE [serve arguments ...]

Wraps the serving layers' public entry points (see ``spans.py``), puts
``workerhook/`` on the workers' ``PYTHONPATH`` so that the pool's
workers record their stages too, then calls the normal ``serve`` entry
point, so the process layout is that of an untraced server.  Once the
server has drained, the spans are written to SPANS_FILE as JSON:
``{"server": [span, ...], "workers": [[span, ...], ...]}``, one list per
worker process.  Exits with the server's exit code.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def read_worker_spans(path: str) -> list:
    """One worker's spans, from the batches its hook appended.  A kill
    during an append can leave a partial last line; it is dropped."""
    spans: list = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            try:
                spans.extend(json.loads(line))
            except ValueError:
                break
    return spans


def main(argv) -> int:
    from repro.cli import main as serve_main
    from servebench.spans import Recorder, instrument

    out = argv[0]
    workers_dir = f"{out}.workers"
    os.makedirs(workers_dir)
    os.environ["SERVEBENCH_WORKER_SPANS"] = workers_dir
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "servebench", "workerhook")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    recorder = Recorder()
    instrument(recorder)
    try:
        code = serve_main(["serve", *argv[1:]])
        workers = [
            read_worker_spans(os.path.join(workers_dir, name))
            for name in sorted(os.listdir(workers_dir))
        ]
    finally:
        shutil.rmtree(workers_dir, ignore_errors=True)
    tmp = f"{out}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump({"server": recorder.spans, "workers": workers}, handle)
    os.replace(tmp, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
