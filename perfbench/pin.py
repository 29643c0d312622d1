"""Regenerate ``data/pinned.json``: the digests the benchmark checks against.

Run from the root of a checkout, only when an output is meant to change::

    python3 perfbench/pin.py

It regenerates one figures pass (every figure, table and network pricing)
and the serve-steady and serve-chaos summaries for every pinned seed,
with an empty cache under ``perfbench/out/`` and no other ``REPRO_*``
setting, and rewrites the file.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent


def main() -> int:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    (HERE / "out").mkdir(exist_ok=True)
    cache = tempfile.mkdtemp(prefix="pin-", dir=HERE / "out")
    os.environ["REPRO_CACHE_DIR"] = cache
    sys.path[:0] = [str(HERE), str(pathlib.Path.cwd() / "src")]
    import tracing
    import worker

    rec = tracing.NullRecorder()
    clock = worker.Clock([worker.probe()])
    try:
        figures = worker.Figures()
        figures.imports()
        pinned = {"figures": {}}
        for name, value in figures.op(None, rec, clock).items():
            if isinstance(value, Exception):
                raise value
            pinned["figures"][name] = worker.artifact_digest(value)
        for key, chaos in (("serve-steady", False), ("serve-chaos", True)):
            serve = worker.Serve(chaos)
            serve.imports()
            pinned[key] = {}
            for seed in range(worker.SERVE_SEEDS):
                summary = serve.op(serve.setup(seed, rec), rec, clock)
                if not summary["invariants"]["conservation"]:
                    raise SystemExit(f"{key} seed {seed}: conservation fails")
                pinned[key][str(seed)] = serve.serve.summary_digest(summary)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    worker.PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
