"""``python -m repro.experiments`` with the benchmark's layer wrappers.

Used by traced ``service-mix`` runs: installs :func:`layers.install` in
the service process, runs the experiments CLI with the given arguments,
and when the process exits (the service drains and returns on SIGTERM)
writes the per-layer metrics as JSON to ``$PERFBENCH_LAYERS_OUT`` and the
spans next to it. Worker processes forked from the service inherit the
wrappers but leave through ``os._exit``, so only the service process's
own spans (admission, result cache, journal) are written.
"""

import atexit
import json
import os
import sys

from layers import install, layer_metrics
from spans import SpanRecorder


def _write(recorder, path):
    with open(path, "w") as out:
        json.dump({name: list(value)
                   for name, value in layer_metrics(recorder).items()}, out)
    recorder.write(path + ".spans.jsonl.gz")


if __name__ == "__main__":
    from repro.experiments.__main__ import main

    recorder = SpanRecorder()
    install(recorder)
    atexit.register(_write, recorder, os.environ["PERFBENCH_LAYERS_OUT"])
    sys.exit(main(sys.argv[1:]))
