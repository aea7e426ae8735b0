"""Run ``pops-repro`` with the layer probe installed, then export the spans.

``python3 perfbench/traced_daemon.py TRACE.jsonl serve [flags...]`` runs the
CLI in this process under a :class:`repro.obs.Tracer` (so the daemon emits
its own ``serve.request`` span trees) with every layer entry point wrapped by
:class:`layers.LayerProbe`.  When the CLI returns -- after SIGTERM and the
daemon's drain -- all finished spans are written to ``TRACE.jsonl`` in the
``repro.obs.export`` JSONL schema.
"""

import sys

from repro.cli import main as cli_main
from repro.obs import Tracer, set_tracer, write_jsonl

from layers import LayerProbe


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    set_tracer(tracer)
    try:
        with LayerProbe(tracer):
            code = cli_main(argv)
    finally:
        set_tracer(None)
    write_jsonl(tracer.finished(), trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
