"""The serving program, launched the way ``repro.cli serve`` runs it.

    python3 perfbench/server.py <trace 0|1> serve --benchmark ppg ...

Installs the benchmark's probes (and, with trace 1, its layer spans), then
hands the remaining arguments to ``repro.cli.main``.  When the server stops
(``--max-sessions``), prints one ``PERFBENCH {json}`` line: when it started
listening, its CPU time from then on, peak memory, the resolved
configuration and the span report.
"""

import json
import sys
import time

from tracer import Probe, Tracer
from unit import peak_rss_mb, resolved_config


def main() -> int:
    trace, argv = sys.argv[1] == "1", sys.argv[2:]
    probe = Probe()
    probe.install_serving()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    from repro.cli import main as cli_main
    code = cli_main(argv)
    report = {
        "listen_wall": probe.listen_wall, "end_wall": time.time(),
        "cpu_after_listen": time.process_time() - probe.listen_cpu,
        "peak_rss_mb": peak_rss_mb(), "config": resolved_config(),
        "trace": tracer.report() if tracer is not None else None,
    }
    print("PERFBENCH " + json.dumps(report), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
