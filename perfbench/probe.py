"""Fresh-interpreter probes, started by run.py as child processes.

    python3 perfbench/probe.py setup SRC_DIR CLI_ARGS...
        Prints the seconds from this script's first line to the first
        interval: importing phasesim, parsing the command line and config,
        resolving the workload or opening the trace, and building the
        detector, controller and machine. The op stops at its first
        PhaseDetector.observe call, before any artifact is written.

    python3 perfbench/probe.py rss SRC_DIR CLI_ARGS...
        Runs one whole op and prints the process's peak resident set in MiB.
"""

import contextlib
import io
import sys
import time

T0 = time.perf_counter()


class FirstInterval(BaseException):
    """Raised from the first observe call; a BaseException so the CLI's
    internal-error handler lets it through."""


def main() -> int:
    mode, src, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    import phasesim.cli as cli

    if mode == "setup":
        from phasesim.detector import PhaseDetector

        def first_observe(self, sample):
            raise FirstInterval(time.perf_counter())

        PhaseDetector.observe = first_observe
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except FirstInterval as stop:
            print(repr(stop.args[0] - T0))
            return 0
        print(f"op ended with code {code} before its first interval", file=sys.stderr)
        return 1

    import resource

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        return code
    print(repr(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024))
    return 0


if __name__ == "__main__":
    sys.exit(main())
