"""One run of the bellcast CLI in a fresh interpreter, timed and measured.

Run it with ``src`` on ``PYTHONPATH``; the arguments are those of
``python -m bellcast``.  Prints one JSON object: ``import_s`` (importing the
package), ``first_batch_s`` (the CLI's work after that), the CLI's
``exit_code`` and ``stdout``, and the interpreter's ``peak_rss_mb``.

The peak RSS is the kernel's high-water mark of this process's own memory
map (``VmHWM``).  ``ru_maxrss`` will not do: Linux carries the parent's
peak over into it through fork and exec.
"""

import contextlib
import io
import json
import sys
import time


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


if __name__ == "__main__":
    start = time.perf_counter()
    import bellcast.cli

    imported = time.perf_counter()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exit_code = bellcast.cli.main(sys.argv[1:])
    done = time.perf_counter()
    print(
        json.dumps(
            {
                "import_s": imported - start,
                "first_batch_s": done - imported,
                "exit_code": exit_code,
                "stdout": stdout.getvalue(),
                "peak_rss_mb": peak_rss_mb(),
            }
        )
    )
