"""Start a speed meter in a CLI subprocess the benchmark launched.

The benchmark puts this directory on PYTHONPATH and names a log file in
PERFBENCH_SPEED_LOG; Python imports this module at start-up, before
``-m relaytomo`` runs.  At exit the probe times go to the log, one a
line.  Without PERFBENCH_SPEED_LOG it does nothing.
"""

import os

if os.environ.get("PERFBENCH_SPEED_LOG"):
    import atexit
    import importlib.util

    _here = os.path.dirname(os.path.abspath(__file__))
    _spec = importlib.util.spec_from_file_location(
        "perfbench_speed", os.path.join(os.path.dirname(_here), "speed.py"))
    speed = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(speed)

    _meter = speed.Meter().start()

    def _write(path=os.environ["PERFBENCH_SPEED_LOG"]):
        _meter.stop()
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(f"{d!r}\n" for _, d in _meter.probes)

    atexit.register(_write)
