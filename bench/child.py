"""One benchmark repetition, run in a fresh interpreter.

Usage: python3 child.py '<json spec>'

The spec names the checkout's ``src`` directory, the ``qss-sim run``
argument list and, for a traced repetition, where to write the spans.
The repetition makes one ``qss_sim.cli.main`` call and prints one JSON
object on stdout: the CLI's exit code, its wall time, the wall time of
every trial (one timer around ``qss_sim.harness.run_trial``), the
monotonic clock reading when the first trial started, and ``ru_maxrss``.
A traced repetition adds the per-layer figures of ``tracer.py``.

Only the standard library is imported before ``qss_sim``, so the set-up
time seen by the parent is interpreter start, ``import qss_sim``, argument
parsing and config validation.
"""

import json
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import qss_sim.cli
    import qss_sim.harness

    tracer = None
    if spec.get("spans_path"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    trial_s: list[float] = []
    first_trial_mono: list[float] = []
    run_trial = qss_sim.harness.run_trial

    def timed_run_trial(config):
        if not first_trial_mono:
            first_trial_mono.append(time.clock_gettime(time.CLOCK_MONOTONIC))
        start = time.perf_counter()
        report = run_trial(config)
        trial_s.append(time.perf_counter() - start)
        return report

    qss_sim.harness.run_trial = timed_run_trial
    main_fn = qss_sim.cli.main
    if tracer is not None:
        main_fn = tracer.wrap("cli", "cli.main", main_fn)

    start = time.perf_counter()
    code = main_fn(spec["argv"])
    wall_s = time.perf_counter() - start

    result = {
        "exit_code": code,
        "wall_s": wall_s,
        "trial_s": trial_s,
        "first_trial_mono": first_trial_mono[0] if first_trial_mono else None,
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.summary(len(trial_s))
        result["trace_missing"] = tracer.missing
        tracer.write_spans(spec["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
