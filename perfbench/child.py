"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py PLAN.json RESULT.json

PLAN holds {"mode": "run" | "setup" | "trace", "argv": [...], ...}; argv is
passed to ``fracvisc.cli.main`` exactly as a user would type it after
``fracvisc``.  RESULT receives CLOCK_MONOTONIC stamps (comparable with the
parent's ``time.monotonic``) and, in trace mode, the trace.

  run    the command, stamping when set-up ends (first solver entry)
  setup  as run, but exits at the set-up stamp
  trace  the command under the tracer, then the layer pass; see run.py
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _mark_setup(stamps: dict, exit_after: bool, result_path: str, cli) -> None:
    """Stamp the first entry into a solver path (sweep runner or viscous solve)."""

    def marker(fn):
        def first_call(*args, **kwargs):
            if "setup_end" not in stamps:
                stamps["setup_end"] = time.monotonic()
                if exit_after:
                    _write(result_path, stamps)
                    sys.stdout.flush()
                    sys.stderr.flush()
                    os._exit(0)
            return fn(*args, **kwargs)

        return first_call

    cli.run_sweep = marker(cli.run_sweep)
    cli.viscous_solve = marker(cli.viscous_solve)


def main() -> int:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path) as fh:
        plan = json.load(fh)
    mode = plan["mode"]
    stamps: dict = {"start": T_START}

    if mode != "trace":
        from fracvisc import cli

        _mark_setup(stamps, mode == "setup", result_path, cli)
        code = cli.main(plan["argv"])
        stamps["end"] = time.monotonic()
        stamps["code"] = code
        _write(result_path, stamps)
        return code

    import tracer as tracing

    t_import = time.monotonic()
    from fracvisc import cli

    tr = tracing.Tracer()
    tr.add_span("cli.import", t_import, time.monotonic())
    tracing.install(tr)
    try:
        stamps["command_roots"] = [1, len(tr.spans) + 1]
        code = cli.main(plan["argv"])
        stamps["end"] = time.monotonic()
        stamps["layer_pass_codes"] = [cli.main(argv) for argv in plan["layer_pass"]]
    finally:
        tr.uninstall()
    stamps["code"] = code
    tr.dump(result_path, stamps)
    return code


if __name__ == "__main__":
    sys.exit(main())
