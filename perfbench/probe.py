"""Fresh-interpreter probes started by run.py.

    python3 perfbench/probe.py setup WORKLOAD SEED
        import structdae, build the workload's model, then print "ready"
        (the parent times from process start to that line);
    python3 perfbench/probe.py import
        print the seconds `import structdae.cli` takes in this interpreter.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv):
    if argv[0] == "import":
        start = time.perf_counter()
        import structdae.cli  # noqa: F401
        print(repr(time.perf_counter() - start), flush=True)
        return 0
    _, name, seed = argv
    import structdae as sd
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workload.build_model(sd, workload.inputs(int(seed)))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
