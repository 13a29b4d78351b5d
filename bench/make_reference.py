"""Write bench/reference.json from the warm-up outputs of every workload.

    python3 bench/make_reference.py

Run it only at a commit whose outputs are trusted: every benchmark run
compares its warm-up operations against this file.
"""

import json
import sys

import run  # fixes the BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def main() -> None:
    run.OUT_DIR.mkdir(exist_ok=True)
    reference = {}
    for name in run.WORKLOADS:
        _, reference[name] = workloads.make(name, run.OUT_DIR).setup()
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n",
                                        encoding="utf-8")


if __name__ == "__main__":
    main()
