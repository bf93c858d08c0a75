"""Time the set-up a CLI user pays in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR SPEC [SPEC ...]

Imports ``covertq`` from SRC_DIR and parses every SPEC with ``load_spec``,
then prints one JSON line: the elapsed seconds and the number of specs
that were rejected with a library error (the faulty fixture is).
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    sys.path.insert(0, argv[0])
    import covertq  # noqa: F401
    from covertq.errors import CovertqError
    from covertq.specio import load_spec

    rejected = 0
    for path in argv[1:]:
        try:
            load_spec(path)
        except CovertqError:
            rejected += 1
    print(json.dumps({"setup_s": time.perf_counter() - start, "rejected": rejected}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
