"""Run one `ytl` command under cProfile, for the benchmark's traced run.

    python3 perfbench/cliprof.py STATS_FILE [ytl arguments...]

Behaves like `python -m ytl.cli [ytl arguments...]` (same output and exit
code), and also writes the profile to STATS_FILE and the lru_cache counters
of the library to STATS_FILE.cache.json. The library must be importable
(the benchmark puts src/ on PYTHONPATH).
"""

import cProfile
import json
import sys


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    profile = cProfile.Profile()
    profile.enable()
    try:
        from ytl import cli
        code = cli.main(argv)
    finally:
        profile.disable()
        profile.dump_stats(stats_path)
    from tracing import cache_infos
    from workloads import load_ytl
    with open(stats_path + ".cache.json", "w") as fh:
        json.dump(cache_infos(load_ytl()), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
