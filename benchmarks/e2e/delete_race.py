"""Reproduce: two connections make a mutable store lose acknowledged appends.

One connection appends 16 rows and then deletes 4 of the ids it was just
given, over and over (each delete commits the manifest); four more
connections send 1-query ``/range`` requests.  On the seed some deletes answer 400
"unknown or already deleted" although the ids were acknowledged and never
deleted before: a request handled between the manifest replace and the
digest update makes ``IndexCache`` reload the store and drop its buffer.
See README.md, "Seed findings".  Exit code 1 when the loss is observed.

    python3 benchmarks/e2e/delete_race.py [--seconds 20] [--seed 0]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import threading
import time

from run import WORK, enter_checkout

#: More readers, more requests landing inside a commit.
READERS = 4


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    enter_checkout()
    import numpy as np
    import repro
    from httpclient import Connection, ServerProcess
    from inputs import Mixture

    workdir = WORK / f"race-{os.getpid()}"
    workdir.mkdir()
    mix = Mixture(args.seed, 4096, 32, 32)
    rng = np.random.default_rng(args.seed)
    lost: list[str] = []
    counts = {"appends": 0, "deletes": 0, "ranges": 0}
    deadline = time.monotonic() + args.seconds
    try:
        repro.build_index(mix.data, mix.eps, workdir / "store", mutable=True, seal_threshold=64)
        with ServerProcess(workdir / "store", workdir) as server:
            # Load the store before the threads start, so that two first
            # requests loading it twice (a second way to lose a buffer) is
            # not what is observed.
            warm = Connection(server.port)
            warm.request("POST", "/range", json.dumps({"queries": mix.data[:1].tolist()}).encode())
            warm.close()

            def writer() -> None:
                conn = Connection(server.port)
                while time.monotonic() < deadline:
                    rows = mix.queries(rng, 1, 16, None)[0]
                    status, reply = conn.request("POST", "/append", json.dumps({"rows": rows.tolist()}).encode())
                    if status != 200:
                        continue
                    counts["appends"] += 1
                    ids = json.loads(reply)["ids"][:4]
                    status, reply = conn.request("POST", "/delete", json.dumps({"ids": ids}).encode())
                    counts["deletes"] += 1
                    if status != 200:
                        lost.append(f"/delete {ids} -> {status} {reply[:120].decode('utf-8', 'replace')}")
                conn.close()

            def reader() -> None:
                conn = Connection(server.port)
                body = json.dumps({"queries": mix.data[:1].tolist()}).encode()
                while time.monotonic() < deadline:
                    conn.request("POST", "/range", body)
                    counts["ranges"] += 1
                conn.close()

            threads = [threading.Thread(target=writer)] + [threading.Thread(target=reader) for _ in range(READERS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{counts['appends']} appends, {counts['deletes']} deletes of acknowledged ids, {counts['ranges']} concurrent ranges")
    print(f"{len(lost)} deletes refused:")
    for line in lost[:10]:
        print("  " + line)
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
