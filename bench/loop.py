"""Closed-loop runner: run a list of cold child processes one at a time.

    python3 -S bench/loop.py PLAN.json RESULTS.json BLOBS.bin

PLAN.json holds {"env": {...}, "warmup": [argv, ...], "argvs": [argv, ...]}.
Each child's wall time runs from spawn to exit with stdout and stderr
drained; its CPU time and peak RSS come from os.wait4.  RESULTS.json gets
one [returncode, wall_s, cpu_s, maxrss_kb, stdout_len, stderr_len] per argv
and a [child index, wall_s] per calibration process, which ran just
before that child (or after the last one); BLOBS.bin gets each child's
stdout then stderr, in order.

A calibration process does fixed work with the standard library only and
runs no chigenus code.  Its wall time reads how fast this host runs cold
Python processes right then, so run.py can scale each child's times to a
reference host speed (see run.py).

This runs in its own lean process (no site, few imports) because a child's
ru_maxrss also counts the memory of the process that spawned it: the
benchmark's main process, with its checker loaded, is larger than a
chigenus process, while this one is smaller.
"""

import json
import os
import selectors
import sys
import time

OP_TIMEOUT_S = 120.0
# A cold Python process that imports the standard modules chigenus uses and
# multiplies truncated series with Fraction coefficients, as chigenus does,
# but runs none of its code.  It takes about 0.1 s; one runs before the
# first child, after the last, and before any child that starts at least
# CALIBRATION_INTERVAL_S after the previous calibration.
CALIBRATION_CODE = """
import argparse, dataclasses, functools, json
from fractions import Fraction
def mul(a, b, n):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            if i + j <= n:
                out[i + j] = out.get(i + j, 0) + x * y
    return out
p = {i: Fraction(1, i + 1) for i in range(25)}
q = dict(p)
for _ in range(4):
    q = mul(q, p, 24)
json.dumps({str(k): str(v) for k, v in q.items()})
"""
CALIBRATION_INTERVAL_S = 1.0


def run_cold(argv, env):
    """Spawn argv and reap it: (returncode, wall_s, cpu_s, maxrss_kb, stdout, stderr)."""
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, out_w, 1),
        (os.POSIX_SPAWN_DUP2, err_w, 2),
    ]
    chunks = {out_r: [], err_r: []}
    start = time.perf_counter()
    try:
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    except BaseException:
        for fd in (out_r, err_r):
            os.close(fd)
        raise
    finally:
        os.close(out_w)
        os.close(err_w)
    reaped = False
    try:
        with selectors.DefaultSelector() as selector:
            for fd in chunks:
                selector.register(fd, selectors.EVENT_READ)
            deadline = start + OP_TIMEOUT_S
            while selector.get_map():
                events = selector.select(timeout=max(0.0, deadline - time.perf_counter()))
                if not events:
                    raise TimeoutError(f"{argv[1:]} ran longer than {OP_TIMEOUT_S} s")
                for key, _ in events:
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        selector.unregister(key.fd)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        os.close(out_r)
        os.close(err_r)
    wall = time.perf_counter() - start
    return (
        os.waitstatus_to_exitcode(status),
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss,
        b"".join(chunks[out_r]),
        b"".join(chunks[err_r]),
    )


def calibrate(env):
    """Wall time of one calibration process: the host's current speed."""
    code, wall, _, _, _, err = run_cold([sys.executable, "-c", CALIBRATION_CODE], env)
    if code != 0:
        raise RuntimeError(f"calibration process exited with {code}: {err.decode('utf-8', 'replace')[-500:]}")
    return wall


def main():
    plan_path, results_path, blobs_path = sys.argv[1:4]
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    env = plan["env"]
    calibrate(env)
    for argv in plan["warmup"]:
        run_cold(argv, env)
    rows, calibration, last = [], [], None
    with open(blobs_path, "wb") as blobs:
        for index, argv in enumerate(plan["argvs"]):
            if last is None or time.perf_counter() - last >= CALIBRATION_INTERVAL_S:
                calibration.append([index, calibrate(env)])
                last = time.perf_counter()
            code, wall, cpu, maxrss, out, err = run_cold(argv, env)
            blobs.write(out)
            blobs.write(err)
            rows.append([code, wall, cpu, maxrss, len(out), len(err)])
        calibration.append([len(plan["argvs"]), calibrate(env)])
    with open(results_path, "w", encoding="utf-8") as handle:
        json.dump({"rows": rows, "calibration": calibration}, handle)


if __name__ == "__main__":
    main()
