"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, for every workload, that a short untraced and a short traced run
print every metric that BENCHMARK.json names and pass their output checks;
that the traced run's outputs and check verdicts equal the untraced run's;
that every tracing wrapper is removed afterwards; and that the benchmark
fails without printing a result when the package source is absent.  Takes
under a minute.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> tuple[int, list[str]]:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def check_wrappers_removed() -> list[str]:
    """Install and uninstall the tracer in this process; compare attributes."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import mcsum.cli  # noqa: F401
    from spans import Tracer

    targets = [(sys.modules[m], "solve_chain") for m in ("mcsum.scan", "mcsum.report", "mcsum.cli")]
    originals = [getattr(mod, name) for mod, name in targets]
    errors = []
    tracer = Tracer()
    tracer.install()
    if any(getattr(mod, name) is orig for (mod, name), orig in zip(targets, originals)):
        errors.append("install left an imported name unwrapped")
    tracer.uninstall()
    if Tracer.wrappers_left():
        errors.append(f"wrappers left after uninstall: {Tracer.wrappers_left()}")
    if any(getattr(mod, name) is not orig for (mod, name), orig in zip(targets, originals)):
        errors.append("uninstall did not restore the original functions")
    return errors


def main() -> int:
    errors = check_wrappers_removed()
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            rc, lines = run(ROOT, workload, trace)
            tag = f"{workload} --trace {trace}"
            if rc != 0 or not lines:
                errors.append(f"{tag}: exit {rc}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                errors.append(f"{tag}: output check failed")
            missing = {m["name"] for m in SPEC[group]} - set(result["metrics"])
            extra = set(result["metrics"]) - {m["name"] for m in SPEC[group]}
            if missing or extra:
                errors.append(f"{tag}: missing {sorted(missing)}, unexpected {sorted(extra)}")
            if trace:
                check = json.loads(next(ln for ln in lines if ln.startswith("trace_check "))[12:])
                if not (check["outputs_identical"] and check["verdicts_identical"]):
                    errors.append(f"{tag}: traced and untraced outputs differ")
                if check["wrappers_left"] or check["not_found"]:
                    errors.append(f"{tag}: {check}")
            print(f"{tag}: {len(result['metrics'])} metrics, {result['attempted']} operations")

    bare = HERE / ".work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        rc, lines = run(bare, SPEC["workloads"][0]["name"], 0)
        if rc == 0 or (lines and lines[-1].startswith("{")):
            errors.append(f"without the package source: exit {rc}, last line {lines[-1:]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print("FAIL: " + e)
    print("selftest " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
