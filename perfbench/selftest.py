"""Smoke test of the benchmark itself, at a tiny size (about 10 s).

    python3 perfbench/selftest.py

Runs every workload untraced and traced on a few small items and checks
that every metric BENCHMARK.json names is reported with its unit, that no
item fails, that spans nest, that the answer checks reject a wrong answer,
and that the benchmark refuses to run where the program is missing.
"""

import json
import random
import shutil
import subprocess
import sys

import inputs
import run
from tracing import Tracer, load_layers
from workloads import Outcome, build

SEED = 20240917


def declared(kind: str) -> dict:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[kind]}


def check_result(result: dict, kind: str) -> None:
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared(kind), set(units) ^ set(declared(kind))


def check_spans(workload: str) -> None:
    dump = json.loads((run.WORK / workload / "spans.json").read_text(encoding="utf-8"))
    tracer = Tracer(load_layers())
    tracer.spans = dump["spans"]
    assert tracer.spans and not tracer.nesting_errors(), tracer.nesting_errors()[:3]
    roots = [s for s in tracer.spans if s[3] < 0]
    assert all(s[0] == "item" for s in roots)


def check_wrong_answer_is_caught() -> None:
    root = run.WORK / "selftest"
    shutil.rmtree(root, ignore_errors=True)
    item = build("theorem-groups", SEED, root, tiny=True).passes[0][0]
    report = {
        "centre_order": 5, "ayc_centre_order": 4, "subcanonical": True,
        "empty_cover_objects": [], "restricted_centre_order": 4,
        "per_sheaf": [{"isotropy_order": 4}] * 5, "violations": [],
    }
    try:
        item.check(Outcome(0, json.dumps(report), "", None))
    except AssertionError:
        pass
    else:
        raise AssertionError("a wrong centre order passed the check")
    report["centre_order"] = 4
    item.check(Outcome(0, json.dumps(report), "", None))


def check_relabelling_keeps_answers() -> None:
    rng = random.Random(SEED)
    for site in (inputs.cylinder_cover(3), inputs.SiteSpec(inputs.quaternion8())):
        copy = inputs.relabel(site, rng)
        assert inputs.brute_centre_order(copy.cat) == inputs.brute_centre_order(site.cat)


def check_refuses_without_program() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-requests",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc


def main() -> int:
    run.WORK = run.WORK / "selftest"  # leave the inputs of real runs alone
    check_wrong_answer_is_caught()
    check_relabelling_keeps_answers()
    check_refuses_without_program()
    for workload in run.WORKLOADS:
        check_result(run.report(*run.timed(workload, SEED, 1, tiny=True)), "end_to_end")
        check_result(run.report(*run.traced(workload, SEED, tiny=True)), "per_layer")
        check_spans(workload)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
