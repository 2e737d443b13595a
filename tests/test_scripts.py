import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def bench_pairs(parent, change, record, env=None, workload="fig3_quartic"):
    """One pair of bench_pairs.py at seed 11, of fig3_quartic, the cheapest
    workload on the compiled body, unless another workload is named."""
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), str(parent), str(change),
         "--pairs", "1", "--seed", "11", "--workload", workload,
         "--out", str(record)],
        capture_output=True, text=True, timeout=300, env=env,
    )


def test_bench_pairs_runs_one_pair_of_identical_trees(tmp_path):
    # a tree without bytecode, in which no run may write any: the script
    # compiles every module before it times a run
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    record = tmp_path / "pairs.json"
    out = bench_pairs(tree, tree, record, {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    package = tree / "src" / "salab"
    assert {p.name.split(".")[0] for p in (package / "__pycache__").glob("*.pyc")} \
        == {p.stem for p in package.glob("*.py")}
    # without a compiler both runs take the numpy body, which is a problem
    compiled = shutil.which("cc") is not None
    assert out.returncode == (0 if compiled else 1), out.stdout + out.stderr
    pairs = json.loads(record.read_text())["pairs"]
    assert set(pairs) == {"fig3_quartic"}
    run = pairs["fig3_quartic"]
    engine = "compiled" if compiled else "numpy"
    assert run["engines"] == {"parent": [engine], "change": [engine]}
    (isa,) = run["kernel_isa"]["parent"]
    assert run["kernel_isa"]["change"] == [isa]
    assert isa in (("x86-64-v4", "avx2", "default") if compiled else (None,))
    assert run["seeds"] == [11]
    assert all("engine numpy, not compiled" in p for p in run["problems"])
    assert len(run["problems"]) == (0 if compiled else 4)    # warm-up and timed runs
    assert run["identical_csvs"] == 1 and run["differing_csvs"] == {}
    for side in ("parent", "change"):
        for metric in ("cpu_s", "peak_rss_mb", "manifest_peak_rss_mb"):
            assert len(run[side][metric]["runs"]) == 1
            assert run[side][metric]["median"] > 0


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_bench_pairs_lists_a_side_that_fell_back_to_the_numpy_body(tmp_path):
    # a kernel source that does not compile: that side runs the numpy
    # body, which writes the same bytes, so only the engine tells; the
    # workload is simulate_wide, the cheapest on the numpy body
    broken = tmp_path / "broken"
    shutil.copytree(ROOT / "src", broken / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(broken / "src" / "salab" / "_step.c", "a") as fh:
        fh.write("\n#error no kernel\n")
    record = tmp_path / "pairs.json"
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache")}
    out = bench_pairs(ROOT, broken, record, env, workload="simulate_wide")
    assert out.returncode == 1, out.stdout + out.stderr
    run = json.loads(record.read_text())["pairs"]["simulate_wide"]
    assert run["engines"] == {"parent": ["compiled"], "change": ["numpy"]}
    assert run["kernel_isa"]["change"] == [None] and run["kernel_isa"]["parent"] != [None]
    assert run["problems"] == ["change seed 11 (warm-up): engine numpy, not compiled",
                               "change seed 11: engine numpy, not compiled",
                               "seed 11: engines differ: "
                               "{'parent': 'compiled', 'change': 'numpy'}"]
    assert run["identical_csvs"] == 1
