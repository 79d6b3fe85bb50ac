"""scripts/score_report.py: a hand-made report and truth with known
answers, and the script's own imports."""

import csv
import importlib.util
import json
import os
import subprocess
import sys

import pytest

SCRIPT = os.path.join(
    os.path.dirname(__file__), os.pardir, "scripts", "score_report.py"
)

# per category, group A's and group B's log-qualities: the truths are
# 1.5 - 0.5 = 1.0 for pizza and -0.5 - 0.0 = -0.5 for salad
TRUTH = {"pizza": ([0.0, 1.0], [1.0, 2.0]), "salad": ([0.0], [-0.5])}


def _estimate(point, low, high):
    return {"point": point, "ci": [low, high]}


REPORT = {
    "tournaments": {
        "pizza/tasty": {
            "category": "pizza", "dimension": "tasty",
            "score_bias": _estimate(1.25, 0.75, 1.5),
            "triangle_lower_bound": _estimate(0.625, 0.375, 0.75),
        },
        "salad/tasty": {
            "category": "salad", "dimension": "tasty",
            "score_bias": _estimate(-0.25, -0.375, 0.25),
            "triangle_lower_bound": _estimate(0.125, 0.0, 0.1875),
        },
    },
    "pooled": {
        "tasty": {
            "mean_category_bias": _estimate(0.5, 0.125, 0.75),
            "mean_median_percentile": _estimate(70.0, 60.0, 80.0),
            "triangle_lower_bound": _estimate(0.25, 0.0625, 0.375),
        },
    },
}


@pytest.fixture(scope="module")
def scorer():
    spec = importlib.util.spec_from_file_location("score_report", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def files(tmp_path):
    truth = tmp_path / "truth.csv"
    with open(truth, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["item_id", "group", "category", "log_quality"])
        for category, groups in TRUTH.items():
            for group, values in zip("AB", groups):
                writer.writerows(
                    (f"{group}-{category}-{i}", group, category, repr(v))
                    for i, v in enumerate(values)
                )
    report = tmp_path / "report.json"
    report.write_text(json.dumps(REPORT), encoding="utf-8")
    return str(report), str(truth)


def test_category_truths(scorer, files):
    assert scorer.category_truths(files[1]) == {"pizza": 1.0, "salad": -0.5}


def test_rows(scorer):
    rows = scorer.score(REPORT, {"pizza": 1.0, "salad": -0.5})
    assert rows == {
        "pizza/tasty": {"truth": 1.0, "point": 1.25, "error": 0.25,
                        "bias_covers": True, "bound_covers": True},
        "salad/tasty": {"truth": -0.5, "point": -0.25, "error": 0.25,
                        "bias_covers": False, "bound_covers": False},
        # the truth is the mean of the two tournaments' truths, 0.25
        "pooled/tasty": {"truth": 0.25, "point": 0.5, "error": 0.25,
                         "bias_covers": True, "bound_covers": True},
    }


def test_printed_table(scorer, files, capsys):
    assert scorer.main(list(files)) == 0
    assert capsys.readouterr().out.splitlines() == [
        "row             truth    point    error bias-CI-covers bound-CI-covers",
        "pizza/tasty    1.0000   1.2500  +0.2500            yes             yes",
        "salad/tasty   -0.5000  -0.2500  +0.2500             no              no",
        "pooled/tasty   0.2500   0.5000  +0.2500            yes             yes",
        # point/truth: 1.25 and 0.5
        "tournaments: score-bias CI covers 1/2, triangle CI covers 1/2, "
        "mean point/truth 0.88",
    ]


def test_imports_no_package_code(files):
    # the scorer must not share code with what it scores
    check = (
        "import runpy, sys; sys.argv = [sys.argv[1], *sys.argv[2:]]; "
        "runpy.run_path(sys.argv[0], run_name='__main__')"
    )
    probe = (
        "import atexit, sys; atexit.register(lambda: print(sorted("
        "m for m in sys.modules if m.split('.')[0] in ('numpy', 'duelbias'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", f"{probe}; {check}", SCRIPT, *files],
        check=True, capture_output=True, text=True,
    ).stdout
    assert out.splitlines()[-1] == "[]"
