#!/usr/bin/env python3
"""Check that two source trees of duelbias write byte-identical outputs.

    python3 scripts/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src`` directories, for example of a clean
checkout of the parent commit and of the working tree. The script
generates the README demo set (generator seed 0) and the benchmark's
large set (seed 1, 2,000 items) into a temporary directory with OLD_SRC,
runs the same ``duelbias`` commands with each tree (every subcommand at
least once, so every output writer; ``bias`` and ``simulate`` also with
their settings in a ``--config`` file, ``fit`` and ``bias`` also with
``--normalization sum-one``; one ``bias`` run that must fail), and prints
for every output file whether the two trees' files are identical, and
for every run whether the two trees' exit codes and stderr are, and each
tree's peak RSS (the child's ``ru_maxrss``, read with ``os.wait4``;
reported only, never a failure). It exits
1 if any file, exit code or stderr differs, a file is missing from one
side, or a run exits otherwise than expected.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile

GENERATOR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "generate_synthetic_dataset.py")
# the benchmark's large set and command arguments (bench/inputs.py, bench/run.py)
LARGE_SET_ARGS = ("--items-per-side", "200",
                  "--categories", "pizza,salad,burger,pasta,soup")
SIMULATE_ARGS = ("simulate", "--items", "100", "--budgets", "100,200,500,1000,2000",
                 "--replicates", "5", "--seed", "1")
REFIT_DEMO_SEEDS = (1, 2, 3)
# runs that must fail, and their exit code; every other run must exit 0
EXPECTED_EXIT = {"demo-bias-alpha0-duel": 3}

# runs duelbias.cli from the tree given as the first argument, and fails if
# another copy of the package (say, an installed one) is imported instead
CHILD = (
    "import os, sys, duelbias.cli; "
    "found = os.path.realpath(duelbias.cli.__file__); "
    "found.startswith(os.path.realpath(sys.argv[1]) + os.sep) "
    "or sys.exit('duelbias imported from ' + found); "
    "sys.exit(duelbias.cli.main(sys.argv[2:]))"
)


def commands(demo: str, large: str, tmp: str) -> dict[str, list[str]]:
    """Output directory name -> duelbias arguments; the config files of the
    runs that read their settings from ``--config`` are written into ``tmp``."""
    d_in = ["--items", f"{demo}/items.csv", "--duels", f"{demo}/duels.csv"]
    l_in = ["--items", f"{large}/items.csv", "--duels", f"{large}/duels.csv"]
    tags = ["--tags", f"{demo}/tags.csv"]
    out = {
        f"demo-bias-{unit}": ["bias", *d_in, *tags, "--unit", unit,
                              "--bootstrap", "1000"]
        for unit in ("duel", "item")
    }
    out["large-bias-item"] = ["bias", *l_in, "--unit", "item", "--bootstrap", "1000"]
    out["demo-duelstats"] = ["duelstats", "--duels", f"{demo}/duels.csv"]
    out["demo-fit"] = ["fit", *d_in]
    out["demo-fit-pizza-tasty"] = ["fit", *d_in, "--category", "pizza",
                                   "--dimension", "tasty"]
    out["demo-fit-sum-one"] = ["fit", *d_in, "--normalization", "sum-one"]
    out["demo-bias-sum-one"] = ["bias", *d_in, "--normalization", "sum-one",
                                "--unit", "item", "--bootstrap", "1000"]
    for distinct in (False, True):
        out[f"demo-design{'-distinct' if distinct else ''}"] = [
            "design", "--items", f"{demo}/items.csv", "--duels-per-item", "4",
            "--seed", "2", *(["--distinct-opponents"] if distinct else []),
        ]
    out["demo-tags"] = ["tags", "--items", f"{demo}/items.csv", *tags]
    out["demo-freq"] = ["freq", "--items", f"{demo}/items.csv"]
    out["simulate"] = list(SIMULATE_ARGS)
    # more than 10% of its refits fail: an unstable bootstrap
    out["demo-bias-alpha0-duel"] = ["bias", *d_in, "--alpha", "0", "--unit", "duel",
                                    "--bootstrap", "200"]
    for seed in REFIT_DEMO_SEEDS:
        out[f"refit-demo-seed{seed}"] = [
            "bias", *d_in, "--unit", "duel", "--bootstrap", "100",
            "--category", "pizza", "--dimension", "tasty", "--seed", str(seed),
        ]
    config_runs = {
        "demo-bias-config": (["bias", *d_in], {
            "bootstrap": 200, "unit": "duel", "seed": 4, "alpha": 0.2,
            "tolerance": 1e-9}),
        "simulate-config": (["simulate"], {
            "budgets": "100,200", "replicates": 3, "rater_noise": 0.3}),
    }
    for name, (command, settings) in config_runs.items():
        path = os.path.join(tmp, f"{name}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(settings, f)
        out[name] = [*command, "--config", path]
    return out


def run(tree: str, args: list[str], cwd: str) -> tuple[int, str, float]:
    """The run's exit code, stderr and peak RSS in MiB."""
    env = dict(os.environ, PYTHONPATH=tree)
    with subprocess.Popen([sys.executable, "-c", CHILD, tree, *args], cwd=cwd,
                          env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True) as child:
        err = child.stderr.read()
        # the child's own resource usage; ru_maxrss is in KiB on Linux
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, err, usage.ru_maxrss / 1024


def generate(tree: str, out: str, seed: int, extra=()) -> None:
    env = dict(os.environ, PYTHONPATH=tree)
    subprocess.run([sys.executable, GENERATOR, "--out", out, "--seed", str(seed),
                    *extra], check=True, env=env, stdout=subprocess.DEVNULL)


def files_under(root: str) -> set[str]:
    return {
        os.path.relpath(os.path.join(d, f), root)
        for d, _, names in os.walk(root) for f in names
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    args = parser.parse_args()
    trees = {"old": os.path.realpath(args.old_src),
             "new": os.path.realpath(args.new_src)}
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        demo, large = os.path.join(tmp, "demo"), os.path.join(tmp, "large")
        generate(trees["old"], demo, 0)
        generate(trees["old"], large, 1, LARGE_SET_ARGS)
        for name, cli_args in commands(demo, large, tmp).items():
            outs, ends, rss = {}, {}, {}
            for side, tree in trees.items():
                outs[side] = os.path.join(tmp, side, name)
                code, err, rss[side] = run(
                    tree, [*cli_args, "--output-dir", outs[side]], tmp
                )
                ends[side] = code, err
                if code != EXPECTED_EXIT.get(name, 0):
                    print(f"{name}: FAILED with the {side} tree (exit {code})")
                    ok = False
            same = ends["old"] == ends["new"]
            ok = ok and same
            print(f"{name}: exit code and stderr {'identical' if same else 'DIFFER'}")
            print(f"{name}: peak RSS old {rss['old']:.1f} MiB, "
                  f"new {rss['new']:.1f} MiB")
            for side, (code, err) in ends.items() if not same else ():
                print(f"  {side}: exit {code}, stderr {err!r}")
            # a missing output directory walks as empty
            old, new = files_under(outs["old"]), files_under(outs["new"])
            for rel in sorted(old | new):
                if rel not in old or rel not in new:
                    verdict = f"only in {'old' if rel in old else 'new'}"
                elif filecmp.cmp(os.path.join(outs["old"], rel),
                                 os.path.join(outs["new"], rel), shallow=False):
                    verdict = "identical"
                else:
                    verdict = "DIFFERS"
                ok = ok and verdict == "identical"
                print(f"{name}/{rel}: {verdict}")
    print("all outputs identical" if ok else "outputs differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
