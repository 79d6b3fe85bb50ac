#!/usr/bin/env python3
"""Check that two source trees of duelbias write byte-identical outputs.

    python3 scripts/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src`` directories, for example of a clean
checkout of the parent commit and of the working tree. In a temporary
directory, the script generates the README demo set (generator seed 0)
and the benchmark's large set (seed 1, 2,000 items) with each tree, so
through each tree's CSV writers, and compares the generated files byte
for byte. It generates the benchmark's large-vocabulary tag log (seed 1,
36,000 rows, made by ``bench/inputs.py``) once. It then runs the same
``duelbias`` commands with each tree on OLD_SRC's generated inputs (every
subcommand at least once, so every output writer; ``bias`` and
``simulate`` also with their settings in a ``--config`` file, ``fit`` and
``bias`` also with ``--normalization sum-one``; ``fit``, ``tags`` and
``bias --tags`` on the large inputs too; a 50-replicate ``simulate`` and a
duel-unit ``bias`` on the large set, whose batches span several blocks;
one ``bias`` run that must fail; ``bias``, ``fit`` and ``duelstats`` on
copies of the large duels file that each break one duel rule near the
end, whose line-numbered errors must match, and on a copy whose duel ids
hold a quoted comma or newline, non-ASCII text, surrounding spaces or 200
characters, as it is and with a bad winner near the end; ``bias`` on an
all-ties set whose fitted scores are all equal),
and prints for every generated or output file whether the two trees' files are
identical, and for every run whether the two trees' exit codes, stdout
(with each side's output directory written as ``OUTPUT_DIR``) and stderr
are, and each tree's peak RSS, user+system CPU seconds and wall seconds
and their differences, new minus old (the child's own ``VmHWM``, which it
writes to a temporary file at exit, or its ``ru_maxrss`` where there is no
``/proc``; its ``ru_utime`` and ``ru_stime``, read with ``os.wait4``; and
the time from its start to its exit; reported only, never a failure). For
a JSON file that differs it also prints how many leaves differ, the first
ten with their old and new values, and the largest numeric difference
(reported only). It first prints each tree's real path and its length,
warning if the lengths differ, and whether the runs write bytecode: a run's peak RSS moves with
both by more than the benchmark's 0.1 MiB bound, so RSS is comparable only
between trees at paths of equal length. It exits 1 if any generated or
output file, exit code, stdout or stderr differs, a file is missing from one
side, or a run exits otherwise than expected.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
import time

SCRIPTS = os.path.dirname(os.path.abspath(__file__))
GENERATOR = os.path.join(SCRIPTS, "generate_synthetic_dataset.py")
# the benchmark's input generators, read and never changed
BENCH_INPUTS = os.path.join(os.path.dirname(SCRIPTS), "bench", "inputs.py")
TAG_VOCAB_SEED = 1
# the benchmark's large set and command arguments (bench/inputs.py, bench/run.py)
LARGE_SET_ARGS = ("--items-per-side", "200",
                  "--categories", "pizza,salad,burger,pasta,soup")
# the sets that each tree's generator writes: name -> generator seed, arguments
INPUT_SETS = {"demo": (0, ()), "large": (1, LARGE_SET_ARGS)}
SIMULATE_ARGS = ("simulate", "--items", "100", "--budgets", "100,200,500,1000,2000",
                 "--replicates", "5", "--seed", "1")
REFIT_DEMO_SEEDS = (1, 2, 3)
# each copy of the large duels file breaks one rule in its third-last row
# (0-based index 19,997): how that row is changed
BAD_DUEL_ROWS = {
    "unknown-item": lambda row, other: {**row, "item_a": "ghost"},
    "swapped-sides": lambda row, other: {**row, "item_a": row["item_b"],
                                         "item_b": row["item_a"]},
    "other-category": lambda row, other: {**row, "item_b": other["item_b"]},
    "bad-winner": lambda row, other: {**row, "winner": "X"},
    "self-duel": lambda row, other: {**row, "item_b": row["item_a"]},
    "short-row": lambda row, other: {"duel_id": row["duel_id"],
                                     "category": row["category"]},
}
# duel ids that the CSV must quote or that the reader changes, one per row in
# turn, for the copy of the large duels file with awkward ids
AWKWARD_IDS = (
    lambda k: f"d{k},comma",
    lambda k: f"d{k}\nnewline",
    lambda k: f"d{k}-caf\u00e9-\u98df\u3079\u7269",
    lambda k: f"  d{k} spaced  ",  # stripped on reading
    lambda k: f"d{k}-" + "x" * (199 - len(str(k))),  # 200 characters
)
# the rules that duelstats, which reads no catalog, applies too
RECORD_RULES = ("bad-winner", "self-duel", "short-row")
BAD_COMMANDS = ("bias", "fit", "duelstats")
# runs that must fail, and their exit code; every other run must exit 0
EXPECTED_EXIT = {
    "demo-bias-alpha0-duel": 3,
    **{f"bad-{fault}-{command}": 2 for fault in BAD_DUEL_ROWS
       for command in BAD_COMMANDS
       if command != "duelstats" or fault in RECORD_RULES},
    **{f"awkward-ids-bad-winner-{command}": 2 for command in BAD_COMMANDS},
}

# the file into which a run writes its own peak resident size, in KiB
PEAK_FILE_VARIABLE = "COMPARE_OUTPUTS_PEAK_FILE"
# runs duelbias.cli from the tree given as the first argument, and fails if
# another copy of the package (say, an installed one) is imported instead.
# Its exit hook, registered first so that it runs last, writes VmHWM: the
# peak of the child's own memory, which its ru_maxrss is not, as that is at
# least the parent's resident size at the fork. Without /proc it writes
# nothing, and the run reports ru_maxrss.
CHILD = f"""
import atexit, os, sys

def write_peak():
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            kib = next(line.split()[1] for line in status
                       if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return
    with open(os.environ["{PEAK_FILE_VARIABLE}"], "w", encoding="ascii") as f:
        f.write(kib)

atexit.register(write_peak)
import duelbias.cli
found = os.path.realpath(duelbias.cli.__file__)
if not found.startswith(os.path.realpath(sys.argv[1]) + os.sep):
    sys.exit("duelbias imported from " + found)
sys.exit(duelbias.cli.main(sys.argv[2:]))
"""


def commands(demo: str, large: str, vocab: str, tmp: str) -> dict[str, list[str]]:
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
    out["large-bias-item-tags"] = ["bias", *l_in, "--tags", f"{large}/tags.csv",
                                   "--unit", "item", "--bootstrap", "100"]
    out["vocab-tags"] = ["tags", "--items", f"{vocab}/items.csv",
                         "--tags", f"{vocab}/tags.csv"]
    out["demo-duelstats"] = ["duelstats", "--duels", f"{demo}/duels.csv"]
    out["large-duelstats"] = ["duelstats", "--duels", f"{large}/duels.csv"]
    out["demo-fit"] = ["fit", *d_in]
    out["large-fit"] = ["fit", *l_in]
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
    # runs that cross block boundaries (settings.rows_per_block): 50 replicates
    # in blocks of 32 at budget 2000, and refits of 2,000 duels in blocks of 32
    out["simulate-50-replicates"] = [
        "simulate", "--items", "100", "--budgets", "100,200,500,1000,2000",
        "--replicates", "50", "--seed", "1",
    ]
    out["large-bias-duel-pizza"] = ["bias", *l_in, "--unit", "duel",
                                    "--bootstrap", "100", "--category", "pizza"]
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
    with open(f"{large}/duels.csv", encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    awkward = [{**row, "duel_id": AWKWARD_IDS[k % len(AWKWARD_IDS)](k)}
               for k, row in enumerate(rows)]
    runs = {f"bad-{fault}": path
            for fault, path in write_bad_duels(rows, tmp, "duels").items()}
    runs["awkward-ids"] = write_duel_rows(awkward, tmp, "duels-awkward-ids")
    bad_winner = {"bad-winner": BAD_DUEL_ROWS["bad-winner"]}
    runs["awkward-ids-bad-winner"] = write_bad_duels(
        awkward, tmp, "duels-awkward-ids", bad_winner)["bad-winner"]
    for name, path in runs.items():
        inputs = ["--items", f"{large}/items.csv", "--duels", path]
        out[f"{name}-bias"] = ["bias", *inputs, "--unit", "item",
                               "--bootstrap", "100"]
        out[f"{name}-fit"] = ["fit", *inputs]
        out[f"{name}-duelstats"] = ["duelstats", "--duels", path]
    ties = write_all_ties(tmp)
    out["all-ties-bias"] = ["bias", "--items", f"{ties}/items.csv", "--duels",
                            f"{ties}/duels.csv", "--unit", "item",
                            "--bootstrap", "100"]
    return out


def write_all_ties(tmp: str) -> str:
    """A directory in ``tmp`` with items.csv and duels.csv of one category,
    two items a side and two dimensions, where every A-B pair duels twice
    and each side wins once: every fitted score is 1, so the correlation of
    the two dimensions' scores is undefined."""
    root = os.path.join(tmp, "all-ties")
    os.makedirs(root)
    items = [(f"{group.lower()}{k}", group) for group in "AB" for k in range(2)]
    with open(os.path.join(root, "items.csv"), "w", encoding="utf-8",
              newline="") as f:
        csv.writer(f).writerows([("item_id", "group", "category", "external_ref"),
                                 *((i, group, "pizza", "") for i, group in items)])
    duels = [(dimension, a, b, winner) for dimension in ("tasty", "healthy")
             for a, _ in items[:2] for b, _ in items[2:] for winner in "AB"]
    write_duel_rows([{"duel_id": f"d{k}", "category": "pizza", "dimension": dim,
                      "item_a": a, "item_b": b, "winner": winner,
                      "rater_id": f"r{k}"}
                     for k, (dim, a, b, winner) in enumerate(duels)],
                    root, "duels")
    return root


def write_duel_rows(rows: list[dict], tmp: str, name: str) -> str:
    """The path of a duels file ``name``.csv in ``tmp`` holding ``rows``."""
    path = os.path.join(tmp, f"{name}.csv")
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(rows[0].keys())
        writer.writerows(r.values() for r in rows)
    return path


def write_bad_duels(rows: list[dict], tmp: str, name: str,
                    faults=BAD_DUEL_ROWS) -> dict[str, str]:
    """Fault name -> path of a copy of the duel ``rows`` whose third-last row
    is changed as ``faults`` says, written as ``name``-fault.csv in ``tmp``;
    an item of another category is taken from the first row of another
    category."""
    row = rows[-3]
    other = next(r for r in rows if r["category"] != row["category"])
    return {fault: write_duel_rows([*rows[:-3], change(row, other), *rows[-2:]],
                                   tmp, f"{name}-{fault}")
            for fault, change in faults.items()}


def run(tree: str, args: list[str],
        cwd: str) -> tuple[int, str, str, float, float, float]:
    """The run's exit code, stdout, stderr, peak RSS in MiB, CPU seconds and
    wall seconds."""
    # stdout goes to a file, so that reading it does not reap the child
    # before os.wait4 reads its resource usage
    with tempfile.TemporaryFile("w+", encoding="utf-8") as out, \
            tempfile.NamedTemporaryFile("r", encoding="ascii") as peak:
        env = dict(os.environ, PYTHONPATH=tree, **{PEAK_FILE_VARIABLE: peak.name})
        start = time.monotonic()
        with subprocess.Popen([sys.executable, "-c", CHILD, tree, *args],
                              cwd=cwd, env=env, stdout=out,
                              stderr=subprocess.PIPE, text=True) as child:
            err = child.stderr.read()
            # the child's own resource usage; ru_maxrss is in KiB on Linux
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.monotonic() - start
            child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        printed = out.read()
        kib = int(peak.read() or usage.ru_maxrss)
    cpu = usage.ru_utime + usage.ru_stime
    return child.returncode, printed, err, kib / 1024, cpu, wall


def json_leaves(value, path: str = "") -> dict:
    """Key path -> leaf of a parsed JSON value, in document order; a path
    joins the keys and list indices under the root with "/", and an empty
    object or list is a leaf."""
    if not isinstance(value, (dict, list)) or not value:
        return {path: value}
    items = value.items() if isinstance(value, dict) else enumerate(value)
    return {leaf: v for key, item in items
            for leaf, v in json_leaves(item, f"{path}/{key}").items()}


def json_differences(old_file: str, new_file: str) -> list[str]:
    """Lines that summarize how two JSON files differ: the number of leaves
    that differ, the first ten with their old and new values, and the
    largest absolute difference between two numbers."""
    leaves = []
    for name in (old_file, new_file):
        with open(name, encoding="utf-8") as f:
            try:
                leaves.append(json_leaves(json.load(f)))
            except ValueError as exc:
                return [f"not comparable as JSON: {name}: {exc}"]
    old, new = leaves
    # repr tells 1 from 1.0 and -0.0 from 0.0, as the bytes do, and NaN
    # from nothing but NaN
    differ = [path for path in {**old, **new}
              if path not in old or path not in new
              or repr(old[path]) != repr(new[path])]

    def shown(side: dict, path: str) -> str:
        return repr(side[path]) if path in side else "missing"

    lines = [f"{len(differ)} JSON leaves differ (reported only)"]
    lines += [f"{path or '/'}: old {shown(old, path)}, new {shown(new, path)}"
              for path in differ[:10]]
    gaps = [(abs(new[path] - old[path]), path) for path in differ
            if all(type(side.get(path)) in (int, float) for side in (old, new))]
    gaps = [(gap, path) for gap, path in gaps if not math.isnan(gap)]
    if gaps:
        gap, path = max(gaps)
        lines.append(f"largest numeric difference {gap!r} at {path or '/'}")
    else:
        lines.append("no two numbers differ")
    return lines


def generate(tree: str, out: str, seed: int, extra=()) -> None:
    env = dict(os.environ, PYTHONPATH=tree)
    subprocess.run([sys.executable, GENERATOR, "--out", out, "--seed", str(seed),
                    *extra], check=True, env=env, stdout=subprocess.DEVNULL)


def generate_tag_vocab(out: str) -> None:
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    inputs.tag_vocab_set(out, TAG_VOCAB_SEED)


def files_under(root: str) -> set[str]:
    return {
        os.path.relpath(os.path.join(d, f), root)
        for d, _, names in os.walk(root) for f in names
    }


def compare_files(name: str, old_root: str, new_root: str) -> bool:
    """Print ``name``/path and whether the file is identical under both
    roots, for every file under either, and for a JSON file that differs a
    summary of its differences; returns whether every file is identical. A
    missing root walks as empty."""
    ok = True
    old, new = files_under(old_root), files_under(new_root)
    for rel in sorted(old | new):
        if rel not in old or rel not in new:
            verdict = f"only in {'old' if rel in old else 'new'}"
        elif filecmp.cmp(os.path.join(old_root, rel), os.path.join(new_root, rel),
                         shallow=False):
            verdict = "identical"
        else:
            verdict = "DIFFERS"
        ok = ok and verdict == "identical"
        print(f"{name}/{rel}: {verdict}")
        if verdict == "DIFFERS" and rel.endswith(".json"):
            for line in json_differences(os.path.join(old_root, rel),
                                         os.path.join(new_root, rel)):
                print(f"  {line}")
    return ok


def generate_inputs(trees: dict[str, str], tmp: str) -> tuple[dict[str, str], bool]:
    """Write each of ``INPUT_SETS`` with each tree's generator, which writes
    through that tree's ``write_items``, ``write_duels`` and ``write_tags``,
    into ``tmp``/inputs-<side>/<set>, and compare the files (see
    ``compare_files``). Returns the old tree's directory of each set, which
    every run reads, and whether every file is identical."""
    roots = {side: os.path.join(tmp, f"inputs-{side}") for side in trees}
    for side, tree in trees.items():
        for name, (seed, extra) in INPUT_SETS.items():
            generate(tree, os.path.join(roots[side], name), seed, extra)
    same = compare_files("inputs", roots["old"], roots["new"])
    return {name: os.path.join(roots["old"], name) for name in INPUT_SETS}, same


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    args = parser.parse_args()
    trees = {"old": os.path.realpath(args.old_src),
             "new": os.path.realpath(args.new_src)}
    for side, tree in trees.items():
        print(f"{side} tree: {tree} ({len(tree)} characters)")
    if len(trees["old"]) != len(trees["new"]):
        print("warning: the trees' paths differ in length, so their peak RSS "
              "may differ by a few tenths of a MiB for that alone")
    # the runs inherit this environment and no -B flag
    bytecode = not os.environ.get("PYTHONDONTWRITEBYTECODE")
    print(f"bytecode written: {'yes' if bytecode else 'no (PYTHONDONTWRITEBYTECODE)'}")
    with tempfile.TemporaryDirectory() as tmp:
        sets, ok = generate_inputs(trees, tmp)
        demo, large, vocab = sets["demo"], sets["large"], os.path.join(tmp, "vocab")
        generate_tag_vocab(vocab)
        for name, cli_args in commands(demo, large, vocab, tmp).items():
            outs, ends, rss, cpu, wall = {}, {}, {}, {}, {}
            for side, tree in trees.items():
                outs[side] = os.path.join(tmp, side, name)
                code, printed, err, rss[side], cpu[side], wall[side] = run(
                    tree, [*cli_args, "--output-dir", outs[side]], tmp
                )
                ends[side] = code, printed.replace(outs[side], "OUTPUT_DIR"), err
                if code != EXPECTED_EXIT.get(name, 0):
                    print(f"{name}: FAILED with the {side} tree (exit {code})")
                    ok = False
            same = ends["old"] == ends["new"]
            ok = ok and same
            print(f"{name}: exit code, stdout and stderr "
                  f"{'identical' if same else 'DIFFER'}")
            print(f"{name}: peak RSS old {rss['old']:.1f} MiB, "
                  f"new {rss['new']:.1f} MiB "
                  f"({rss['new'] - rss['old']:+.2f} MiB, reported only)")
            print(f"{name}: CPU old {cpu['old']:.3f} s, new {cpu['new']:.3f} s "
                  f"({cpu['new'] - cpu['old']:+.3f} s, reported only)")
            print(f"{name}: wall old {wall['old']:.3f} s, new {wall['new']:.3f} s "
                  f"({wall['new'] - wall['old']:+.3f} s, reported only)")
            for side, (code, printed, err) in ends.items() if not same else ():
                print(f"  {side}: exit {code}, stdout {printed!r}, stderr {err!r}")
            ok = compare_files(name, outs["old"], outs["new"]) and ok
    print("all outputs identical" if ok else "outputs differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
