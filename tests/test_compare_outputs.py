"""scripts/compare_outputs.py: its JSON difference summary, its file
comparison, the inputs that each tree generates, and the peak resident
size that each run reports for itself."""

import importlib.util
import json
import os
import shutil
import textwrap

import pytest

SCRIPT = os.path.join(
    os.path.dirname(__file__), os.pardir, "scripts", "compare_outputs.py"
)


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _differences(compare, tmp_path, old, new):
    files = []
    for name, value in (("old.json", old), ("new.json", new)):
        (tmp_path / name).write_text(json.dumps(value), encoding="utf-8")
        files.append(str(tmp_path / name))
    return compare.json_differences(*files)


class TestJsonLeaves:
    def test_key_paths_in_document_order(self, compare):
        leaves = compare.json_leaves({"b": {"x": 1, "y": [2, "s"]}, "a": None})
        assert list(leaves.items()) == [
            ("/b/x", 1), ("/b/y/0", 2), ("/b/y/1", "s"), ("/a", None)
        ]

    def test_empty_containers_and_a_scalar_root_are_leaves(self, compare):
        assert compare.json_leaves({"e": {}, "l": []}) == {"/e": {}, "/l": []}
        assert compare.json_leaves(5) == {"": 5}


class TestJsonDifferences:
    def test_identical(self, compare, tmp_path):
        value = {"ci": [0.1, 0.2], "n": 3}
        assert _differences(compare, tmp_path, value, value) == [
            "0 JSON leaves differ (reported only)",
            "no two numbers differ",
        ]

    def test_counts_every_leaf_and_shows_the_first_ten(self, compare, tmp_path):
        old = {f"k{i}": float(i) for i in range(12)}
        new = {f"k{i}": i + 0.25 * (i == 7) + 0.5 for i in range(12)}
        lines = _differences(compare, tmp_path, old, new)
        assert lines[0] == "12 JSON leaves differ (reported only)"
        assert lines[1:11] == [
            f"/k{i}: old {float(i)!r}, new {new[f'k{i}']!r}" for i in range(10)
        ]
        assert lines[11:] == ["largest numeric difference 0.75 at /k7"]

    def test_a_leaf_on_one_side_shows_missing(self, compare, tmp_path):
        lines = _differences(compare, tmp_path, {"a": 1, "c": [1]}, {"a": 1, "b": 2})
        assert lines == [
            "2 JSON leaves differ (reported only)",
            "/c/0: old 1, new missing",
            "/b: old missing, new 2",
            "no two numbers differ",
        ]

    def test_int_from_float_and_signed_zeros_differ_but_nan_does_not(
        self, compare, tmp_path
    ):
        lines = _differences(
            compare, tmp_path,
            {"i": 1, "z": 0.0, "n": float("nan")},
            {"i": 1.0, "z": -0.0, "n": float("nan")},
        )
        assert lines[:3] == [
            "2 JSON leaves differ (reported only)",
            "/i: old 1, new 1.0",
            "/z: old 0.0, new -0.0",
        ]
        assert lines[3].startswith("largest numeric difference 0.0 at ")

    def test_largest_difference_skips_nan_booleans_and_text(self, compare, tmp_path):
        lines = _differences(
            compare, tmp_path,
            {"a": 1.0, "b": float("nan"), "c": "x", "d": True, "e": 3},
            {"a": 1.5, "b": 20.0, "c": "y", "d": False, "e": 2.75},
        )
        assert lines[0] == "5 JSON leaves differ (reported only)"
        assert lines[-1] == "largest numeric difference 0.5 at /a"

    def test_a_scalar_root_is_shown_as_slash(self, compare, tmp_path):
        assert _differences(compare, tmp_path, 1, 3) == [
            "1 JSON leaves differ (reported only)",
            "/: old 1, new 3",
            "largest numeric difference 2 at /",
        ]

    def test_a_file_that_is_not_json(self, compare, tmp_path):
        (tmp_path / "old.json").write_text("{}", encoding="utf-8")
        (tmp_path / "new.json").write_text("{", encoding="utf-8")
        (line,) = compare.json_differences(
            str(tmp_path / "old.json"), str(tmp_path / "new.json")
        )
        assert line.startswith(f"not comparable as JSON: {tmp_path / 'new.json'}: ")


class TestCompareFiles:
    def test_every_file_under_either_root(self, compare, tmp_path, capsys):
        old, new = tmp_path / "old", tmp_path / "new"
        for root in (old, new):
            (root / "sub").mkdir(parents=True)
            (root / "same.csv").write_text("a,b\n", encoding="utf-8")
        (old / "sub" / "r.json").write_text('{"x": 1}', encoding="utf-8")
        (new / "sub" / "r.json").write_text('{"x": 2}', encoding="utf-8")
        (old / "gone.csv").write_text("", encoding="utf-8")
        assert not compare.compare_files("run", str(old), str(new))
        assert capsys.readouterr().out.splitlines() == [
            "run/gone.csv: only in old",
            "run/same.csv: identical",
            "run/sub/r.json: DIFFERS",
            "  1 JSON leaves differ (reported only)",
            "  /x: old 1, new 2",
            "  largest numeric difference 1 at /x",
        ]

    def test_identical_roots_and_a_missing_one(self, compare, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "f").write_text("x", encoding="utf-8")
        assert compare.compare_files("run", str(tmp_path / "a"), str(tmp_path / "a"))
        assert compare.compare_files("run", str(tmp_path / "none"),
                                     str(tmp_path / "none"))
        assert not compare.compare_files("run", str(tmp_path / "a"),
                                         str(tmp_path / "none"))


class TestGenerateInputs:
    SRC = os.path.join(os.path.dirname(SCRIPT), os.pardir, "src")

    def _generated(self, compare, tmp_path, new_tree):
        trees = {"old": os.path.realpath(self.SRC), "new": str(new_tree)}
        sets, same = compare.generate_inputs(trees, str(tmp_path / "work"))
        assert set(sets) == {"demo", "large"}
        for path in sets.values():  # the old tree's sets
            assert path.startswith(str(tmp_path / "work" / "inputs-old"))
            assert sorted(os.listdir(path)) == ["duels.csv", "items.csv", "tags.csv"]
        return same

    def test_a_tree_whose_writer_differs_fails(self, compare, tmp_path, capsys):
        # a copy of the tree whose write_tags writes another header
        tree = tmp_path / "tree"
        shutil.copytree(self.SRC, tree,
                        ignore=shutil.ignore_patterns("__pycache__"))
        with open(tree / "duelbias" / "datasets.py", "a", encoding="utf-8") as f:
            f.write("\n\ndef write_tags(path, tags):\n"
                    "    return write_csv(path, ['changed'], [])\n")
        assert not self._generated(compare, tmp_path, tree)
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            f"inputs/{name}/{file}: "
            f"{'DIFFERS' if file == 'tags.csv' else 'identical'}"
            for name in ("demo", "large")
            for file in ("duels.csv", "items.csv", "tags.csv")
        ]

    def test_one_tree_twice_is_identical(self, compare, tmp_path, capsys):
        assert self._generated(compare, tmp_path, os.path.realpath(self.SRC))
        assert all(line.endswith(": identical")
                   for line in capsys.readouterr().out.splitlines())


def _write_child(compare, monkeypatch, body):
    monkeypatch.setattr(compare, "CHILD", textwrap.dedent(body))


class TestRun:
    def test_reports_the_peak_the_child_writes(self, compare, monkeypatch, tmp_path):
        _write_child(compare, monkeypatch, f"""
            import os, sys
            with open(os.environ["{compare.PEAK_FILE_VARIABLE}"], "w") as f:
                f.write("2048")
            print("out", sys.argv[2:])
            sys.exit("err")
        """)
        code, out, err, peak_mib, cpu, wall = compare.run(
            str(tmp_path), ["a", "b"], str(tmp_path)
        )
        assert (code, out, err) == (1, "out ['a', 'b']\n", "err\n")
        assert peak_mib == 2.0
        assert cpu >= 0 and wall > 0

    def test_a_child_that_writes_no_peak_reports_ru_maxrss(
        self, compare, monkeypatch, tmp_path
    ):
        _write_child(compare, monkeypatch, "pass")
        code, out, err, peak_mib, _, _ = compare.run(str(tmp_path), [], str(tmp_path))
        assert (code, out, err) == (0, "", "")
        # no interpreter starts in 2 MiB, so this is not the written value
        assert peak_mib > 2.0

    @staticmethod
    def _fake_tree(root):
        package = root / "duelbias"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("", encoding="utf-8")
        (package / "cli.py").write_text(
            "def main(args):\n    print(*args)\n    return 4\n", encoding="utf-8"
        )
        return root

    def test_the_child_runs_main_of_the_given_tree(self, compare, tmp_path):
        tree = self._fake_tree(tmp_path / "tree")
        code, out, err, peak_mib, _, _ = compare.run(
            str(tree), ["bias", "--unit", "item"], str(tmp_path)
        )
        assert (code, out, err) == (4, "bias --unit item\n", "")
        assert peak_mib > 2.0

    def test_the_child_refuses_a_package_from_elsewhere(self, compare, tmp_path):
        # the tree's package is a link to one outside it, so the module's
        # real path lies outside the tree
        other = self._fake_tree(tmp_path / "other")
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "duelbias").symlink_to(other / "duelbias")
        code, out, err, _, _, _ = compare.run(str(tree), [], str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("duelbias imported from ")
