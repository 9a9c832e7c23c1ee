"""End-to-end tests of the command-line interface (in-process)."""

import io
import json
import random
import re
from fractions import Fraction

import pytest

import wbisim as wb
from wbisim import load, serialize
from wbisim.cli import emit_quotient, main, to_dot

import helpers


def write_doc(tmp_path, doc, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def figure_doc(tmp_path):
    return write_doc(tmp_path, serialize(helpers.figure_system()))


def chains_doc(tmp_path):
    return write_doc(tmp_path, serialize(helpers.chains_system()))


def replicated_real_doc(rng, n, copies):
    """``copies`` renamed copies (c0-s0, c1-s0, ...) of one random real
    system of n states."""
    w = helpers.random_wlts(rng, wb.by_name("real"), n, 2, 0.35, helpers.positive_fraction)
    edges = list(w.transitions())
    return serialize(
        wb.WLTS(
            w.semiring,
            ["c%d-%s" % (c, s) for c in range(copies) for s in w.state_names],
            w.actions,
            w.tau,
            [(x + c * n, label, y + c * n, v) for c in range(copies) for x, label, y, v in edges],
        )
    )


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out) if out else None, err


class TestValidate:
    def test_structured_report(self, tmp_path, capsys):
        code, payload, _ = run_json(capsys, ["validate", figure_doc(tmp_path)])
        assert code == 0
        assert payload["states"] == 7
        assert payload["transitions"] == 7
        assert payload["actions"] == ["a"]
        assert payload["terminal_states"] == ["x5", "x6"]
        assert payload["semiring"] == {"name": "real"}
        assert not payload["mass_reports"]["fully_probabilistic"]["ok"]

    def test_plain_report(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["validate", figure_doc(tmp_path), "--format", "plain"])
        assert code == 0
        assert "states: 7" in out
        assert "terminal: x5, x6" in out

    def test_plain_terminal_line_escapes_names(self, tmp_path, capsys):
        printed = []
        for states in (["a, b", "c"], ["a", "b, c"]):
            doc = {"semiring": "boolean", "states": states, "transitions": []}
            code, out, err = run(capsys, ["validate", write_doc(tmp_path, doc), "--format", "plain"])
            assert code == 0, err
            printed += [line for line in out.splitlines() if line.startswith("terminal:")]
        assert printed == ["terminal: a\\, b, c", "terminal: a, b\\, c"]

    def test_dot_renders_input(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["validate", figure_doc(tmp_path), "--format", "dot"])
        assert code == 0
        assert out.startswith("digraph wlts {")
        assert '"x5" [shape=doublecircle];' in out
        assert '"x" -> "x1" [label="b,1/2"];' in out

    def test_constraint_failure_exits_2(self, tmp_path, capsys):
        code, payload, _ = run_json(
            capsys,
            ["validate", figure_doc(tmp_path), "--constraint", "fully-probabilistic"],
        )
        assert code == 2
        assert payload["constraint_ok"] is False

    def test_constraint_success(self, tmp_path, capsys):
        doc = {
            "semiring": "real",
            "states": ["u", "v"],
            "transitions": [
                {"from": "u", "label": "a", "to": "v", "weight": "1/2"},
                {"from": "u", "label": "tau", "to": "u", "weight": "1/2"},
            ],
        }
        code, payload, _ = run_json(
            capsys,
            ["validate", write_doc(tmp_path, doc), "--constraint", "fully-probabilistic"],
        )
        assert code == 0
        assert payload["constraint_ok"] is True

    def test_constraint_on_boolean_is_semantic_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            ["validate", chains_doc(tmp_path), "--constraint", "reactive"],
        )
        assert code == 2
        assert "real semirings" in err

    def test_dot_keeps_the_constraint_exit_code(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            ["validate", figure_doc(tmp_path), "--constraint", "reactive", "--format", "dot"],
        )
        assert code == 2
        assert out.startswith("digraph wlts {")

    def test_dot_constraint_on_boolean_is_semantic_error(self, tmp_path, capsys):
        code, out, err = run(
            capsys,
            ["validate", chains_doc(tmp_path), "--constraint", "reactive", "--format", "dot"],
        )
        assert code == 2
        assert out == ""
        assert "real semirings" in err

    def test_semiring_override(self, tmp_path, capsys):
        code, payload, _ = run_json(
            capsys,
            ["validate", figure_doc(tmp_path), "--semiring", "maxtimes"],
        )
        assert code == 0
        assert payload["semiring"] == {"name": "maxtimes"}

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        doc = serialize(helpers.chains_system())
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, payload, _ = run_json(capsys, ["validate", "-"])
        assert code == 0
        assert payload["states"] == 7


class TestErrorCodes:
    def test_malformed_json_exits_3(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["validate", str(path)])
        assert code == 3
        assert "parse error" in err

    def test_missing_file_exits_3(self, capsys):
        code, _, _ = run(capsys, ["validate", "/nonexistent/no.json"])
        assert code == 3

    def test_structural_problem_exits_3(self, tmp_path, capsys):
        path = write_doc(tmp_path, {"semiring": "real", "states": ["s"]})
        code, _, _ = run(capsys, ["validate", path])
        assert code == 3

    @pytest.mark.parametrize("name", [["real"], {"name": "real"}])
    def test_semiring_name_that_is_not_a_string_exits_3(self, name, tmp_path, capsys):
        doc = {"semiring": {"name": name}, "states": [], "transitions": []}
        code, out, err = run(capsys, ["validate", write_doc(tmp_path, doc)])
        assert (code, out) == (3, "")
        assert "semiring name must be a string" in err

    def test_semantic_problem_exits_2(self, tmp_path, capsys):
        doc = {
            "semiring": "real",
            "states": ["s"],
            "transitions": [
                {"from": "s", "label": "a", "to": "ghost", "weight": "1"}
            ],
        }
        code, _, _ = run(capsys, ["validate", write_doc(tmp_path, doc)])
        assert code == 2

    def test_unknown_semiring_exits_2(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, ["validate", chains_doc(tmp_path), "--semiring", "modal"]
        )
        assert code == 2

    def test_bad_param_exits_2(self, capsys):
        assert main(["axioms", "--semiring", "truncation", "--param", "k=two"]) == 2
        assert main(["axioms", "--semiring", "truncation", "--param", "k"]) == 2
        capsys.readouterr()
        # An undeclared key, a value not of the declared type, and a missing
        # k: the message names the parameter and the semiring.
        for name in wb.SEMIRING_NAMES:
            for param in ("zeta=1", "k=1.5", "epsilon=abc"):
                code, out, err = run(capsys, ["axioms", "--semiring", name, "--param", param])
                assert code == 2, (name, param)
                assert out == "", (name, param)
                key = param.split("=")[0]
                assert re.search(r"\b%s\b" % key, err) and name in err, (name, param, err)
        code, _, err = run(capsys, ["axioms", "--semiring", "truncation"])
        assert code == 2
        assert re.search(r"\bk\b", err) and "truncation" in err

    def test_infinite_epsilon_exits_2(self, tmp_path, capsys):
        # p has an a-step of weight 0.5 and q has none: with an infinite
        # epsilon every two weights would compare equal
        doc = {
            "semiring": {"name": "real-float", "epsilon": 1e-9},
            "states": ["p", "q", "r"],
            "transitions": [{"from": "p", "label": "a", "to": "r", "weight": "0.5"}],
        }
        check = ["check", "--left", "p", "--right", "q"]
        path = write_doc(tmp_path, doc)
        assert run(capsys, check + [path])[0] == 1
        for epsilon in ("inf", "1e400"):
            code, _, err = run(capsys, check + [path, "--semiring", "real-float",
                                                "--param", "epsilon=" + epsilon])
            assert code == 2, epsilon
            assert "epsilon" in err
        doc["semiring"]["epsilon"] = float("inf")  # written as Infinity
        code, _, err = run(capsys, check + [write_doc(tmp_path, doc, "inf.json")])
        assert code == 2
        assert "epsilon" in err

    def _half_and_point_six(self, tmp_path):
        # p has an a-step of 0.5 and q one of 0.6: equal within epsilon 0.2
        doc = {
            "semiring": {"name": "real-float"},
            "states": ["p", "q", "r"],
            "transitions": [
                {"from": "p", "label": "a", "to": "r", "weight": "0.5"},
                {"from": "q", "label": "a", "to": "r", "weight": "0.6"},
            ],
        }
        return ["check", write_doc(tmp_path, doc), "--left", "p", "--right", "q"]

    def test_param_without_semiring_exits_2(self, tmp_path, capsys):
        check = self._half_and_point_six(tmp_path)
        widened = check + ["--semiring", "real-float", "--param", "epsilon=0.2"]
        assert run(capsys, widened)[0] == 0
        for param in ("epsilon=0.2", "bogus=1"):
            code, out, err = run(capsys, check + ["--param", param])
            assert code == 2, param
            assert not out
            assert "--semiring" in err

    def test_repeated_param_exits_2(self, tmp_path, capsys):
        check = self._half_and_point_six(tmp_path) + ["--semiring", "real-float"]
        code, out, err = run(capsys, check + ["--param", "epsilon=1e-9", "--param", "epsilon=0.2"])
        assert code == 2
        assert not out
        assert "epsilon" in err

    def test_oracle_on_weighted_silent_cycle_exits_2(self, tmp_path, capsys):
        # The brute-force weights of a silent cycle over the reals never
        # complete, so the oracle cannot certify the partition.
        doc = {
            "semiring": "real",
            "states": ["p", "q", "r"],
            "transitions": [
                {"from": "p", "label": "tau", "to": "q", "weight": "1/2"},
                {"from": "q", "label": "tau", "to": "p", "weight": "1/2"},
                {"from": "q", "label": "a", "to": "r", "weight": "1/2"},
            ],
        }
        argv = ["minimize", write_doc(tmp_path, doc), "--equivalence", "weak", "--oracle"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert not out
        assert err.startswith("error: the oracle cannot certify this system")
        assert err.count("\n") == 1

    def test_invalid_utf8_exits_3(self, tmp_path, capsys, monkeypatch):
        data = b'{"semiring":"boolean","states":["\xff"],"transitions":[]}'
        path = tmp_path / "latin.json"
        path.write_bytes(data)
        code, out, err = run(capsys, ["validate", str(path)])
        assert (code, out) == (3, "")
        assert "UTF-8" in err
        # A POSIX locale decodes stdin with surrogateescape.
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, ["validate", "-"])
        assert (code, out) == (3, "")
        assert "UTF-8" in err

    def test_residual_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        doc = {
            "semiring": "real-float",
            "states": ["u", "v"],
            "transitions": [
                {"from": "u", "label": "tau", "to": "v", "weight": "0.5"},
                {"from": "u", "label": "a", "to": "u", "weight": "0.25"},
            ],
        }
        path = write_doc(tmp_path, doc)
        helpers.corrupt_eliminations(monkeypatch, "scaled")
        code, _, err = run(capsys, ["minimize", path, "--equivalence", "weak"])
        assert code == 4
        assert "converge" in err


    def test_corrupted_solution_exits_4(self, tmp_path, capsys, monkeypatch):
        path = write_doc(tmp_path, serialize(helpers.float_residual_system()))
        helpers.corrupt_eliminations(monkeypatch, "spurious")
        code, _, err = run(capsys, ["minimize", path, "--equivalence", "weak"])
        assert code == 4
        assert "converge" in err


class TestMinimize:
    def test_strong_blocks(self, tmp_path, capsys):
        code, payload, _ = run_json(capsys, ["minimize", chains_doc(tmp_path)])
        assert code == 0
        assert payload["equivalence"] == "strong"
        assert payload["blocks"] == [
            ["p0"],
            ["p1"],
            ["p2", "q1"],
            ["p3", "q2"],
            ["q0"],
        ]

    def test_weak_blocks(self, tmp_path, capsys):
        code, payload, _ = run_json(
            capsys, ["minimize", chains_doc(tmp_path), "--equivalence", "weak"]
        )
        assert code == 0
        assert payload["blocks"] == [["p0", "q0"], ["p1", "p2", "q1"], ["p3", "q2"]]

    def test_trace_is_reported(self, tmp_path, capsys):
        code, payload, _ = run_json(
            capsys,
            ["minimize", chains_doc(tmp_path), "--equivalence", "weak", "--trace"],
        )
        assert code == 0
        assert payload["trace"]
        event = payload["trace"][0]
        assert set(event) == {"step", "label", "splitter", "blocks_split", "block_count"}

    def test_oracle_agreement(self, tmp_path, capsys):
        code, payload, _ = run_json(
            capsys,
            ["minimize", chains_doc(tmp_path), "--equivalence", "weak", "--oracle"],
        )
        assert code == 0
        assert payload["oracle_agrees"] is True
        assert payload["oracle_blocks"] == payload["blocks"]

    def test_oracle_guard_on_large_systems(self, tmp_path, capsys):
        doc = serialize(
            helpers.random_boolean_lts(__import__("random").Random(1), 9, 1, 0.3)
        )
        code, _, _ = run(
            capsys, ["minimize", write_doc(tmp_path, doc), "--oracle"]
        )
        assert code == 2

    def test_strong_quotient_round_trips(self, tmp_path, capsys):
        code, payload, _ = run_json(
            capsys, ["minimize", chains_doc(tmp_path), "--emit-quotient"]
        )
        assert code == 0
        quotient = load(payload["quotient"])
        assert quotient.state_count == 5
        assert "{p2,q1}" in quotient.state_names
        assert quotient.transition_count == 4

    def test_quotient_dot(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            ["minimize", chains_doc(tmp_path), "--emit-quotient", "--format", "dot"],
        )
        assert code == 0
        assert out.startswith("digraph quotient {")
        assert '"{p3,q2}" [shape=doublecircle];' in out
        assert 'label="b,true"' in out

    def test_weak_quotient_emits_saturation_grids(self, tmp_path, capsys):
        code, payload, _ = run_json(
            capsys,
            [
                "minimize",
                chains_doc(tmp_path),
                "--equivalence",
                "weak",
                "--emit-quotient",
            ],
        )
        assert code == 0
        grids = payload["saturation"]
        assert set(grids) == {"{p0,q0}", "{p1,p2,q1}", "{p3,q2}"}
        assert grids["{p3,q2}"]["p1"]["b"] == "true"

    def test_dot_without_quotient_is_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys, ["minimize", chains_doc(tmp_path), "--format", "dot"]
        )
        assert code == 2
        assert "emit-quotient" in err

    @pytest.mark.parametrize("mode", ["weak", "delay"])
    def test_dot_quotient_needs_strong_equivalence(self, tmp_path, capsys, mode):
        code, out, err = run(
            capsys,
            [
                "minimize",
                chains_doc(tmp_path),
                "--equivalence",
                mode,
                "--emit-quotient",
                "--format",
                "dot",
            ],
        )
        assert code == 2
        assert out == ""
        assert "strong" in err

    def test_structured_output_is_deterministic(self, tmp_path, capsys):
        argv = ["minimize", figure_doc(tmp_path), "--equivalence", "weak"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    @pytest.mark.parametrize("mode", ["weak", "delay"])
    def test_untraced_blocks_match_traced_blocks_and_check(self, tmp_path, capsys, mode):
        # Three copies of one real system: both runs refine its strong
        # quotient, and the traced one also reports the splits.
        path = write_doc(tmp_path, replicated_real_doc(random.Random(3), 6, 3))
        argv = ["minimize", path, "--equivalence", mode, "--format", "plain"]
        code, plain, _ = run(capsys, argv)
        assert code == 0
        code, traced, _ = run(capsys, argv + ["--trace"])
        assert code == 0
        assert traced.startswith(plain)
        assert "split 1:" in traced[len(plain):]
        _, payload, _ = run_json(capsys, ["minimize", path, "--equivalence", mode])
        blocks = payload["blocks"]
        assert len(blocks) < payload["states"] // 2
        block_of = {name: i for i, block in enumerate(blocks) for name in block}
        for right in ("c1-s0", "c2-s0", "c0-s1", "c0-s4"):
            code, _, _ = run(
                capsys,
                ["check", path, "--left", "c0-s0", "--right", right, "--equivalence", mode],
            )
            assert code == (0 if block_of["c0-s0"] == block_of[right] else 1), right

    def test_each_command_refines_once_through_refine_partition(
        self, tmp_path, capsys, monkeypatch
    ):
        path = write_doc(tmp_path, replicated_real_doc(random.Random(3), 6, 3))
        calls = []
        original = wb.cli.refine_partition

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(wb.cli, "refine_partition", counting)
        minimize = ["minimize", path, "--equivalence", "weak"]
        check = ["check", path, "--left", "c0-s0", "--right", "c1-s0", "--equivalence", "weak"]
        for argv in (minimize, minimize + ["--trace"], check):
            calls.clear()
            code, _, _ = run(capsys, argv)
            assert code == 0
            assert len(calls) == 1, argv

    @pytest.mark.parametrize("mode", ["weak", "delay"])
    def test_traced_run_refines_the_strong_quotient(self, tmp_path, capsys, monkeypatch, mode):
        doc = replicated_real_doc(random.Random(3), 6, 3)
        w = load(doc)
        strong = wb.refine_partition(w, "strong")[0]
        runs = []
        original = wb.bisim._refine

        def recording(system, run_mode, initial, want_trace):
            runs.append((system.state_count, run_mode))
            return original(system, run_mode, initial, want_trace)

        monkeypatch.setattr(wb.bisim, "_refine", recording)
        argv = ["minimize", write_doc(tmp_path, doc), "--equivalence", mode, "--trace"]
        code, payload, _ = run_json(capsys, argv)
        assert code == 0
        assert runs == [(w.state_count, "strong"), (len(strong), mode)]
        assert len(strong) < w.state_count and payload["trace"]
        for event in payload["trace"]:
            splitter = {w.index(name) for name in event["splitter"]}
            assert splitter == {x for y in splitter for x in strong.block_of(y)}, event

    def test_quotient_names_escape_commas_and_braces(self, tmp_path, capsys):
        # "a" and "b" are strongly bisimilar; their block and "a,b" alone
        # must not both be named {a,b}
        doc = {
            "semiring": "real",
            "states": ["a,b", "a", "b", "{c}"],
            "transitions": [
                {"from": "a,b", "label": "x", "to": "a", "weight": "1/2"},
                {"from": "{c}", "label": "tau", "to": "a,b", "weight": "1"},
            ],
        }
        code, payload, err = run_json(
            capsys, ["minimize", write_doc(tmp_path, doc), "--emit-quotient"]
        )
        assert code == 0, err
        assert payload["blocks"] == [["a,b"], ["a", "b"], ["{c}"]]
        quotient = load(payload["quotient"])
        assert quotient.state_names == ("{a\\,b}", "{a,b}", "{\\{c\\}}")
        assert quotient.transition_count == 2

    @pytest.mark.parametrize("mode", ["weak", "delay"])
    def test_weak_minimize_on_colliding_block_names(self, tmp_path, capsys, mode):
        doc = {
            "semiring": "real",
            "states": ["a,b", "a", "b"],
            "transitions": [{"from": "a,b", "label": "x", "to": "a", "weight": "1/2"}],
        }
        code, payload, err = run_json(
            capsys, ["minimize", write_doc(tmp_path, doc), "--equivalence", mode]
        )
        assert code == 0, err
        assert payload["blocks"] == [["a,b"], ["a", "b"]]

    @pytest.mark.parametrize("mode", ["strong", "weak", "delay"])
    def test_plain_trace_escapes_splitter_names(self, tmp_path, capsys, mode):
        # unescaped, the splitter {a,b | c | a | b,c} would print {a,b,c,a,b,c}
        doc = {
            "semiring": "boolean",
            "states": ["a,b", "c", "a", "b,c"],
            "transitions": [{"from": "a,b", "label": "x", "to": "c", "weight": "true"}],
        }
        argv = ["minimize", write_doc(tmp_path, doc), "--equivalence", mode]
        code, out, err = run(capsys, argv + ["--trace", "--format", "plain"])
        assert code == 0, err
        assert out.splitlines()[-1] == "split 1: label x against {a\\,b,c,a,b\\,c} -> 2 block(s)"
        code, payload, err = run_json(capsys, argv + ["--trace"])
        assert payload["trace"][0]["splitter"] == ["a,b", "c", "a", "b,c"]

    @pytest.mark.parametrize("mode", ["strong", "weak", "delay"])
    def test_plain_blocks_escape_member_names(self, tmp_path, capsys, mode):
        # with no transitions every state shares one block; unescaped, the
        # first two partitions print {a, b, c}
        printed = []
        for states in (["a, b", "c"], ["a", "b, c"], ["{x}", "y\\"], ["p", "q"]):
            doc = {"semiring": "boolean", "states": states, "transitions": []}
            argv = ["minimize", write_doc(tmp_path, doc), "--equivalence", mode]
            code, out, err = run(capsys, argv + ["--format", "plain"])
            assert code == 0, err
            printed.append(out.splitlines()[1])
        assert printed == ["  {a\\, b, c}", "  {a, b\\, c}", "  {\\{x\\}, y\\\\}", "  {p, q}"]

    @pytest.mark.parametrize("mode", ["weak", "delay"])
    def test_saturation_grids_are_keyed_by_escaped_block_names(self, tmp_path, capsys, mode):
        # {a,b} and {"a,b"} would both be keyed "{a,b}" without escaping
        doc = {
            "semiring": "real",
            "states": ["a,b", "a", "b"],
            "transitions": [
                {"from": "a", "label": "x", "to": "a,b", "weight": "1/2"},
                {"from": "b", "label": "x", "to": "a,b", "weight": "1/2"},
            ],
        }
        path = write_doc(tmp_path, doc)
        argv = ["minimize", path, "--equivalence", mode, "--emit-quotient"]
        code, payload, err = run_json(capsys, argv)
        assert code == 0, err
        assert payload["blocks"] == [["a,b"], ["a", "b"]]
        grids = payload["saturation"]
        assert set(grids) == {"{a\\,b}", "{a,b}"}
        assert grids["{a\\,b}"]["a"]["x"] == "1/2"
        assert grids["{a,b}"]["a"]["x"] == "0"
        code, out, _ = run(capsys, argv + ["--format", "plain"])
        assert code == 0
        assert "saturation grids emitted for 2 class(es)" in out


class TestCheck:
    def test_weakly_equal(self, tmp_path, capsys):
        code, payload, _ = run_json(
            capsys,
            [
                "check",
                chains_doc(tmp_path),
                "--left",
                "p0",
                "--right",
                "q0",
                "--equivalence",
                "weak",
            ],
        )
        assert code == 0
        assert payload["bisimilar"] is True

    def test_strongly_different_exits_1(self, tmp_path, capsys):
        code, payload, _ = run_json(
            capsys,
            ["check", chains_doc(tmp_path), "--left", "p0", "--right", "q0"],
        )
        assert code == 1
        assert payload["bisimilar"] is False

    def test_plain_wording(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            [
                "check",
                chains_doc(tmp_path),
                "--left",
                "p0",
                "--right",
                "q0",
                "--format",
                "plain",
            ],
        )
        assert code == 1
        assert "not strong-bisimilar" in out

    def test_unknown_state_exits_2(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            ["check", chains_doc(tmp_path), "--left", "p0", "--right", "ghost"],
        )
        assert code == 2


class TestSaturate:
    def test_figure_grid_carries_the_golden_value(self, tmp_path, capsys):
        code, payload, _ = run_json(
            capsys,
            [
                "saturate",
                figure_doc(tmp_path),
                "--class",
                "x2,x4,x5",
                "--mode",
                "weak",
            ],
        )
        assert code == 0
        assert payload["class"] == ["x2", "x4", "x5"]
        assert payload["table"]["x"]["a"] == str(helpers.FIGURE_WEIGHT)
        assert payload["table"]["x4"]["b"] == "1"  # class member, silent label

    def test_plain_grid(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            [
                "saturate",
                figure_doc(tmp_path),
                "--class",
                "x5",
                "--format",
                "plain",
            ],
        )
        assert code == 0
        assert "weak saturation into {x5}" in out

    def test_repeated_member_is_listed_once(self, tmp_path, capsys):
        path = figure_doc(tmp_path)
        code, payload, _ = run_json(capsys, ["saturate", path, "--class", "x5,x2,x5"])
        assert code == 0
        assert payload["class"] == ["x2", "x5"]
        assert payload == run_json(capsys, ["saturate", path, "--class", "x2,x5"])[1]
        code, out, _ = run(capsys, ["saturate", path, "--class", "x5,x2,x5", "--format", "plain"])
        assert code == 0
        w, table = helpers.figure_system(), payload["table"]
        assert out.splitlines() == ["weak saturation into {x2,x5}"] + [
            "  %s: %s" % (x, ", ".join("%s=%s" % (a, table[x][a]) for a in w.labels))
            for x in w.state_names
        ]

    def test_class_names_an_emitted_quotient_state(self, tmp_path, capsys):
        # Quotient states are named {m1,m2,...}: an escaped comma (\,) stays
        # in the name, and an escaped backslash (\\) is a literal one.
        code, payload, _ = run_json(capsys, ["minimize", chains_doc(tmp_path), "--emit-quotient"])
        assert code == 0
        path = write_doc(tmp_path, payload["quotient"], "quotient.json")
        code, payload, err = run_json(capsys, ["saturate", path, "--class", "{p2\\,q1}"])
        assert code == 0, err
        assert payload["class"] == ["{p2,q1}"]
        doc = {
            "semiring": "real",
            "states": ["a,b", "a", "b"],
            "transitions": [{"from": "a,b", "label": "x", "to": "a", "weight": "1/2"}],
        }
        code, payload, _ = run_json(capsys, ["minimize", write_doc(tmp_path, doc), "--emit-quotient"])
        assert code == 0
        path = write_doc(tmp_path, payload["quotient"], "quotient.json")
        code, payload, err = run_json(
            capsys, ["saturate", path, "--class", "{a\\\\\\,b},{a\\,b}", "--mode", "delay"]
        )
        assert code == 0, err
        assert payload["class"] == ["{a,b}", "{a\\,b}"]
        assert payload["table"]["{a\\,b}"]["x"] == "1/2"

    def test_plain_header_escapes_commas_and_backslashes(self, tmp_path, capsys):
        # The class of state "a,b" and the class of states "a" and "b"
        # differ: the header escapes names as the --class argument does, so
        # it reads back as the class it names.
        doc = {
            "semiring": "real",
            "states": ["a,b", "a", "b", "c\\"],
            "transitions": [{"from": "a", "label": "x", "to": "a,b", "weight": "1/2"}],
        }
        path = write_doc(tmp_path, doc)
        headers = {}
        for cls in ["a\\,b", "a,b", "c\\\\,a"]:
            code, out, err = run(capsys, ["saturate", path, "--class", cls, "--format", "plain"])
            assert code == 0, err
            headers[cls] = out.splitlines()[0]
        assert headers == {
            "a\\,b": "weak saturation into {a\\,b}",
            "a,b": "weak saturation into {a,b}",
            "c\\\\,a": "weak saturation into {a,c\\\\}",
        }

    def test_empty_class_exits_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, ["saturate", figure_doc(tmp_path), "--class", ","])
        assert code == 2

    def test_unknown_member_exits_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, ["saturate", figure_doc(tmp_path), "--class", "zz"])
        assert code == 2


class TestAxioms:
    def test_all_shipped_instances_pass(self, capsys):
        for argv in (
            ["axioms", "--semiring", "boolean"],
            ["axioms", "--semiring", "real"],
            ["axioms", "--semiring", "real-float", "--param", "epsilon=1e-6"],
            ["axioms", "--semiring", "tropical"],
            ["axioms", "--semiring", "arctic"],
            ["axioms", "--semiring", "truncation", "--param", "k=10"],
            ["axioms", "--semiring", "maxtimes"],
        ):
            code, payload, _ = run_json(capsys, argv)
            assert code == 0, argv
            assert payload["ok"] is True
            assert all(entry["ok"] for entry in payload["laws"])

    def test_plain_listing(self, capsys):
        code, out, _ = run(capsys, ["axioms", "--semiring", "boolean", "--format", "plain"])
        assert code == 0
        assert "all pass" in out
        assert "add-idempotent" in out

    def test_missing_k_exits_2(self, capsys):
        code, _, err = run(capsys, ["axioms", "--semiring", "truncation"])
        assert code == 2
        assert "k" in err

    def test_missing_semiring_exits_2(self, capsys):
        code, _, _ = run(capsys, ["axioms"])
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "DOC", "--left", "p0", "--right", "q0"],
        ["saturate", "DOC", "--class", "p3"],
        ["axioms", "--semiring", "boolean"],
    ],
    ids=["check", "saturate", "axioms"],
)
def test_dot_is_rejected_where_there_is_no_graph(tmp_path, capsys, argv):
    argv = [chains_doc(tmp_path) if a == "DOC" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "dot"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--format" in captured.err


class TestQuotientHelpers:
    def test_emit_quotient_requires_agreeing_blocks(self):
        w = helpers.chains_system()
        bogus = wb.Partition(7, [[0, 1], [2], [3], [4], [5], [6]])
        with pytest.raises(wb.QuotientError):
            emit_quotient(w, bogus)

    def test_emit_quotient_preserves_weights(self):
        w = helpers.figure_system()
        p = wb.refine_partition(w, "strong")[0]
        quotient = emit_quotient(w, p)
        # single-state blocks keep their outgoing weights
        bx = p.block_index(w.index("x"))
        b4 = p.block_index(w.index("x4"))
        assert quotient.weight(bx, "a", b4) == Fraction(1, 5)

    @pytest.mark.parametrize("sr,gen", helpers.SEMIRING_WEIGHTS, ids=helpers.semiring_ids())
    def test_quotient_edges_are_the_representatives_class_weights(self, sr, gen):
        rng = random.Random("quotient %s" % sr.name)
        for _ in range(20):
            n = rng.randint(1, 10)
            w = helpers.random_wlts(rng, sr, n, 2, rng.uniform(0.05, 0.35), gen)
            p = wb.refine_partition(w, "strong")[0]
            quotient = emit_quotient(w, p)
            assert quotient.state_count == len(p)
            for bi, block in enumerate(p.blocks):
                for label in w.labels:
                    for bj, target in enumerate(p.blocks):
                        expected = w.class_weight(block[0], label, target)
                        assert sr.values_equal(quotient.weight(bi, label, bj), expected)

    def test_to_dot_escapes_quotes(self):
        w = helpers.make_wlts(
            wb.by_name("boolean"), ['we"ird'], [('we"ird', "a", 'we"ird', True)]
        )
        out = to_dot(w)
        assert '"we\\"ird"' in out
