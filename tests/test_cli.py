"""End-to-end tests of the command-line interface (in-process)."""

import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import wbisim as wb
from wbisim import emit_quotient, load, refine_partition, serialize, to_dot
from wbisim.cli import main

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


def python_m(argv, **env):
    """``python -m wbisim argv`` in a new process that imports this
    checkout's package, with ``env`` added to its environment."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "wbisim", *argv], env=env, capture_output=True, text=True
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

    def test_deeply_nested_json_exits_3(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, ["validate", str(path)])
        assert (code, out) == (3, "")
        assert "parse error: not valid JSON" in err

    @pytest.mark.parametrize(
        "literal", ["1" + "0" * 400, "1" + "0" * 400 + "/7", "1e400"], ids=["integer", "fraction", "decimal"]
    )
    def test_float_literal_too_large_exits_2(self, literal, tmp_path, capsys):
        doc = {
            "semiring": "real-float",
            "states": ["p", "q"],
            "transitions": [{"from": "p", "label": "a", "to": "q", "weight": literal}],
        }
        path = write_doc(tmp_path, doc)
        for argv in (["validate", path], ["check", path, "--left", "p", "--right", "q"]):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, ""), argv
            assert "bad weight" in err
        doc["transitions"][0]["weight"] = "inf"
        code, payload, _ = run_json(capsys, ["saturate", write_doc(tmp_path, doc, "inf.json"), "--class", "q"])
        assert code == 0
        assert payload["table"]["p"]["a"] == "inf"

    def test_missing_file_exits_3(self, capsys):
        code, _, _ = run(capsys, ["validate", "/nonexistent/no.json"])
        assert code == 3

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"semiring": "real", "states": ["s"]}, "'transitions' must be a list"),
            ({"semiring": 5, "states": [], "transitions": []}, "semiring field must be a name or an object"),
            ({"semiring": "real", "states": [], "actions": "a", "transitions": []}, "'actions' must be a list of names"),
        ],
        ids=["no-transitions", "semiring-number", "actions-string"],
    )
    def test_structural_problem_exits_3(self, doc, message, tmp_path, capsys):
        code, out, err = run(capsys, ["validate", write_doc(tmp_path, doc)])
        assert (code, out) == (3, "")
        assert err == "parse error: %s\n" % message

    @pytest.mark.parametrize("name", [["real"], {"name": "real"}])
    def test_semiring_name_that_is_not_a_string_exits_3(self, name, tmp_path, capsys):
        doc = {"semiring": {"name": name}, "states": [], "transitions": []}
        code, out, err = run(capsys, ["validate", write_doc(tmp_path, doc)])
        assert (code, out) == (3, "")
        assert "semiring name must be a string" in err

    @pytest.mark.parametrize(
        "semiring,literal,message",
        [
            ("boolean", "yes", "expected true/false/1/0, got 'yes'"),
            ({"name": "truncation", "k": 3}, "x", "expected an integer in 0..3, got 'x'"),
            ("real-float", "1.2.3", "malformed float literal '1.2.3'"),
        ],
        ids=["boolean", "truncation", "real-float"],
    )
    def test_malformed_literal_exits_2(self, semiring, literal, message, tmp_path, capsys):
        doc = {
            "semiring": semiring,
            "states": ["p", "q"],
            "transitions": [{"from": "p", "label": "a", "to": "q", "weight": literal}],
        }
        code, out, err = run(capsys, ["validate", write_doc(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert err == "error: bad weight %r: %s\n" % (literal, message)

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

    def test_duplicate_action_exits_2(self, tmp_path, capsys):
        doc = {"semiring": "real", "states": ["s"], "actions": ["a", "b", "a"], "transitions": []}
        code, out, err = run(capsys, ["validate", write_doc(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert "duplicate action name 'a'" in err

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

    def test_integer_epsilon_is_read_as_a_float(self, tmp_path, capsys):
        # JSON writes a whole epsilon as an integer: 1 makes 0.5 and 0.6
        # equal on both routes, while a boolean and an integer too large
        # for a float exit 2 on both.
        check = self._half_and_point_six(tmp_path)
        doc = json.loads((tmp_path / "system.json").read_text())
        huge = 10**400
        for epsilon, expected in ((1, 0), (True, 2), (huge, 2)):
            doc["semiring"]["epsilon"] = epsilon
            write_doc(tmp_path, doc)  # over the document that check reads
            code, _, err = run(capsys, check)
            assert code == expected, (epsilon, err)
            assert expected == 0 or "epsilon" in err
            code, _, err = run(capsys, check + ["--semiring", "real-float",
                                                "--param", "epsilon=%s" % json.dumps(epsilon)])
            assert code == expected, (epsilon, err)
            assert expected == 0 or "epsilon" in err

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

    def test_param_called_name_exits_2(self, tmp_path, capsys):
        # No semiring declares ``name``: it is rejected like any other
        # undeclared key, not taken for the name of the semiring.
        minimize = ["minimize", chains_doc(tmp_path), "--semiring", "truncation", "--param", "k=2"]
        for argv, name in (
            (["axioms", "--semiring", "real", "--param", "name=x"], "real"),
            (minimize + ["--param", "name=x"], "truncation"),
        ):
            code, out, err = run(capsys, argv)
            assert code == 2, argv
            assert not out
            assert err == "error: unexpected parameters ['name'] for %s\n" % name, err

    @pytest.mark.parametrize(
        "name,params",
        [("reel", {}), ("truncation", {"k": 0}), ("real-float", {"epsilon": -1})],
        ids=["unknown-name", "zero-k", "negative-epsilon"],
    )
    def test_bad_semiring_spec_reads_the_same_on_every_route(self, name, params, tmp_path, capsys):
        # a document's semiring object, its string form (which has no
        # parameters) and --semiring with --param report the same error
        empty = {"states": [], "transitions": []}
        routes = [["validate", write_doc(tmp_path, dict(empty, semiring=dict(params, name=name)))]]
        if not params:
            routes.append(["validate", write_doc(tmp_path, dict(empty, semiring=name), "name.json")])
        flags = [f for key, value in params.items() for f in ("--param", "%s=%s" % (key, value))]
        real = write_doc(tmp_path, dict(empty, semiring="real"), "real.json")
        routes.append(["validate", real, "--semiring", name, *flags])
        results = [run(capsys, argv) for argv in routes]
        code, out, err = results[0]
        assert (code, out) == (2, "") and err.startswith("error: "), err
        assert results == [results[0]] * len(routes)

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


    def test_large_float_solutions_pass_their_residual_check(self, tmp_path, capsys):
        # Silent weights near 1 give s1 a saturated weight near 2.5e9, whose
        # row sums to one ulp more: an absolute tolerance of 1e-9 failed
        # minimize and saturate into s1, s3 and s4 with exit 4.
        edges = [
            ("s0", "a", "s0", "0.99999999"), ("s0", "a", "s4", "0.99999999"),
            ("s1", "tau", "s4", "0.99999999"), ("s1", "tau", "s3", "0.9999999"),
            ("s2", "tau", "s0", "0.5"), ("s2", "a", "s1", "0.99999999"),
            ("s3", "tau", "s3", "0.99999999"), ("s3", "a", "s4", "0.5"),
            ("s4", "a", "s1", "0.5"), ("s4", "tau", "s1", "0.5"),
        ]
        doc = {
            "semiring": "real-float",
            "states": ["s0", "s1", "s2", "s3", "s4"],
            "transitions": [
                {"from": x, "label": label, "to": y, "weight": wt} for x, label, y, wt in edges
            ],
        }
        path = write_doc(tmp_path, doc)
        code, _, err = run(capsys, ["minimize", path, "--equivalence", "weak"])
        assert (code, err) == (0, "")
        for state in doc["states"]:
            code, _, err = run(capsys, ["saturate", path, "--class", state])
            assert (code, err) == (0, ""), state

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

    @pytest.mark.parametrize("sr", [sr for sr, _ in helpers.SEMIRING_WEIGHTS], ids=helpers.semiring_ids())
    def test_oracle_agrees_on_a_system_without_states(self, sr, tmp_path, capsys):
        path = write_doc(tmp_path, {"semiring": sr.describe(), "states": [], "transitions": []})
        for mode in ("strong", "weak", "delay"):
            code, payload, err = run_json(capsys, ["minimize", path, "--equivalence", mode, "--oracle"])
            assert code == 0, (mode, err)
            assert payload["blocks"] == [] and payload["oracle_agrees"] is True, mode

    def test_oracle_disagreement_exits_2(self, tmp_path, capsys, monkeypatch):
        path, w = chains_doc(tmp_path), helpers.chains_system()
        discrete = wb.Partition(w.state_count, [[x] for x in range(w.state_count)])
        monkeypatch.setattr(wb.cli, "brute_coarsest_partition", lambda w, mode: discrete)
        argv = ["minimize", path, "--equivalence", "weak", "--oracle"]
        code, payload, _ = run_json(capsys, argv)
        assert code == 2
        assert payload["oracle_agrees"] is False
        assert payload["oracle_blocks"] == discrete.to_names(w) != payload["blocks"]
        code, out, _ = run(capsys, argv + ["--format", "plain"])
        assert code == 2
        assert out.splitlines()[-1] == "oracle agrees: NO"

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
        monkeypatch.setattr(wb.bisim, "refine_partition", counting)  # check, through bisimilar
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
            assert splitter == {x for y in splitter for x in strong.blocks[strong.block_index(y)]}, event

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
        # it reads back as the class it names; braces are escaped as in
        # block names, so the class of state "{a,b}" is not the block {a,b}.
        doc = {
            "semiring": "real",
            "states": ["a,b", "a", "b", "c\\", "{a,b}"],
            "transitions": [{"from": "a", "label": "x", "to": "a,b", "weight": "1/2"}],
        }
        path = write_doc(tmp_path, doc)
        headers = {}
        for cls in ["a\\,b", "a,b", "c\\\\,a", "{a\\,b}"]:
            code, out, err = run(capsys, ["saturate", path, "--class", cls, "--format", "plain"])
            assert code == 0, err
            headers[cls] = out.splitlines()[0]
        assert headers == {
            "a\\,b": "weak saturation into {a\\,b}",
            "a,b": "weak saturation into {a,b}",
            "c\\\\,a": "weak saturation into {a,c\\\\}",
            "{a\\,b}": "weak saturation into {\\{a\\,b\\}}",
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
        "argv,expected",
        [
            (["axioms", "--semiring", "boolean"], 0),
            (["axioms", "--semiring", "real", "--param", "name=x"], 2),
        ],
        ids=["boolean", "param-name"],
    )
    def test_python_dash_m_exit_codes(self, argv, expected):
        # ``python -m wbisim`` runs ``__main__``, which exits with main's code.
        done = python_m(argv)
        assert done.returncode == expected, done.stderr


class TestHashSeed:
    # String hashes, and with them the order of sets of names, differ
    # between processes, which no in-process test can see.
    @pytest.mark.parametrize("semiring", ["real", "boolean"])
    def test_every_mode_prints_the_same_under_two_hash_seeds(self, semiring, tmp_path):
        rng = random.Random("hash seed %s" % semiring)
        if semiring == "real":
            doc = replicated_real_doc(rng, 5, 3)
            # coarse, so that weak and delay mode refine the strong quotient
            assert len(refine_partition(load(doc), "strong")[0]) < len(doc["states"])
        else:
            sr = wb.by_name("boolean")
            doc = serialize(helpers.random_wlts(rng, sr, 12, 2, 0.15, lambda r: True))
        rng.shuffle(doc["transitions"])
        path = write_doc(tmp_path, doc)
        for mode in ("strong", "weak", "delay"):
            argv = ["minimize", path, "--equivalence", mode, "--trace", "--emit-quotient"]
            first, second = (python_m(argv, PYTHONHASHSEED=seed) for seed in ("0", "1"))
            assert first.returncode == 0, (mode, first.stderr)
            assert (second.returncode, second.stdout) == (0, first.stdout), mode


class TestStructuredOutput:
    """Structured output is laid out by ``cli._dumps``, which must print
    exactly what ``json.dumps(payload, indent=2, sort_keys=True)`` does."""

    ODD_NAMES = ['q"uote', "back\\slash", "ctl\x01\x1f\n\t", "caf\xe9 \u4e2d", "\u2028", "\ud800"]

    @staticmethod
    def assert_like_json(value):
        assert wb.cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_leaves_and_nesting(self):
        for value in (
            {},
            [],
            (),
            {"a": [], "b": {}, "c": [[], {}], "d": ({"e": ()},)},
            {name: [name, {name: name}] for name in self.ODD_NAMES},
            [None, True, False, 0, -7, 2**80, 0.1, -0.0, 1e300, float("inf"), float("nan")],
            {"epsilon": 1e-9, "k": 10, "nested": {"z": 1, "a": {"y": [1.5, "x"]}}},
            {1: "int key", 2.5: "float key", 0: ["zero"]},  # not str-keyed: json lays it out
            [{3: [1, {"a": 2}]}, "after"],
            [["s0", "s1"], ["s2"]],  # the blocks of a partition
            [{"from": "a", "to": "b"}],  # a dict is not joined as its keys
            ["x", 1, "y"],  # the join of strings fails partway
            [["s0"], ["x", 2], "y"],  # so does the join of a block
            ("a",),
            "top-level string",
            42,
        ):
            self.assert_like_json(value)

    def test_every_command_prints_what_json_prints(self, tmp_path, capsys, monkeypatch):
        payloads = []
        emit = wb.cli._emit
        monkeypatch.setattr(wb.cli, "_emit", lambda args, p, lines: payloads.append(p) or emit(args, p, lines))
        names = self.ODD_NAMES
        odd = write_doc(
            tmp_path,
            {
                "semiring": "real",
                "states": names,
                "transitions": [
                    {"from": names[0], "label": "tau", "to": names[1], "weight": "1/2"},
                    {"from": names[2], "label": "a", "to": names[3], "weight": "1/3"},
                    {"from": names[4], "label": "a", "to": names[3], "weight": "1/3"},
                    {"from": names[1], "label": "a", "to": names[5], "weight": "1"},
                ],
            },
            "odd.json",
        )
        empty = write_doc(
            tmp_path, {"semiring": "boolean", "states": ["only"], "transitions": []}, "empty.json"
        )
        figure = write_doc(tmp_path, serialize(helpers.figure_system()), "figure.json")
        chains = write_doc(tmp_path, serialize(helpers.chains_system()), "chains.json")
        argvs = [
            ["validate", odd],
            ["validate", figure, "--constraint", "fully-probabilistic"],
            ["validate", empty],
            ["minimize", odd, "--equivalence", "weak", "--trace"],
            ["minimize", odd, "--equivalence", "strong", "--emit-quotient"],
            ["minimize", chains, "--equivalence", "weak", "--emit-quotient"],
            ["minimize", empty, "--equivalence", "delay", "--trace"],
            ["check", odd, "--left", names[2], "--right", names[4], "--equivalence", "weak"],
            ["saturate", odd, "--class", names[4], "--mode", "weak"],
            ["axioms", "--semiring", "real-float", "--param", "epsilon=1e-6"],
            ["axioms", "--semiring", "truncation", "--param", "k=10"],
        ]
        for argv in argvs:
            payloads.clear()
            main(argv)
            out, err = capsys.readouterr()
            assert len(payloads) == 1, (argv, err)
            assert out == json.dumps(payloads[0], indent=2, sort_keys=True) + "\n", argv


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


class TestEdgeOrder:
    # Decimal floats that binary fractions do not represent, so that a sum
    # taken in another order can round differently.
    FLOAT_LITERALS = ["0.1", "0.2", "0.3", "0.35", "0.7"]
    COMMANDS = [
        ["validate"],
        ["minimize", "--equivalence", "strong", "--emit-quotient"],
        ["minimize", "--equivalence", "weak", "--emit-quotient", "--trace"],
        ["minimize", "--equivalence", "delay", "--trace"],
    ]

    @pytest.mark.parametrize("sr,gen", helpers.SEMIRING_WEIGHTS, ids=helpers.semiring_ids())
    def test_shuffled_transitions_print_the_same(self, sr, gen, tmp_path, capsys):
        # with the actions declared and no edge repeated, the order of the
        # transitions in a document changes no byte of any output
        rng = random.Random("edge order %s" % sr.name)
        for i in range(40 if sr.name == "real-float" else 8):
            n = rng.randint(3, 9)
            doc = {
                "semiring": sr.describe(),
                "states": ["s%d" % x for x in range(n)],
                "actions": ["a", "b"],
                "transitions": [
                    {
                        "from": "s%d" % x,
                        "label": label,
                        "to": "s%d" % y,
                        "weight": rng.choice(self.FLOAT_LITERALS)
                        if sr.name == "real-float"
                        else sr.format(gen(rng)),
                    }
                    for x in range(n)
                    for label in ("tau", "a", "b")
                    for y in range(n)
                    if rng.random() < 0.3
                ],
            }
            path = write_doc(tmp_path, doc)
            rng.shuffle(doc["transitions"])
            shuffled = write_doc(tmp_path, doc, "shuffled.json")
            for command in self.COMMANDS:
                code, out, err = run(capsys, [command[0], path] + command[1:])
                assert run(capsys, [command[0], shuffled] + command[1:]) == (code, out, err), (
                    i,
                    command,
                )


class TestQuotientHelpers:
    def test_emit_quotient_requires_agreeing_blocks(self):
        w = helpers.chains_system()
        bogus = wb.Partition(7, [[0, 1], [2], [3], [4], [5], [6]])
        with pytest.raises(wb.QuotientError):
            emit_quotient(w, bogus)

    def test_disagreeing_blocks_exit_2_naming_the_violation(self, tmp_path, capsys, monkeypatch):
        # a and b step into {c,d} and {e} at 1/2 and 1/3: a partition that
        # puts them together fails the strong check, and the error names the
        # block, the label, the class and the weights, names escaped.
        doc = {
            "semiring": "real",
            "states": ["a", "b", "c,d", "{e}"],
            "transitions": [
                {"from": "a", "label": "x", "to": "c,d", "weight": "1/2"},
                {"from": "b", "label": "x", "to": "{e}", "weight": "1/3"},
            ],
        }
        bogus = wb.Partition(4, [[0, 1], [2, 3]])
        monkeypatch.setattr(wb.cli, "refine_partition", lambda *args, **kwargs: (bogus, None))
        code, out, err = run(capsys, ["minimize", write_doc(tmp_path, doc), "--emit-quotient"])
        assert (code, out) == (2, "")
        assert err == (
            "quotient error: members of {a,b} disagree on x into {c\\,d,\\{e\\}}: a=1/2, b=1/3\n"
        )

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
