"""Unit tests for system documents, the WLTS core, and partitions."""

import json
import random
import re
from fractions import Fraction

import pytest

import wbisim as wb
from wbisim import (
    DocumentError,
    Partition,
    ParseError,
    SemanticError,
    WLTS,
    by_name,
    check_fully_probabilistic,
    check_reactive,
    load,
    serialize,
)

import helpers


def doc_chain():
    return {
        "semiring": "real",
        "tau": "tau",
        "states": ["s0", "s1", "s2"],
        "actions": ["a"],
        "transitions": [
            {"from": "s0", "label": "a", "to": "s1", "weight": "1/2"},
            {"from": "s1", "label": "tau", "to": "s2", "weight": "1/3"},
        ],
    }


class TestLoad:
    def test_basic(self):
        w = load(doc_chain())
        assert w.state_count == 3
        assert w.labels == ("tau", "a")
        assert w.weight(0, "a", 1) == Fraction(1, 2)
        assert w.weight(0, "a", 2) == 0
        assert w.is_terminal(2)
        assert not w.is_terminal(0)

    @pytest.mark.parametrize(
        "name,params,weights",
        [
            ("real-float", {}, ["0.5", "1/3", "inf", "0", "2.5"]),
            ("boolean", {}, ["true", "false", "1", "true", "0"]),
            ("truncation", {"k": 4}, ["0", "3", "4", "1", "2"]),
        ],
    )
    def test_each_weight_is_coerced_once(self, name, params, weights, monkeypatch):
        doc = {
            "semiring": dict(name=name, **params),
            "states": ["s0", "s1", "s2"],
            "transitions": [
                {"from": "s%d" % (i % 3), "label": "a", "to": "s%d" % (i % 2), "weight": wt}
                for i, wt in enumerate(weights)
            ],
        }
        sr = by_name(name, **params)
        cls = type(sr)
        calls = []
        coerce = cls.coerce

        def counting(self, v):
            calls.append(v)
            return coerce(self, v)

        monkeypatch.setattr(cls, "coerce", counting)
        w = load(doc)
        # once per distinct literal text: "true" repeats, "1" is parsed apart
        assert len(calls) == {"real-float": 5, "boolean": 4, "truncation": 5}[name]
        monkeypatch.undo()
        # the same system as the constructor builds, coercing the values
        raw = [(i % 3, "a", i % 2, sr.parse(wt)) for i, wt in enumerate(weights)]
        expected = WLTS(sr, doc["states"], ["a"], "tau", raw)
        assert list(w.transitions()) == list(expected.transitions())
        assert w.zero_transitions_dropped == expected.zero_transitions_dropped > 0

    def test_round_trip(self):
        w = load(doc_chain())
        again = load(serialize(w))
        assert serialize(again) == serialize(w)
        assert list(again.transitions()) == list(w.transitions())

    def test_round_trip_every_instance(self):
        cases = [
            ("boolean", {}, "true"),
            ("real", {}, "7/3"),
            ("real-float", {"epsilon": 1e-6}, "0.25"),
            ("tropical", {}, "4"),
            ("arctic", {}, "-3/2"),
            ("truncation", {"k": 5}, "3"),
            ("maxtimes", {}, "2/3"),
        ]
        for name, params, lit in cases:
            doc = {
                "semiring": dict({"name": name}, **params),
                "states": ["u", "v"],
                "transitions": [
                    {"from": "u", "label": "go", "to": "v", "weight": lit}
                ],
            }
            w = load(doc)
            assert serialize(load(serialize(w))) == serialize(w)

    def test_actions_inferred_and_order_kept(self):
        doc = doc_chain()
        del doc["actions"]
        doc["transitions"].append(
            {"from": "s2", "label": "b", "to": "s0", "weight": "1"}
        )
        w = load(doc)
        assert w.actions == ("a", "b")

    def test_semiring_override(self):
        doc = doc_chain()
        w = load(doc, sr=by_name("maxtimes"))
        assert w.semiring.name == "maxtimes"
        assert w.weight(0, "a", 1) == Fraction(1, 2)

    def test_zero_weight_edges_dropped_and_counted(self):
        doc = doc_chain()
        doc["transitions"].append(
            {"from": "s0", "label": "a", "to": "s2", "weight": "0"}
        )
        w = load(doc)
        assert w.zero_transitions_dropped == 1
        assert w.transition_count == 2
        assert w.weight(0, "a", 2) == 0

    def test_duplicate_edges_combine_with_sum(self):
        doc = doc_chain()
        doc["transitions"].append(
            {"from": "s0", "label": "a", "to": "s1", "weight": "1/3"}
        )
        w = load(doc)
        assert w.weight(0, "a", 1) == Fraction(5, 6)
        boolean_doc = {
            "semiring": "boolean",
            "states": ["u"],
            "transitions": [
                {"from": "u", "label": "l", "to": "u", "weight": "true"},
                {"from": "u", "label": "l", "to": "u", "weight": "true"},
            ],
        }
        assert load(boolean_doc).weight(0, "l", 0) is True

    def test_successor_rows_are_not_built_by_load(self, monkeypatch):
        # the predecessor columns are the stored form; the rows are derived
        doc = doc_chain()
        doc["transitions"] += [
            {"from": "s0", "label": "a", "to": "s2", "weight": "1/5"},
            {"from": "s0", "label": "a", "to": "s0", "weight": "1/7"},
        ]
        w = load(doc)
        assert w._succ is None
        assert w.predecessor_column("a")[1] == {0: Fraction(1, 2)}
        assert w.transition_count == 4 and w._succ is None
        builds = []
        build = wb.wlts._forward
        monkeypatch.setattr(wb.wlts, "_forward", lambda column: builds.append(1) or build(column))
        row = w.successors(0, "a")
        assert list(row.items()) == [(0, Fraction(1, 7)), (1, Fraction(1, 2)), (2, Fraction(1, 5))]
        assert len(builds) == len(w.labels)
        assert w.successors(0, "a") is row and w.successors(1, "tau") == {2: Fraction(1, 3)}
        assert not w.is_terminal(1) and w.is_terminal(2)
        assert len(builds) == len(w.labels)

    def test_add_runs_once_per_duplicate_edge_in_document_order(self, monkeypatch):
        doc = doc_chain()
        doc["transitions"] += [
            {"from": "s0", "label": "a", "to": "s1", "weight": "1/3"},
            {"from": "s0", "label": "a", "to": "s2", "weight": "1/5"},
            {"from": "s0", "label": "a", "to": "s1", "weight": "1/7"},
        ]
        sr = by_name("real")
        calls = []
        add = type(sr).add

        def recording(self, a, b):
            calls.append((a, b))
            return add(self, a, b)

        monkeypatch.setattr(type(sr), "add", recording)
        w = load(doc)
        half, third, seventh = Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)
        assert calls == [(half, third), (half + third, seventh)]
        assert w.weight(0, "a", 1) == half + third + seventh

    def test_label_seen_only_on_zero_edges_is_declared(self):
        doc = doc_chain()
        del doc["actions"]
        doc["transitions"].append({"from": "s2", "label": "b", "to": "s0", "weight": "0"})
        w = load(doc)
        assert w.actions == ("a", "b")
        assert w.labels == ("tau", "a", "b")
        assert w.predecessor_column("b") == [{}, {}, {}]
        assert w.zero_transitions_dropped == 1

    @pytest.mark.parametrize(
        "edges,error,message",
        [
            (
                [{"from": "s0", "to": "s1"}, {"from": "s0", "label": "a", "to": "s1", "weight": "x"}],
                ParseError,
                "transition lacks 'label': {'from': 's0', 'to': 's1'}",
            ),
            (
                [{"from": "s0", "label": "a", "to": "s1", "weight": "x"}, {"from": "s0"}],
                SemanticError,
                "bad weight 'x': expected a rational literal 'p/q' or 'n', got 'x'",
            ),
            (
                [{"from": "s0", "label": "a", "to": "zz"}, ["s0", "a", "s1", "1"]],
                ParseError,
                "transition lacks 'weight': {'from': 's0', 'label': 'a', 'to': 'zz'}",
            ),
            (
                [["s0", "a", "s1", "1"], {"from": "s0"}],
                ParseError,
                "each transition must be an object",
            ),
        ],
        ids=["missing-fields-first", "bad-weight-first", "missing-weight-first", "non-object-first"],
    )
    def test_first_malformed_edge_wins(self, edges, error, message):
        doc = {"semiring": "real", "states": ["s0", "s1"], "transitions": edges}
        with pytest.raises(DocumentError) as exc:
            load(doc)
        assert type(exc.value) is error
        assert str(exc.value) == message

    def test_parse_errors(self):
        for broken in [
            [],
            {"states": ["s"], "transitions": []},
            {"semiring": "real", "transitions": []},
            {"semiring": "real", "states": "s0, s1", "transitions": []},
            {"semiring": "real", "states": ["s"], "transitions": {}},
            {"semiring": "real", "states": ["s"], "transitions": ["edge"]},
            {"semiring": "real", "states": ["s"], "transitions": [{"from": "s"}]},
            {"semiring": {}, "states": ["s"], "transitions": []},
            {"semiring": "real", "tau": 3, "states": ["s"], "transitions": []},
            {"semiring": "real", "silent": "b", "states": ["s"], "transitions": []},
            {
                "semiring": "real",
                "states": ["s"],
                "transitions": [
                    {"from": "s", "label": "a", "to": "s", "weight": 0.5}
                ],
            },
        ]:
            with pytest.raises(ParseError):
                load(broken)

    def test_semantic_errors(self):
        base = doc_chain()
        bad_src = dict(base, transitions=[dict(base["transitions"][0], **{"from": "zz"})])
        bad_dst = dict(base, transitions=[dict(base["transitions"][0], to="zz")])
        bad_weight = dict(base, transitions=[dict(base["transitions"][0], weight="-1")])
        dup_states = dict(base, states=["s0", "s0", "s2"])
        dup_actions = dict(base, actions=["a", "a"])
        unknown_sr = dict(base, semiring="modal")
        missing_k = dict(base, semiring={"name": "truncation"})
        for broken in [bad_src, bad_dst, bad_weight, dup_states, dup_actions, unknown_sr, missing_k]:
            with pytest.raises(SemanticError):
                load(broken)
        with pytest.raises(SemanticError, match="duplicate action name 'a'"):
            load(dup_actions)

    def test_infinite_epsilon_is_a_semantic_error(self):
        doc = dict(doc_chain(), semiring={"name": "real-float", "epsilon": 1e-6})
        assert load(doc).semiring.epsilon == 1e-6
        text = json.dumps(dict(doc, semiring={"name": "real-float", "epsilon": float("inf")}))
        assert "Infinity" in text
        with pytest.raises(SemanticError):
            load(json.loads(text))

    def test_tau_cannot_be_an_action(self):
        with pytest.raises(SemanticError):
            WLTS(by_name("boolean"), ["s"], actions=("tau",))

    # Literal pools with repeats, zero, and equal values in different text.
    LITERALS = [
        ("boolean", {}, ["true", "false", "1", "0", " true", "TRUE"]),
        ("real", {}, ["1/2", "2/4", " 1/2", "1", "0", "0/3", "3", "inf", "1/3", "10/30"]),
        ("real-float", {"epsilon": 1e-6}, ["0.5", "1/2", " 0.5", "2/4", "0", "0.0", "inf", "1e-3", "3"]),
        ("tropical", {}, ["0", "1/2", "2/4", "inf", " inf", "3", " 3"]),
        ("arctic", {}, ["-inf", "-1/2", "-2/4", "0", "3", "-inf "]),
        ("truncation", {"k": 5}, ["0", "1", "01", " 2", "5", "3"]),
        ("maxtimes", {}, ["0", "1", "1/2", "2/4", " 1/3", "2/6"]),
    ]

    @pytest.mark.parametrize("name,params,literals", LITERALS, ids=[c[0] for c in LITERALS])
    def test_load_matches_the_checking_constructor(self, name, params, literals):
        # load parses each distinct literal once and skips the constructor's
        # checks; the public constructor, given each edge parsed on its own,
        # must build the same system
        rng = random.Random("load %s" % name)
        sr = by_name(name, **params)
        for _ in range(45):
            n = rng.randint(1, 6)
            states = ["s%d" % i for i in range(n)]
            declared = rng.choice([[], ["b"], ["b", "a"]])
            edges = []
            for _ in range(rng.randint(0, 16)):
                if edges and rng.random() < 0.25:
                    x, label, y, _ = rng.choice(edges)  # a duplicate edge
                else:
                    x, label, y = rng.randrange(n), rng.choice(["tau", "a", "b", "c"]), rng.randrange(n)
                edges.append((x, label, y, rng.choice(literals)))
            doc = {
                "semiring": dict(name=name, **params),
                "states": states,
                "actions": declared,
                "transitions": [
                    {"from": states[x], "label": label, "to": states[y], "weight": text}
                    for x, label, y, text in edges
                ],
            }
            actions = list(dict.fromkeys(declared + [e[1] for e in edges if e[1] != "tau"]))
            triples = [(x, label, y, sr.parse(text)) for x, label, y, text in edges]
            expected = WLTS(sr, states, actions, "tau", triples)
            w = load(doc)
            assert list(w.transitions()) == list(expected.transitions())
            assert [type(t[3]) for t in w.transitions()] == [
                type(t[3]) for t in expected.transitions()
            ]
            assert w.actions == expected.actions
            assert w.zero_transitions_dropped == expected.zero_transitions_dropped

    # (document semiring, --semiring override or None, literals, zero edges
    # among the ones that cycle through the literals twice)
    ZERO_LITERALS = [
        ("real", None, ["0", "1/2", "0/3", "0", "2/4"], 6),
        ("tropical", None, ["inf", "0", " inf", "3"], 4),
        ("arctic", None, ["-inf", "0", "-1/2", "-inf"], 4),
        ("boolean", None, ["false", "true", "false", "0"], 6),
        ("real-float", None, ["1e-12", "0.5", "1e-12", "0"], 6),
        ("real", ("maxtimes", {}), ["0", "1", "0/3", "1/2"], 4),
        ("real", ("real-float", {"epsilon": 1e-6}), ["1e-9", "1/2", "0", "inf"], 4),
        ("tropical", ("arctic", {}), ["-inf", "inf", "0", "-inf"], 4),
        ("boolean", ("truncation", {"k": 3}), ["3", "0", "3", "1"], 4),
    ]

    @staticmethod
    def _zero_doc(name, literals):
        # repeats every edge with each literal: zero and nonzero duplicates
        return {
            "semiring": name,
            "states": ["s0", "s1"],
            "transitions": [
                {"from": "s%d" % (i % 2), "label": "a", "to": "s%d" % (i // 2 % 2), "weight": text}
                for i, text in enumerate(literals * 2)
            ],
        }

    @pytest.mark.parametrize(
        "name,override,literals,zeros", ZERO_LITERALS, ids=[str(i) for i in range(len(ZERO_LITERALS))]
    )
    def test_zero_edges_drop_as_in_the_checking_constructor(
        self, name, override, literals, zeros, tmp_path, capsys
    ):
        doc = self._zero_doc(name, literals)
        sr = by_name(override[0], **override[1]) if override else by_name(name)
        w = load(doc, sr if override else None)
        triples = [
            (i % 2, "a", i // 2 % 2, sr.parse(text)) for i, text in enumerate(literals * 2)
        ]
        expected = WLTS(sr, doc["states"], ["a"], "tau", triples)
        assert list(w.transitions()) == list(expected.transitions())
        assert w.zero_transitions_dropped == expected.zero_transitions_dropped == zeros
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps(doc))
        argv = ["validate", str(path)]
        if override:
            argv += ["--semiring", override[0]]
            argv += ["--param=%s=%s" % kv for kv in override[1].items()]
        assert wb.cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["zero_weights_dropped"] == zeros
        assert payload["transitions"] == expected.transition_count

    @pytest.mark.parametrize(
        "name,override,literals,zeros", ZERO_LITERALS, ids=[str(i) for i in range(len(ZERO_LITERALS))]
    )
    def test_is_zero_runs_once_per_distinct_literal(self, name, override, literals, zeros, monkeypatch):
        sr = by_name(override[0], **override[1]) if override else by_name(name)
        calls = []
        is_zero = sr.is_zero
        monkeypatch.setattr(sr, "is_zero", lambda v: calls.append(v) or is_zero(v))
        w = load(self._zero_doc(name, literals), sr)
        assert 0 < len(calls) <= len(set(literals))
        assert w.zero_transitions_dropped == zeros

    def test_string_subclass_fields_are_accepted(self):
        class Name(str):
            pass

        doc = doc_chain()
        doc["transitions"] = [{k: Name(v) for k, v in e.items()} for e in doc["transitions"]]
        assert list(load(doc).transitions()) == list(load(doc_chain()).transitions())

    @pytest.mark.parametrize(
        "edges,extra,error,message",
        [
            (
                [("s0", "a", "s1", "1/2"), ("s0", "a", "s1", "x/2"), ("s1", "a", "s0", "x/2")],
                {},
                SemanticError,
                "bad weight 'x/2': expected a rational literal 'p/q' or 'n', got 'x/2'",
            ),
            (
                [("s0", "a", "s1", "1"), ("s0", "a", "s1", "-1"), ("s1", "a", "s0", "x"), ("s1", "a", "s0", "-1")],
                {},
                SemanticError,
                "bad weight '-1': real carrier is [0, inf], got -1",
            ),
            (
                [("s0", "a", "s1", "-1/2"), ("zz", "a", "s1", "1/2")],
                {},
                SemanticError,
                "bad weight '-1/2': real carrier is [0, inf], got -1/2",
            ),
            (
                [("s0", "a", "zz", "1/2"), ("s0", "a", "s1", "-1/2")],
                {},
                SemanticError,
                "transition to unknown state 'zz'",
            ),
            (
                [("s0", "a", "zz", "oops")],
                {},
                SemanticError,
                "transition to unknown state 'zz'",
            ),
            (
                [("s0", "tau", "s1", "1/2"), ("s1", "a", "s0", "oops")],
                {"actions": ["a", "tau"]},
                SemanticError,
                "bad weight 'oops': expected a rational literal 'p/q' or 'n', got 'oops'",
            ),
            (
                [("s0", "tau", "s1", "1/2"), ("s1", "a", "s0", "1/2")],
                {"actions": ["tau"]},
                SemanticError,
                "silent label 'tau' also declared as an action",
            ),
            (
                [("s0", "a", "s1", "oops"), ("s0", "a", "s1", 1)],
                {},
                SemanticError,
                "bad weight 'oops': expected a rational literal 'p/q' or 'n', got 'oops'",
            ),
            (
                [("zz", 3, "s1", "1/2")],
                {},
                ParseError,
                "transition fields must be strings:"
                " {'from': 'zz', 'label': 3, 'to': 's1', 'weight': '1/2'}",
            ),
            (
                [("s0", "a", "s1", "1/2"), ("s0", "a", "s1", 0.5)],
                {},
                ParseError,
                "transition fields must be strings:"
                " {'from': 's0', 'label': 'a', 'to': 's1', 'weight': 0.5}",
            ),
            (
                [("s0", "a", "s1", "0.5"), ("s1", "a", "s0", "-0.5")],
                {"semiring": "real-float"},
                SemanticError,
                "bad weight '-0.5': weight -0.5 outside the non-negative carrier",
            ),
            (
                [("s0", "a", "s1", "-inf")],
                {"semiring": "real-float"},
                SemanticError,
                "bad weight '-inf': weight -inf outside the non-negative carrier",
            ),
            (
                [("s0", "a", "s1", "nan")],
                {"semiring": "real-float"},
                SemanticError,
                "bad weight 'nan': weight nan outside the non-negative carrier",
            ),
        ],
        ids=[
            "repeated-bad-literal",
            "first-of-two-bad-literals",
            "unknown-state-after-bad-weight",
            "bad-weight-after-unknown-state",
            "unknown-state-and-bad-weight-on-one-edge",
            "tau-action-and-bad-weight",
            "tau-action",
            "non-string-field-after-bad-weight",
            "non-string-field-and-unknown-state",
            "non-string-weight",
            "negative-float",
            "negative-infinite-float",
            "nan-float",
        ],
    )
    def test_first_error_wins(self, edges, extra, error, message):
        doc = dict(
            {
                "semiring": "real",
                "states": ["s0", "s1"],
                "transitions": [
                    dict(zip(("from", "label", "to", "weight"), e)) for e in edges
                ],
            },
            **extra,
        )
        with pytest.raises(DocumentError) as exc:
            load(doc)
        assert type(exc.value) is error
        assert str(exc.value) == message

    @pytest.mark.parametrize("unknown", [None, "from", "to"])
    @pytest.mark.parametrize("value", [["s0"], {"s0": "s1"}], ids=["list", "dict"])
    @pytest.mark.parametrize("key", ["from", "label", "to", "weight"])
    def test_an_unhashable_field_is_not_a_string(self, key, value, unknown):
        # The fields are looked up before they are type-checked; a lookup of
        # an unhashable one raises TypeError, which must not escape.  The
        # good edge first makes every other lookup of the bad one hit.
        good = {"from": "s0", "label": "a", "to": "s1", "weight": "1/2"}
        edge = dict(good)
        if unknown is not None and unknown != key:
            edge[unknown] = "zz"
        edge[key] = value
        doc = {"semiring": "real", "states": ["s0", "s1"], "transitions": [good, edge]}
        with pytest.raises(ParseError) as exc:
            load(doc)
        assert str(exc.value) == "transition fields must be strings: %r" % (edge,)

    @pytest.mark.parametrize(
        "states,name", [(["a", "b", "a"], "a"), (["a", "b", "b", "a"], "b")]
    )
    def test_duplicate_state_name(self, states, name):
        with pytest.raises(SemanticError) as exc:
            load({"semiring": "real", "states": states, "transitions": []})
        assert str(exc.value) == "duplicate state name %r" % name

    def test_zero_denominator(self):
        doc = doc_chain()
        doc["transitions"][0]["weight"] = "1/0"
        with pytest.raises(SemanticError) as exc:
            load(doc)
        assert str(exc.value) == "bad weight '1/0': zero denominator in '1/0'"

    @pytest.mark.parametrize("name", ["real", "tropical", "arctic", "maxtimes"])
    def test_leading_zeros_in_a_rational_literal(self, name):
        doc = dict(doc_chain(), semiring=name)
        doc["transitions"][0]["weight"] = "007/010"
        (_, _, _, wt), *_ = load(doc).transitions()
        assert wt == Fraction(7, 10) and type(wt) is Fraction

    def test_constructor_checks_every_transition(self):
        sr = by_name("real")
        good = (0, "a", 1, Fraction(1, 2))
        for bad, message in [
            ((2, "a", 1, Fraction(1)), "bad source state id 2"),
            ((0, "a", -1, Fraction(1)), "bad target state id -1"),
            (("0", "a", 1, Fraction(1)), "bad source state id '0'"),
            ((0, "b", 1, Fraction(1)), "undeclared label 'b'"),
            ((0, "a", 1, -1), "real carrier is [0, inf], got -1"),
            ((0, "a", 1, "1/2"), "cannot use '1/2' as a real weight"),
        ]:
            with pytest.raises(SemanticError) as exc:
                WLTS(sr, ["u", "v"], ["a"], "tau", [good, bad])
            assert str(exc.value) == message

    @pytest.mark.parametrize(
        "semiring,states,actions,weight,message",
        [
            ("real", ["u", "u"], ["a"], Fraction(1), "duplicate state names"),
            ("real", ["u", "v"], ["a", "a"], Fraction(1), "duplicate action names"),
            ("boolean", ["u", "v"], ["a"], 1, "boolean semiring carries bool values, got 1"),
            ("real-float", ["u", "v"], ["a"], True, "bool is not a float weight"),
            ("real-float", ["u", "v"], ["a"], "x", "cannot use 'x' as a float weight"),
        ],
        ids=["duplicate-state", "duplicate-action", "boolean-int", "float-bool", "float-str"],
    )
    def test_constructor_rejects(self, semiring, states, actions, weight, message):
        edges = [(0, "a", len(states) - 1, weight)]
        with pytest.raises(SemanticError, match="^%s$" % re.escape(message)):
            WLTS(by_name(semiring), states, actions, "tau", edges)


    HUGE = "1" + "0" * 400

    @pytest.mark.parametrize(
        "literal",
        [HUGE, HUGE + "/3", "-" + HUGE, "1e400", "2.5E+308"],
        ids=["integer", "fraction", "negative", "decimal", "exponent"],
    )
    def test_real_float_literal_too_large_for_a_float_is_a_bad_weight(self, literal):
        doc = dict(doc_chain(), semiring="real-float")
        doc["transitions"][0]["weight"] = literal
        with pytest.raises(SemanticError, match="bad weight"):
            load(doc)

    @pytest.mark.parametrize("value", [10**400, Fraction(10**400, 3)], ids=["int", "Fraction"])
    def test_real_float_weight_too_large_for_a_float_is_rejected(self, value):
        sr = by_name("real-float")
        with pytest.raises(SemanticError, match="too large for a float"):
            WLTS(sr, ["u", "v"], ["a"], "tau", [(0, "a", 1, value)])

    @pytest.mark.parametrize("literal", ["inf", " inf", "Infinity", "1e308"])
    def test_real_float_literals_in_range_still_load(self, literal):
        sr = by_name("real-float")
        doc = dict(doc_chain(), semiring="real-float")
        doc["transitions"][0]["weight"] = literal
        (_, _, _, wt), *_ = load(doc).transitions()
        assert wt == sr.parse(literal) == float(literal)
        assert sr.format(sr.parse("inf")) == "inf"


class TestWLTSQueries:
    def test_class_weight_matches_direct_sum(self):
        w = helpers.figure_system()
        x3 = w.index("x3")
        targets = {w.index("x5"), w.index("x6")}
        assert w.class_weight(x3, "a", targets) == Fraction(1, 8) + Fraction(1, 7)
        assert w.class_weight(x3, "a", [w.index("x5")]) == Fraction(1, 8)
        assert w.class_weight(x3, "b", targets) == 0

    def test_class_weight_additive_over_disjoint_targets(self):
        rng = random.Random(7)
        sr = by_name("real")
        for _ in range(30):
            w = helpers.random_wlts(rng, sr, 6, 2, 0.4, helpers.positive_fraction)
            states = list(range(6))
            rng.shuffle(states)
            part_a, part_b = set(states[:3]), set(states[3:])
            for x in range(6):
                for label in w.labels:
                    whole = w.class_weight(x, label, part_a | part_b)
                    split = sr.add(
                        w.class_weight(x, label, part_a),
                        w.class_weight(x, label, part_b),
                    )
                    assert whole == split

    def test_successors_and_transition_order(self):
        w = helpers.figure_system()
        x = w.index("x")
        assert w.successors(x, "a") == {w.index("x4"): Fraction(1, 5)}
        listed = list(w.transitions())
        assert listed == sorted(listed, key=lambda t: (t[0], t[1] != "b", t[1], t[2]))
        assert w.transition_count == 7

    def test_index_unknown_state(self):
        w = helpers.figure_system()
        with pytest.raises(SemanticError):
            w.index("nope")


def naive_sums(sr, edges):
    """(label, x, y) -> the sum, in order, of the nonzero weights of the
    ``edges`` (x, label, y, weight) between x and y under label."""
    sums = {}
    for x, label, y, v in edges:
        if not sr.is_zero(v):
            key = (label, x, y)
            sums[key] = sr.add(sums[key], v) if key in sums else v
    return sums


def naive_indexes(sr, n, labels, edges):
    """Predecessor columns and successor rows of ``edges``, (x, label, y,
    weight) in document order, built the plain way: zero weights dropped,
    duplicates summed in order, zero sums dropped, every mapping listed by
    ascending id."""
    sums = {key: v for key, v in naive_sums(sr, edges).items() if not sr.is_zero(v)}
    ordered = sorted(sums.items(), key=lambda kv: (kv[0][1], kv[0][2]))
    columns = {label: [[] for _ in range(n)] for label in labels}
    rows = {label: [[] for _ in range(n)] for label in labels}
    for (label, x, y), v in ordered:
        columns[label][y].append((x, v))
        rows[label][x].append((y, v))
    return columns, rows


def indexes(w):
    """What ``w`` stores and derives, in the shape of ``naive_indexes``."""
    n = w.state_count
    columns = {label: [list(into.items()) for into in w.predecessor_column(label)] for label in w.labels}
    rows = {label: [list(w.successors(x, label).items()) for x in range(n)] for label in w.labels}
    return columns, rows


class TestIndexes:
    @pytest.mark.parametrize("sr,gen", helpers.SEMIRING_WEIGHTS, ids=helpers.semiring_ids())
    def test_stored_and_derived_indexes_match_a_naive_build(self, sr, gen):
        # duplicate, zero-weight and unsorted edges, and a label ("z") that
        # only zero-weight edges carry
        rng = random.Random("indexes %s" % sr.name)
        zero = sr.format(sr.zero)
        for _ in range(25):
            n = rng.randint(1, 9)
            states = ["s%d" % i for i in range(n)]
            edges = []
            for _ in range(rng.randint(0, 3 * n)):
                if edges and rng.random() < 0.3:
                    x, label, y, _ = rng.choice(edges)
                else:
                    x, label, y = rng.randrange(n), rng.choice(["tau", "a", "b"]), rng.randrange(n)
                edges.append((x, label, y, zero if rng.random() < 0.15 else sr.format(gen(rng))))
            edges.append((rng.randrange(n), "z", rng.randrange(n), zero))
            if rng.random() < 0.5:
                edges.sort(key=lambda e: e[0])
            else:
                rng.shuffle(edges)
            parsed = [(x, label, y, sr.parse(text)) for x, label, y, text in edges]
            doc = {
                "semiring": sr.describe(),
                "states": states,
                "actions": ["b", "a"],
                "transitions": [
                    {"from": states[x], "label": label, "to": states[y], "weight": text}
                    for x, label, y, text in edges
                ],
            }
            for w in (load(doc), WLTS(sr, states, ["b", "a", "z"], "tau", parsed)):
                assert w.labels == ("tau", "b", "a", "z")
                assert indexes(w) == naive_indexes(sr, n, w.labels, parsed)
                strong = wb.refine_partition(w, "strong")[0]
                names = [str(b) for b in range(len(strong))]
                quotient = wb.bisim._representative_quotient(w, strong, names)
                heads = {block[0]: bi for bi, block in enumerate(strong.blocks)}
                lumped = [
                    (heads[x], label, strong.block_index(y), v)
                    for (label, x, y), v in sorted(naive_sums(sr, parsed).items(), key=lambda kv: kv[0][1:])
                    if x in heads
                ]
                assert indexes(quotient) == naive_indexes(sr, len(strong), w.labels, lumped)
        assert wb.wlts._EMPTY == {}


class TestConstraints:
    def test_fully_probabilistic_accepts_generative(self):
        rng = random.Random(3)
        w = helpers.random_generative(rng, 6, 2)
        report = check_fully_probabilistic(w)
        assert report.ok
        assert len(report.entries) == 6

    def test_fully_probabilistic_flags_bad_mass(self):
        doc = doc_chain()  # s0 emits total mass 1/2
        report = check_fully_probabilistic(load(doc))
        assert not report.ok
        bad = [e for e in report.entries if not e.ok]
        assert [e.subject for e in bad] == ["s0", "s1"]
        assert bad[0].mass == "1/2"

    def test_reactive_checks_per_label(self):
        doc = {
            "semiring": "real",
            "states": ["u", "v"],
            "transitions": [
                {"from": "u", "label": "a", "to": "u", "weight": "1/2"},
                {"from": "u", "label": "a", "to": "v", "weight": "1/2"},
                {"from": "u", "label": "b", "to": "v", "weight": "1/3"},
            ],
        }
        report = check_reactive(load(doc))
        assert not report.ok
        assert {e.subject: e.ok for e in report.entries} == {
            "u/a": True,
            "u/b": False,
        }

    def test_constraints_need_a_real_semiring(self):
        w = helpers.chains_system()
        with pytest.raises(SemanticError):
            check_fully_probabilistic(w)
        with pytest.raises(SemanticError):
            check_reactive(w)


class TestPartition:
    def test_canonical_form(self):
        p = Partition(4, [[3, 1], [2, 0]])
        assert p.blocks == ((0, 2), (1, 3))
        assert p == Partition(4, [(0, 2), (1, 3)])
        assert hash(p) == hash(Partition(4, [[1, 3], [0, 2]]))

    def test_both_constructors_take_the_same_canonical_form(self):
        # Checked blocks, as sets and as shuffled lists in any order, and
        # block names of mixed kinds are put in canonical form the same way.
        rng = random.Random("one canonical form")
        for _ in range(60):
            n = rng.randint(1, 20)
            label = {b: rng.choice((b, "b%d" % b, (b, "b"))) for b in range(4)}
            names = [label[rng.randrange(4)] for _ in range(n)]
            blocks = [{x for x in range(n) if names[x] == b} for b in set(names)]
            rng.shuffle(blocks)
            blocks = [b if rng.random() < 0.5 else rng.sample(sorted(b), len(b)) for b in blocks]
            checked = Partition(n, blocks)
            named = Partition.from_block_of(names)
            assert checked.blocks == named.blocks
            assert checked._block_of == named._block_of
            assert list(named.blocks) == sorted(named.blocks)
            assert all(list(b) == sorted(b) for b in named.blocks)

    def test_accessors(self):
        p = Partition(4, [[0, 2], [1, 3]])
        assert p.blocks[p.block_index(2)] == (0, 2)
        assert p.block_index(3) == 1
        assert p.same_block(0, 2)
        assert not p.same_block(0, 1)
        assert len(p) == 2
        assert list(p) == [(0, 2), (1, 3)]

    def test_accessors_reject_ids_out_of_range(self):
        p = Partition(4, [[0, 2], [1, 3]])
        for x in (-1, 4, -5):
            with pytest.raises(ValueError, match="out of range"):
                p.block_index(x)
            with pytest.raises(ValueError, match="out of range"):
                p.same_block(0, x)
            with pytest.raises(ValueError, match="out of range"):
                p.same_block(x, 0)

    def test_constructors(self):
        assert Partition.single_block(3).blocks == ((0, 1, 2),)
        assert Partition.single_block(0).blocks == ()
        assert Partition.from_block_of([0, 1, 0, 2]) == Partition(
            4, [[0, 2], [1], [3]]
        )

    def test_refines(self):
        fine = Partition(4, [[0], [2], [1, 3]])
        coarse = Partition(4, [[0, 2], [1, 3]])
        assert helpers.refines(fine, coarse)
        assert not helpers.refines(coarse, fine)
        assert helpers.refines(coarse, coarse)
        assert helpers.refines(Partition(4, [[0], [1], [2], [3]]), fine)
        assert helpers.refines(fine, Partition.single_block(4))
        with pytest.raises(ValueError):
            helpers.refines(fine, Partition.single_block(3))

    def test_validation(self):
        with pytest.raises(ValueError, match=r"states \[2\] not covered"):
            Partition(3, [[0, 1]])
        with pytest.raises(ValueError, match="state 1 in two blocks"):
            Partition(3, [[0, 1], [1, 2]])
        with pytest.raises(ValueError, match="empty block"):
            Partition(3, [[0, 1, 2], []])
        with pytest.raises(ValueError, match="state id 5 out of range"):
            Partition(3, [[0, 1, 5]])
        with pytest.raises(ValueError, match="empty block"):
            Partition.single_block(-1)  # one empty block

    def test_to_names(self):
        w = helpers.chains_system()
        p = Partition.single_block(w.state_count)
        assert p.to_names(w) == [["p0", "p1", "p2", "p3", "q0", "q1", "q2"]]

    def test_random_from_block_of_round_trips(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 9)
            assign = [rng.randrange(3) for _ in range(n)]
            p = Partition.from_block_of(assign)
            assert sorted(x for b in p.blocks for x in b) == list(range(n))
            for x in range(n):
                for y in range(n):
                    assert p.same_block(x, y) == (assign[x] == assign[y])
