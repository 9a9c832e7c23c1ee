"""Weighted labelled transition systems and state-space partitions.

A WLTS is a finite state set, an observable action alphabet plus one
distinguished silent label, and a weight function into a semiring; weight
zero means "no transition".  States are dense integer ids internally;
documents and the CLI use names.

The document format is JSON-shaped::

    {
      "semiring": {"name": "real"},        # or just "real"; truncation
      "tau": "tau",                        # needs "k", real-float may
      "states": ["s0", "s1"],              # set "epsilon"
      "actions": ["a"],                    # optional, inferred otherwise
      "transitions": [
        {"from": "s0", "label": "a", "to": "s1", "weight": "1/2"}
      ]
    }

Weights are literals of the active semiring ("p/q", "n", "inf", decimals
in float mode, true/false for boolean).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import semiring as _semiring


class DocumentError(Exception):
    """Base class for errors raised while reading a system document."""


class ParseError(DocumentError):
    """The document is structurally malformed (missing/ill-typed fields)."""


class SemanticError(DocumentError):
    """The document is well-formed but inconsistent (bad refs, bad weights)."""


_EMPTY = {}


class WLTS:
    """Immutable weighted LTS over a fixed semiring.

    Constructor transitions are (source_id, label, target_id, weight)
    tuples with already-parsed weights.  Each id must be in range and each
    label declared, and each weight is passed through ``sr.coerce``;
    duplicates are combined with the semiring sum and zero-weight entries
    are dropped (counted in ``zero_transitions_dropped``).

    ``_parsed`` is for ``load`` and the quotient builders only, which build
    their triples from checked ids, declared labels and coerced nonzero
    weights, dropping the zero ones themselves: under it the
    per-transition checks and the zero test are skipped, while the names
    and actions are still checked.
    """

    def __init__(self, sr, state_names, actions=(), tau="tau", transitions=(), *, _parsed=False):
        names = tuple(state_names)
        if len(set(names)) != len(names):
            raise SemanticError("duplicate state names")
        acts = tuple(actions)
        if len(set(acts)) != len(acts):
            raise SemanticError("duplicate action names")
        if tau in acts:
            raise SemanticError("silent label %r also declared as an action" % tau)
        self.semiring = sr
        self.tau = tau
        self.state_names = names
        self.actions = acts
        self._index = {s: i for i, s in enumerate(names)}
        succ = [dict() for _ in names]
        labels = None if _parsed else {tau, *acts}
        dropped = 0
        for x, label, y, w in transitions:
            if not _parsed:
                if not (isinstance(x, int) and 0 <= x < len(names)):
                    raise SemanticError("bad source state id %r" % (x,))
                if not (isinstance(y, int) and 0 <= y < len(names)):
                    raise SemanticError("bad target state id %r" % (y,))
                if label not in labels:
                    raise SemanticError("undeclared label %r" % (label,))
                try:
                    w = sr.coerce(w)
                except ValueError as exc:
                    raise SemanticError(str(exc)) from None
                if sr.is_zero(w):
                    dropped += 1
                    continue
            row = succ[x].setdefault(label, {})
            if y in row:
                w = sr.add(row[y], w)
            row[y] = w
        self._succ = succ
        self._pred = None
        self.zero_transitions_dropped = dropped

    # -- basic queries ---------------------------------------------------

    @property
    def state_count(self):
        return len(self.state_names)

    @property
    def labels(self):
        """All labels in canonical order: the silent one first."""
        return (self.tau,) + self.actions

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise SemanticError("unknown state %r" % (name,)) from None

    def successors(self, x, label):
        """Mapping target_id -> weight for the stored (nonzero) steps."""
        return self._succ[x].get(label, _EMPTY)

    def predecessor_column(self, label):
        """For every state y, the mapping source_id -> weight of the stored
        ``label`` steps into y, as a list indexed by y; None for a label the
        system does not have.  The list and its mappings are the system's
        own, not copies: read them only.

        The index is built on the first call, in time proportional to the
        transition count, and kept for the life of the system.
        """
        if self._pred is None:
            # One column per label, with a dict of its own only for states
            # that have predecessors under it: a dict per state would cost
            # more than the edges on sparse systems.
            n = len(self.state_names)
            pred = {lab: [_EMPTY] * n for lab in self.labels}
            for x, succ in enumerate(self._succ):
                for lab, row in succ.items():
                    col = pred[lab]
                    for target, w in row.items():
                        if col[target] is _EMPTY:
                            col[target] = {}
                        col[target][x] = w
            self._pred = pred
        return self._pred.get(label)

    def weight(self, x, label, y):
        return self._succ[x].get(label, _EMPTY).get(y, self.semiring.zero)

    def is_terminal(self, x):
        return not any(self._succ[x].values())

    def class_weight(self, x, label, targets):
        """Semiring sum of x's label-steps into the target set."""
        row = self._succ[x].get(label)
        if not row:
            return self.semiring.zero
        if not isinstance(targets, (set, frozenset, dict)):
            targets = set(targets)
        sr = self.semiring
        total = sr.zero
        if len(targets) < len(row):
            for y in targets:
                if y in row:
                    total = sr.add(total, row[y])
        else:
            for y, w in row.items():
                if y in targets:
                    total = sr.add(total, w)
        return total

    def transitions(self):
        """All stored transitions in canonical (source, label, target) order."""
        order = {lab: i for i, lab in enumerate(self.labels)}
        for x in range(self.state_count):
            for label in sorted(self._succ[x], key=order.__getitem__):
                row = self._succ[x][label]
                for y in sorted(row):
                    yield x, label, y, row[y]

    @property
    def transition_count(self):
        return sum(len(row) for succ in self._succ for row in succ.values())

    def __repr__(self):
        return "WLTS(%s, %d states, %d transitions)" % (
            self.semiring.name,
            self.state_count,
            self.transition_count,
        )


# -- documents -------------------------------------------------------------


def _semiring_from_field(value):
    if isinstance(value, str):
        try:
            return _semiring.by_name(value)
        except ValueError as exc:
            raise SemanticError(str(exc)) from None
    if isinstance(value, dict):
        if "name" not in value:
            raise ParseError("semiring object needs a 'name' field")
        if not isinstance(value["name"], str):
            raise ParseError("semiring name must be a string")
        params = {k: v for k, v in value.items() if k != "name"}
        try:
            return _semiring.by_name(value["name"], **params)
        except ValueError as exc:
            raise SemanticError(str(exc)) from None
    raise ParseError("semiring field must be a name or an object")


def load(doc, sr=None):
    """Build a WLTS from a parsed document.

    ``sr`` overrides the document's semiring (the CLI --semiring flag);
    weight literals are then parsed under the override.  Zero-weight edges
    are dropped and counted, duplicate edges are combined with the sum.

    Each distinct literal text is parsed and tested for zero once per call,
    and its value shared by every edge that repeats it (the carriers'
    values are immutable); a bad literal is reported at its first
    occurrence.  Every edge is checked and zero edges are dropped here, so
    the system is built with ``_parsed`` and not checked again.
    """
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    unknown = [k for k in doc if k not in ("semiring", "tau", "states", "actions", "transitions")]
    if unknown:
        # a typo here (say "silent" for "tau") would silently change semantics
        raise ParseError("unknown document field(s): %s" % ", ".join(sorted(unknown)))
    if sr is None:
        if "semiring" not in doc:
            raise ParseError("document lacks a 'semiring' field")
        sr = _semiring_from_field(doc["semiring"])
    tau = doc.get("tau", "tau")
    if not isinstance(tau, str) or not tau:
        raise ParseError("'tau' must be a nonempty string")
    states = doc.get("states")
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise ParseError("'states' must be a list of names")
    raw_edges = doc.get("transitions")
    if not isinstance(raw_edges, list):
        raise ParseError("'transitions' must be a list")

    declared = doc.get("actions", [])
    if not isinstance(declared, list) or not all(isinstance(a, str) for a in declared):
        raise ParseError("'actions' must be a list of names")
    actions = list(dict.fromkeys(declared))
    index = {}
    for i, s in enumerate(states):
        if s in index:
            raise SemanticError("duplicate state name %r" % s)
        index[s] = i

    triples = []
    weights = {}  # literal text -> (parsed weight, whether it is zero)
    for e in raw_edges:
        if not isinstance(e, dict):
            raise ParseError("each transition must be an object")
        for key in ("from", "label", "to", "weight"):
            if key not in e:
                raise ParseError("transition lacks %r: %r" % (key, e))
        src, label, dst, wtext = e["from"], e["label"], e["to"], e["weight"]
        if not (type(src) is type(label) is type(dst) is type(wtext) is str) and not all(
            isinstance(v, str) for v in (src, label, dst, wtext)
        ):
            raise ParseError("transition fields must be strings: %r" % (e,))
        x = index.get(src)
        if x is None:
            raise SemanticError("transition from unknown state %r" % src)
        y = index.get(dst)
        if y is None:
            raise SemanticError("transition to unknown state %r" % dst)
        if label != tau and label not in actions:
            actions.append(label)
        parsed = weights.get(wtext)
        if parsed is None:
            try:
                w = sr.parse(wtext)
            except ValueError as exc:
                raise SemanticError("bad weight %r: %s" % (wtext, exc)) from None
            parsed = weights[wtext] = (w, sr.is_zero(w))
        if not parsed[1]:
            triples.append((x, label, y, parsed[0]))

    w = WLTS(sr, states, actions, tau, triples, _parsed=True)
    w.zero_transitions_dropped = len(raw_edges) - len(triples)
    return w


def serialize(w):
    """Canonical document for a WLTS; load(serialize(w)) reproduces it."""
    edges = [
        {
            "from": w.state_names[x],
            "label": label,
            "to": w.state_names[y],
            "weight": w.semiring.format(wt),
        }
        for x, label, y, wt in w.transitions()
    ]
    return {
        "semiring": w.semiring.describe(),
        "tau": w.tau,
        "states": list(w.state_names),
        "actions": list(w.actions),
        "transitions": edges,
    }


class QuotientError(Exception):
    """Block representatives disagreed: the partition was not a bisimulation."""


# Escaped inside member names, so distinct blocks get distinct quotient names.
_NAME_ESCAPES = str.maketrans({c: "\\" + c for c in "\\,{}"})


def _escaped(names):
    """Names for a line listing them by commas: with ``\\``, ``,``, ``{``
    and ``}`` escaped, different lists print differently."""
    return [name.translate(_NAME_ESCAPES) for name in names]


def block_names(w, partition):
    """One name per block of ``partition``: ``{m1,m2,...}`` after its
    members, with ``\\``, ``,``, ``{`` and ``}`` escaped by a backslash, so
    distinct blocks get distinct names."""
    escaped = _escaped(w.state_names)
    return ["{%s}" % ",".join(escaped[x] for x in block) for block in partition.blocks]


def _block_row(w, partition, x):
    """x's steps summed by (label, target block) of ``partition``."""
    sr, block_of = w.semiring, partition._block_of
    row = {}
    for label, targets in w._succ[x].items():
        for y, wt in targets.items():
            key = (label, block_of[y])
            row[key] = sr.add(row[key], wt) if key in row else wt
    return row


def emit_quotient(w, partition):
    """Quotient system of a strong partition.

    Every member's row is summed by target block (``_block_row``) and must
    agree with the first member's (equal rows at once, others label by
    label), or QuotientError is raised; the quotient is then built by
    ``_representative_quotient``, its blocks named by ``block_names``.
    Weak/delay classes do not induce well-defined single-step weights, so
    the CLI only offers quotients for strong partitions.
    """
    if partition.n != w.state_count:
        raise ValueError("partition is over a different state count")
    sr = w.semiring
    names = block_names(w, partition)
    label_order = {label: i for i, label in enumerate(w.labels)}
    for bi, block in enumerate(partition.blocks):
        rep_row = _block_row(w, partition, block[0])
        for other in block[1:]:
            row = _block_row(w, partition, other)
            if row == rep_row:
                continue
            keys = sorted(rep_row.keys() | row.keys(), key=lambda k: (label_order[k[0]], k[1]))
            for label, bj in keys:
                wt = rep_row.get((label, bj), sr.zero)
                if not sr.values_equal(row.get((label, bj), sr.zero), wt):
                    raise QuotientError(
                        "members %s and %s of %s disagree on %s into %s"
                        % (w.state_names[block[0]], w.state_names[other], names[bi], label, names[bj])
                    )
    return _representative_quotient(w, partition, names)


def _representative_quotient(w, partition, names):
    """Quotient of a strong partition whose members are known to agree, as
    the one ``refine_partition`` has just computed or one ``emit_quotient``
    has checked: each block's weights are read off its first member alone
    and nothing is checked.  Its states are ``names``, one per block in
    order."""
    sr = w.semiring
    triples = [
        (bi, label, bj, wt)
        for bi, block in enumerate(partition.blocks)
        for (label, bj), wt in _block_row(w, partition, block[0]).items()
        if not sr.is_zero(wt)
    ]
    return WLTS(sr, names, w.actions, w.tau, triples, _parsed=True)


def to_dot(w, graph_name="wlts"):
    """Graphviz rendering; edges carry 'label,weight'."""

    def q(s):
        return '"%s"' % s.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph %s {" % graph_name, "  rankdir=LR;"]
    for x, name in enumerate(w.state_names):
        shape = "doublecircle" if w.is_terminal(x) else "circle"
        lines.append("  %s [shape=%s];" % (q(name), shape))
    for x, label, y, wt in w.transitions():
        lines.append(
            "  %s -> %s [label=%s];"
            % (q(w.state_names[x]), q(w.state_names[y]), q("%s,%s" % (label, w.semiring.format(wt))))
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- constraint reports -----------------------------------------------------


@dataclass
class MassEntry:
    subject: str
    mass: str
    ok: bool


@dataclass
class MassReport:
    kind: str
    entries: list[MassEntry] = field(default_factory=list)

    @property
    def ok(self):
        return all(e.ok for e in self.entries)


def _require_real(w, what):
    if w.semiring.name not in ("real", "real-float"):
        raise SemanticError(
            "%s is defined over the real semirings, not %r" % (what, w.semiring.name)
        )


def check_fully_probabilistic(w):
    """Per-state total outgoing mass must be 0 (terminal) or 1."""
    _require_real(w, "the fully-probabilistic constraint")
    sr = w.semiring
    report = MassReport(kind="fully-probabilistic")
    for x in range(w.state_count):
        mass = sr.sum(
            wt for label in w.labels for wt in w.successors(x, label).values()
        )
        ok = sr.values_equal(mass, sr.zero) or sr.values_equal(mass, sr.one)
        report.entries.append(MassEntry(w.state_names[x], sr.format(mass), ok))
    return report


def check_reactive(w):
    """Per-state, per-label outgoing mass must be 0 or 1."""
    _require_real(w, "the reactive constraint")
    sr = w.semiring
    report = MassReport(kind="reactive")
    for x in range(w.state_count):
        for label in w.labels:
            row = w.successors(x, label)
            if not row:
                continue
            mass = sr.sum(row.values())
            ok = sr.values_equal(mass, sr.one)
            report.entries.append(
                MassEntry(
                    "%s/%s" % (w.state_names[x], label), sr.format(mass), ok
                )
            )
    return report


# -- partitions --------------------------------------------------------------


class Partition:
    """Partition of {0..n-1} in canonical form.

    Blocks are tuples of ascending state ids, ordered by their minimum
    member; two partitions are equal iff their canonical forms are.
    """

    __slots__ = ("n", "blocks", "_block_of")

    def __init__(self, n, blocks):
        seen = [False] * n
        canon = []
        for block in blocks:
            members = sorted(block)
            if not members:
                raise ValueError("empty block")
            for x in members:
                if not (isinstance(x, int) and 0 <= x < n):
                    raise ValueError("state id %r out of range" % (x,))
                if seen[x]:
                    raise ValueError("state %d in two blocks" % x)
                seen[x] = True
            canon.append(tuple(members))
        if not all(seen):
            missing = [i for i, s in enumerate(seen) if not s]
            raise ValueError("states %s not covered" % missing)
        canon.sort(key=lambda b: b[0])
        self.n = n
        self.blocks = tuple(canon)
        assign = [0] * n
        for bi, block in enumerate(self.blocks):
            for x in block:
                assign[x] = bi
        self._block_of = tuple(assign)

    @classmethod
    def single_block(cls, n):
        return cls(n, [range(n)] if n else [])

    @classmethod
    def discrete(cls, n):
        return cls(n, [[i] for i in range(n)])

    @classmethod
    def from_block_of(cls, assign):
        groups = {}
        for x, b in enumerate(assign):
            groups.setdefault(b, []).append(x)
        return cls(len(assign), groups.values())

    def block_index(self, x):
        if not (isinstance(x, int) and 0 <= x < self.n):
            raise ValueError("state id %r out of range" % (x,))
        return self._block_of[x]

    def block_of(self, x):
        return self.blocks[self.block_index(x)]

    def same_block(self, x, y):
        return self.block_index(x) == self.block_index(y)

    def refines(self, other):
        """True iff every block of self sits inside a block of other."""
        if other.n != self.n:
            raise ValueError("partitions over different state counts")
        return all(
            all(other._block_of[x] == other._block_of[b[0]] for x in b)
            for b in self.blocks
        )

    def to_names(self, w):
        return [[w.state_names[x] for x in block] for block in self.blocks]

    def __len__(self):
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __repr__(self):
        return "Partition(%s)" % (list(map(list, self.blocks)),)
