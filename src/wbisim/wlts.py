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
_UNPARSED = object()


class WLTS:
    """Immutable weighted LTS over a fixed semiring.

    Constructor transitions are (source_id, label, target_id, weight)
    tuples with already-parsed weights.  Each id must be in range and each
    label declared, and each weight is passed through ``sr.coerce``;
    duplicates are combined with the semiring sum and zero-weight entries
    are dropped (counted in ``zero_transitions_dropped``).

    ``labels`` holds every label in canonical order: the silent one first,
    then the actions.
    """

    def __init__(self, sr, state_names, actions=(), tau="tau", transitions=()):
        names = tuple(state_names)
        index = {s: i for i, s in enumerate(names)}
        if len(index) != len(names):
            raise SemanticError("duplicate state names")
        acts = tuple(actions)
        if len(set(acts)) != len(acts):
            raise SemanticError("duplicate action names")
        if tau in acts:
            raise SemanticError("silent label %r also declared as an action" % tau)
        succ = [{} for _ in names]
        labels = {tau, *acts}
        dropped = 0
        for x, label, y, w in transitions:
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
            row[y] = sr.add(row[y], w) if y in row else w
        self._adopt(sr, names, acts, tau, index, succ, dropped)

    @classmethod
    def _of_rows(cls, sr, names, actions, tau, index, succ, dropped=0):
        """A system over finished successor rows, for ``load`` and the
        quotient builder, which build them from checked ids, declared
        labels and coerced nonzero weights: nothing is checked again.
        ``names`` and ``actions`` are tuples, ``index`` maps each name to
        its id and ``succ[x]`` maps label -> target id -> weight."""
        w = cls.__new__(cls)
        w._adopt(sr, names, actions, tau, index, succ, dropped)
        return w

    def _adopt(self, sr, names, actions, tau, index, succ, dropped):
        self.semiring = sr
        self.tau = tau
        self.state_names = names
        self.actions = actions
        self.labels = (tau,) + actions
        self._index = index
        self._succ = succ
        self._pred = None
        self.zero_transitions_dropped = dropped

    # -- basic queries ---------------------------------------------------

    @property
    def state_count(self):
        return len(self.state_names)

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
        sr = self.semiring
        total = sr.zero
        for y, w in self._succ[x].get(label, _EMPTY).items():
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
    occurrence.  The loop that checks each edge also adds it to its
    source's successor row, so the system is made from those rows
    (``WLTS._of_rows``) and no edge is visited twice.

    Each edge's fields are looked up first: ``from`` and ``to`` among the
    state names, ``weight`` among the literals already parsed and
    ``label`` among the labels already seen.  Of the values JSON decodes
    to, only a string can equal any of those, so when every lookup hits,
    the edge is well typed and nothing is left to check.  When a field is
    missing, a lookup misses or a field is unhashable, the edge is checked
    in full, in the order its errors take precedence: every field present,
    every field a string, a known source, a known target, then the
    literal parsed.
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
    labels = {tau: None}  # the silent label, then the actions
    for a in declared:
        if a in labels and a != tau:
            raise SemanticError("duplicate action name %r" % a)
        labels[a] = None
    index = dict(zip(states, range(len(states))))
    if len(index) < len(states):
        seen = set()
        for s in states:
            if s in seen:
                raise SemanticError("duplicate state name %r" % s)
            seen.add(s)

    succ = [{} for _ in states]
    add = sr.add
    weights = {}  # literal text -> parsed weight, None if it is zero
    dropped = 0
    for e in raw_edges:
        if not isinstance(e, dict):
            raise ParseError("each transition must be an object")
        try:  # only a string can equal a name, a label or a parsed literal
            label = e["label"]
            x, y, wt, _ = index[e["from"]], index[e["to"]], weights[e["weight"]], labels[label]
        except (KeyError, TypeError):  # a missing field, a miss, or an unhashable field
            try:
                src, label, dst, wtext = e["from"], e["label"], e["to"], e["weight"]
            except KeyError:
                key = next(k for k in ("from", "label", "to", "weight") if k not in e)
                raise ParseError("transition lacks %r: %r" % (key, e)) from None
            if not all(isinstance(v, str) for v in (src, label, dst, wtext)):
                raise ParseError("transition fields must be strings: %r" % (e,)) from None
            x = index.get(src)
            if x is None:
                raise SemanticError("transition from unknown state %r" % src) from None
            y = index.get(dst)
            if y is None:
                raise SemanticError("transition to unknown state %r" % dst) from None
            labels.setdefault(label)
            wt = weights.get(wtext, _UNPARSED)
            if wt is _UNPARSED:
                try:
                    wt = sr.parse(wtext)
                except ValueError as exc:
                    raise SemanticError("bad weight %r: %s" % (wtext, exc)) from None
                if sr.is_zero(wt):
                    wt = None
                weights[wtext] = wt
        if wt is None:
            dropped += 1
            continue
        rows = succ[x]
        row = rows.get(label)
        if row is None:
            rows[label] = {y: wt}
        else:
            row[y] = add(row[y], wt) if y in row else wt

    if tau in declared:
        raise SemanticError("silent label %r also declared as an action" % tau)
    actions = tuple(labels)[1:]
    return WLTS._of_rows(sr, tuple(states), actions, tau, index, succ, dropped)


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
        self._canonical(n, canon)

    @classmethod
    def _trusted(cls, n, blocks):
        """The partition of ``blocks``, which must be nonempty, disjoint,
        cover {0..n-1} and hold only ids in range: put in canonical form,
        unchecked."""
        p = cls.__new__(cls)
        p._canonical(n, [tuple(sorted(block)) for block in blocks])
        return p

    def _canonical(self, n, canon):
        """Set the fields from disjoint, covering blocks of ascending ids."""
        canon.sort()  # disjoint blocks compare by their least member
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
    def from_block_of(cls, assign):
        groups = {}
        for x, b in enumerate(assign):
            groups.setdefault(b, []).append(x)
        return cls(len(assign), groups.values())

    def block_index(self, x):
        if not (isinstance(x, int) and 0 <= x < self.n):
            raise ValueError("state id %r out of range" % (x,))
        return self._block_of[x]

    def same_block(self, x, y):
        return self.block_index(x) == self.block_index(y)

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
