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

A system is stored as its predecessor columns, the form refinement reads;
its successor rows are derived on first use.  Both list ids ascending, so
the edge order fixes only duplicate sums and the order of inferred actions.
``load`` fills the columns in its one pass; every other system lists its
steps for ``_columns`` to write.
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


_EMPTY = {}  # every empty slot of a column or row; never written
_UNPARSED = object()


def _sort_sources(columns):
    """Put the sources of every mapping of ``columns`` in ascending order."""
    for column in columns.values():
        column[:] = [dict(sorted(into.items())) if len(into) > 1 else into for into in column]


def _columns(sr, labels, n, steps):
    """Predecessor columns of ``n`` states under ``labels``, in order, from
    checked steps (source, label, target, nonzero weight), a repeated step
    summed by ``sr.add`` in the order given (even to zero), sources sorted."""
    add = sr.add
    columns = {label: [_EMPTY] * n for label in labels}
    for x, label, y, w in steps:
        into = columns[label][y]
        if into is _EMPTY:
            columns[label][y] = {x: w}
        else:
            into[x] = add(into[x], w) if x in into else w
    _sort_sources(columns)
    return columns


def _forward(column):
    """The successor rows of one label's ``column``: per state, target id ->
    weight with targets ascending, and ``_EMPTY`` for a state without any."""
    rows = [_EMPTY] * len(column)
    for y, into in enumerate(column):
        for x, wt in into.items():
            if rows[x] is _EMPTY:
                rows[x] = {y: wt}
            else:
                rows[x][y] = wt
    return rows


class WLTS:
    """Immutable weighted LTS over a fixed semiring.

    Constructor transitions are (source_id, label, target_id, weight)
    tuples with already-parsed weights.  Each id must be in range and each
    label declared, and each weight is passed through ``sr.coerce``;
    duplicates are combined with the semiring sum in the order given and
    zero-weight entries are dropped (``zero_transitions_dropped``).

    ``labels`` holds every label in canonical order: the silent one first,
    then the actions.  The system stores its predecessor columns
    (``predecessor_column``), sources ascending whatever the order of the
    transitions; ``successors`` derives the successor rows from them.
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
        labels = dict.fromkeys((tau,) + acts)
        steps, dropped = [], 0
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
            else:
                steps.append((x, label, y, w))
        self._adopt(sr, names, acts, tau, index, _columns(sr, labels, len(names), steps), dropped)

    @classmethod
    def _of_columns(cls, sr, names, actions, tau, index, columns, dropped=0):
        """A system over finished predecessor columns, filled by ``load`` or
        written by ``_columns``, from checked ids, declared labels and coerced
        nonzero weights, sources ascending: nothing is checked again.
        ``names`` and ``actions`` are tuples; ``index`` maps names to ids and
        ``columns`` labels, in ``labels`` order, to columns."""
        w = cls.__new__(cls)
        w._adopt(sr, names, actions, tau, index, columns, dropped)
        return w

    def _adopt(self, sr, names, actions, tau, index, columns, dropped):
        self.semiring = sr
        self.tau = tau
        self.state_names = names
        self.actions = actions
        self.labels = (tau,) + actions
        self._index = index
        self._pred = columns
        self._succ = None  # label -> successor rows, built on first use
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
        """Mapping target_id -> weight for the stored (nonzero) steps, targets
        ascending.  The first call derives every row from the columns."""
        if self._succ is None:
            self._succ = {label: _forward(column) for label, column in self._pred.items()}
        rows = self._succ.get(label)
        return _EMPTY if rows is None else rows[x]

    def predecessor_column(self, label):
        """For every state y, the mapping source_id -> weight of the stored
        ``label`` steps into y, sources ascending, as a list indexed by y;
        None for a label the system does not have.  The list and its
        mappings are the system's own, not copies: read them only."""
        return self._pred.get(label)

    def weight(self, x, label, y):
        return self.successors(x, label).get(y, self.semiring.zero)

    def is_terminal(self, x):
        return not any(self.successors(x, label) for label in self.labels)

    def class_weight(self, x, label, targets):
        """Semiring sum of x's label-steps into the target set, ascending."""
        sr = self.semiring
        total = sr.zero
        for y, w in self.successors(x, label).items():
            if y in targets:
                total = sr.add(total, w)
        return total

    def transitions(self):
        """All stored transitions in canonical (source, label, target) order."""
        for x in range(self.state_count):
            for label in self.labels:
                for y, wt in self.successors(x, label).items():
                    yield x, label, y, wt

    @property
    def transition_count(self):
        return sum(len(into) for column in self._pred.values() for into in column)

    def __repr__(self):
        return "WLTS(%s, %d states, %d transitions)" % (
            self.semiring.name,
            self.state_count,
            self.transition_count,
        )


# -- documents -------------------------------------------------------------


def _semiring_named(name, /, **params):
    """``semiring.by_name``, its ValueError raised as a SemanticError: the one
    reader of a document's ``semiring`` field and of ``--semiring``."""
    try:
        return _semiring.by_name(name, **params)
    except ValueError as exc:
        raise SemanticError(str(exc)) from None


def _semiring_from_field(value):
    if isinstance(value, str):
        return _semiring_named(value)
    if isinstance(value, dict):
        if "name" not in value:
            raise ParseError("semiring object needs a 'name' field")
        if not isinstance(value["name"], str):
            raise ParseError("semiring name must be a string")
        return _semiring_named(value["name"], **{k: v for k, v in value.items() if k != "name"})
    raise ParseError("semiring field must be a name or an object")


def load(doc, sr=None):
    """Build a WLTS from a parsed document.

    ``sr`` overrides the document's semiring (the CLI --semiring flag);
    weight literals are then parsed under the override.  Zero-weight edges
    are dropped and counted, duplicate edges are combined with the sum.

    Each distinct literal text is parsed and tested for zero once per call,
    and its value shared by every edge that repeats it (the carriers'
    values are immutable); a bad literal is reported at its first
    occurrence.  The loop that checks each edge also adds it to the
    predecessor column that its label looks up, so the system is made from
    those columns (``WLTS._of_columns``) and no edge is visited twice; the
    sources are sorted afterwards only if the document lists them unsorted.

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
    n = len(states)
    labels = {tau: [_EMPTY] * n}  # the silent label, then the actions: each to its column
    for a in declared:
        if a in labels and a != tau:
            raise SemanticError("duplicate action name %r" % a)
        labels[a] = [_EMPTY] * n
    index = dict(zip(states, range(n)))
    if len(index) < n:
        seen = set()
        for s in states:
            if s in seen:
                raise SemanticError("duplicate state name %r" % s)
            seen.add(s)

    add = sr.add
    weights = {}  # literal text -> parsed weight, None if it is zero
    dropped = 0
    last = 0  # the last source while the sources are nondecreasing, then n
    for e in raw_edges:
        if not isinstance(e, dict):
            raise ParseError("each transition must be an object")
        try:  # only a string can equal a name, a label or a parsed literal
            x, y, column = index[e["from"]], index[e["to"]], labels[e["label"]]
            wt = weights[e["weight"]]
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
            column = labels.get(label) or labels.setdefault(label, [_EMPTY] * n)
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
        last = x if last <= x else n
        into = column[y]
        if into is _EMPTY:
            column[y] = {x: wt}
        else:
            into[x] = add(into[x], wt) if x in into else wt

    if tau in declared:
        raise SemanticError("silent label %r also declared as an action" % tau)
    if last == n:
        _sort_sources(labels)
    actions = tuple(labels)[1:]
    return WLTS._of_columns(sr, tuple(states), actions, tau, index, labels, dropped)


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


def _class_set(w, C):
    """``C`` as a frozenset of state ids of ``w``: nonempty, and every
    member an id in range."""
    Cset = frozenset(C)
    if not Cset:
        raise ValueError("target class must be nonempty")
    n = w.state_count
    for x in Cset:
        if not (isinstance(x, int) and 0 <= x < n):
            raise ValueError("state id %r out of range" % (x,))
    return Cset


class Partition:
    """Partition of {0..n-1} in canonical form.

    Blocks are tuples of ascending state ids, ordered by their minimum
    member; two partitions are equal iff their canonical forms are.  Both
    constructors reach that form by one pass, ``_number``, over the block
    name of each state: ``Partition(n, blocks)`` checks its blocks and names
    each by its place in ``blocks``.
    """

    __slots__ = ("n", "blocks", "_block_of")

    def __init__(self, n, blocks):
        block_of = [None] * n
        for bi, block in enumerate(blocks):
            members = sorted(block)
            if not members:
                raise ValueError("empty block")
            for x in members:
                if not (isinstance(x, int) and 0 <= x < n):
                    raise ValueError("state id %r out of range" % (x,))
                if block_of[x] is not None:
                    raise ValueError("state %d in two blocks" % x)
                block_of[x] = bi
        if None in block_of:
            missing = [x for x, bi in enumerate(block_of) if bi is None]
            raise ValueError("states %s not covered" % missing)
        self._number(block_of)

    @classmethod
    def single_block(cls, n):
        return cls(n, [range(n)] if n else [])

    @classmethod
    def from_block_of(cls, assign):
        """The partition putting each state x in the block named ``assign[x]``;
        names are any hashable values, compared only for equality."""
        p = cls.__new__(cls)
        p._number(assign)
        return p

    def _number(self, assign):
        """Set the fields from each state's block name, blocks numbered by first use."""
        index = {}  # name -> block
        block_of = tuple(index.setdefault(b, len(index)) for b in assign)
        blocks = [[] for _ in index]
        for x, bi in enumerate(block_of):
            blocks[bi].append(x)
        self.n, self.blocks, self._block_of = len(block_of), tuple(map(tuple, blocks)), block_of

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
