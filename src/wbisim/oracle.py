"""Brute-force reference computations the engine is tested against.

Everything here favours obviousness over speed: admissible paths are
enumerated one by one, coarsest partitions are found by trying set
partitions from coarse to fine, and the boolean weak oracle goes through
the classic double-arrow construction.  Sizes are guarded accordingly.

A path is admissible for (x, selector, C) when it starts at x, its label
sequence is in the selector's trace set, its last state is in C, and no
proper prefix already satisfies those two conditions; the admissible set
is prefix-free by construction and carries the saturated weight as the
sum of its path weights.
"""

from __future__ import annotations

from .wlts import Partition, _class_set


class TruncationError(Exception):
    """A brute-force weight hit its length bound before completing."""


class FinitePath:
    """Alternating state/label walk; states has one more entry than labels."""

    __slots__ = ("states", "labels")

    def __init__(self, states, labels):
        states = tuple(states)
        labels = tuple(labels)
        if len(states) != len(labels) + 1 or not states:
            raise ValueError("need n+1 states for n labels")
        self.states = states
        self.labels = labels

    @classmethod
    def single(cls, x):
        return cls((x,), ())

    @property
    def first(self):
        return self.states[0]

    @property
    def last(self):
        return self.states[-1]

    @property
    def length(self):
        return len(self.labels)

    @property
    def trace(self):
        return self.labels

    def extend(self, label, y):
        return FinitePath(self.states + (y,), self.labels + (label,))

    def is_prefix_of(self, other):
        return (
            self.length <= other.length
            and other.states[: len(self.states)] == self.states
            and other.labels[: len(self.labels)] == self.labels
        )

    def step_weights(self, w):
        out = []
        for i, label in enumerate(self.labels):
            wt = w.weight(self.states[i], label, self.states[i + 1])
            if w.semiring.is_zero(wt):
                raise ValueError(
                    "path uses absent transition %s -%s-> %s"
                    % (self.states[i], label, self.states[i + 1])
                )
            out.append(wt)
        return out

    def weight(self, w):
        sr = w.semiring
        total = sr.one
        for wt in self.step_weights(w):
            total = sr.mul(total, wt)
        return total

    def sort_key(self):
        return (self.length, self.labels, self.states)

    def __eq__(self, other):
        return (
            isinstance(other, FinitePath)
            and self.states == other.states
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.states, self.labels))

    def __repr__(self):
        parts = [str(self.states[0])]
        for i, label in enumerate(self.labels):
            parts.append("-%s->%s" % (label, self.states[i + 1]))
        return "Path(%s)" % "".join(parts)


class TraceSelector:
    """Membership (and prefix viability) for the three trace sets used by
    the equivalences: all-silent, silent*-action-silent*, silent*-action."""

    __slots__ = ("kind", "action")

    def __init__(self, kind, action=None):
        if kind not in ("tau-star", "weak", "delay"):
            raise ValueError("kind must be tau-star, weak or delay")
        if (action is None) == (kind != "tau-star"):
            raise ValueError("weak/delay selectors need an action, tau-star none")
        self.kind = kind
        self.action = action

    @classmethod
    def tau_star(cls):
        return cls("tau-star")

    @classmethod
    def weak(cls, action):
        return cls("weak", action)

    @classmethod
    def delay(cls, action):
        return cls("delay", action)

    def matches(self, labels, tau):
        visible = [l for l in labels if l != tau]
        if self.kind == "tau-star":
            return not visible
        if visible != [self.action]:
            return False
        if self.kind == "weak":
            return True
        return labels[-1] == self.action  # delay: nothing after the action

    def alive(self, labels, tau):
        """Whether some extension of this label sequence can match."""
        visible = [l for l in labels if l != tau]
        if self.kind == "tau-star":
            return not visible
        if not visible:
            return True
        if visible != [self.action]:
            return False
        if self.kind == "weak":
            return True
        return labels[-1] == self.action

    def __repr__(self):
        if self.kind == "tau-star":
            return "TraceSelector(tau-star)"
        return "TraceSelector(%s, %r)" % (self.kind, self.action)


def _admissible_dfs(w, x, selector, Cset, max_len):
    """All admissible paths up to max_len, plus whether the search still
    had viable unfinished prefixes at the bound (=> result may be partial)."""
    tau = w.tau
    out = []
    truncated = False

    def rec(path):
        nonlocal truncated
        if selector.matches(path.labels, tau) and path.last in Cset:
            out.append(path)
            return
        live_steps = []
        for label in w.labels:
            if not selector.alive(path.labels + (label,), tau):
                continue
            for y in sorted(w.successors(path.last, label)):
                live_steps.append((label, y))
        if not live_steps:
            return
        if path.length >= max_len:
            truncated = True
            return
        for label, y in live_steps:
            rec(path.extend(label, y))

    rec(FinitePath.single(x))
    out.sort(key=FinitePath.sort_key)
    return out, truncated


def enumerate_admissible(w, x, selector, C, max_len=None):
    """Admissible paths for (x, selector, C), canonically ordered.

    The recursion stops extending a path as soon as it qualifies, so the
    returned set is prefix-free.  max_len defaults to the state count,
    which is exact on systems whose admissible-path structure is acyclic.
    """
    Cset = _class_set(w, C)
    if max_len is None:
        max_len = w.state_count
    paths, _ = _admissible_dfs(w, x, selector, Cset, max_len)
    return paths


def _tau_reach(w, x):
    """States reachable from x through silent steps, x included."""
    seen = {x}
    frontier = [x]
    while frontier:
        nxt = []
        for y in frontier:
            for z in w.successors(y, w.tau):
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    return seen


def _boolean_brute(w, x, selector, Cset):
    """Reachability shortcut: over the booleans the saturated weight is
    existence of a qualifying path, and the first qualifying prefix of any
    such path is admissible, so plain reachability with visited sets is
    exact on cyclic systems too."""
    reach = _tau_reach(w, x)
    if selector.kind == "tau-star":
        return any(c in reach for c in Cset)
    a = selector.action
    if selector.kind == "delay":
        return any(
            c in w.successors(y, a) for y in reach for c in Cset
        )
    landed = set()
    for y in reach:
        for z in w.successors(y, a):
            if z not in landed:
                landed |= _tau_reach(w, z)
    return any(c in landed for c in Cset)


def brute_weight(w, x, selector, C, max_len=None):
    """Sum of admissible path weights; returns (value, truncated).

    truncated is False only when the bounded search provably saw every
    admissible path, so a False flag certifies the exact saturated value.
    Boolean systems take the reachability route and never truncate.
    """
    Cset = _class_set(w, C)
    sr = w.semiring
    if sr.name == "boolean":
        return _boolean_brute(w, x, selector, Cset), False
    if max_len is None:
        max_len = w.state_count
    paths, truncated = _admissible_dfs(w, x, selector, Cset, max_len)
    return sr.sum(p.weight(w) for p in paths), truncated


def minimal_support(paths):
    """Prefix-minimal subset: drop every path that extends another one.

    The result generates the same cones; every input path has exactly one
    output path as a prefix.
    """
    chosen = []
    for p in sorted(paths, key=FinitePath.sort_key):
        if not any(q.is_prefix_of(p) for q in chosen):
            chosen.append(p)
    return set(chosen)


def _complete_extensions(w, path, total_len):
    """Finite probes for the cone of a path: extensions cut at total_len,
    or earlier where a terminal state ends the run."""
    out = set()

    def rec(p):
        if p.length >= total_len or w.is_terminal(p.last):
            out.add(p)
            return
        for label in w.labels:
            for y in sorted(w.successors(p.last, label)):
                rec(p.extend(label, y))

    rec(path)
    return out


def cones_nested_or_disjoint(w, p1, p2, probe_len=None):
    """Witness that two cones over the same start state nest or are disjoint.

    Prefix comparability decides it: comparable paths give nested probes,
    incomparable ones give disjoint probes (a shared probe would make one
    path a prefix of the other).  Returns the verified boolean.
    """
    if p1.first != p2.first:
        raise ValueError("cones are compared for a common start state")
    if probe_len is None:
        probe_len = w.state_count
    total = max(p1.length, p2.length, probe_len)
    s1 = _complete_extensions(w, p1, total)
    s2 = _complete_extensions(w, p2, total)
    return s1 <= s2 or s2 <= s1 or not (s1 & s2)


# -- coarsest partitions by exhaustive search --------------------------------


def _restricted_growth_strings(n):
    """All RGS over n items in lexicographic order."""
    out = []
    rgs = [0] * n

    def rec(i, mx):
        if i == n:
            out.append(tuple(rgs))
            return
        for v in range(mx + 2):
            rgs[i] = v
            rec(i + 1, mx if v <= mx else v)

    if n:
        rec(1, 0)
    else:
        out.append(())
    return out


def brute_coarsest_partition(w, mode="weak", max_len=None):
    """First satisfying partition in coarse-to-fine canonical order.

    Set partitions are tried by ascending block count, within one count in
    restricted-growth order.  Since bisimulations are closed under union,
    the first partition whose blocks all pass the defining condition is
    the unique coarsest one.  Guarded to at most 8 states (Bell numbers).
    Raises TruncationError if any needed brute weight is length-bounded.
    """
    if mode not in ("strong", "weak", "delay"):
        raise ValueError("mode must be strong, weak or delay")
    n = w.state_count
    if n > 8:
        raise ValueError("brute-force partition search is capped at 8 states")
    if n == 0:
        return Partition(0, [])
    sr = w.semiring
    cache = {}

    def weight_of(x, label, Cfs):
        key = (x, label, Cfs)
        if key not in cache:
            if mode == "strong":
                cache[key] = w.class_weight(x, label, Cfs)
            else:
                if label == w.tau:
                    sel = TraceSelector.tau_star()
                elif mode == "weak":
                    sel = TraceSelector.weak(label)
                else:
                    sel = TraceSelector.delay(label)
                value, truncated = brute_weight(w, x, sel, Cfs, max_len)
                if truncated:
                    raise TruncationError(
                        "brute weight for state %d, label %r truncated" % (x, label)
                    )
                cache[key] = value
        return cache[key]

    def satisfies(blocks):
        classes = [frozenset(b) for b in blocks]
        for Cfs in classes:
            for label in w.labels:
                for block in blocks:
                    if len(block) == 1:
                        continue
                    ref = weight_of(block[0], label, Cfs)
                    for x in block[1:]:
                        if not sr.values_equal(weight_of(x, label, Cfs), ref):
                            return False
        return True

    by_count = {}
    for rgs in _restricted_growth_strings(n):
        by_count.setdefault(max(rgs) + 1, []).append(rgs)
    for k in range(1, n + 1):
        for rgs in by_count.get(k, ()):
            groups = {}
            for x, g in enumerate(rgs):
                groups.setdefault(g, []).append(x)
            blocks = [tuple(g) for g in groups.values()]
            if satisfies(blocks):
                return Partition(n, blocks)
    raise AssertionError("the discrete partition always satisfies the condition")


def milner_weak_oracle(w):
    """Weak partition of a boolean system via the double-arrow construction.

    Build the saturated steps, silent runs (reflexive) for the silent label
    and observable actions wrapped in silent runs, then find their coarsest
    strong bisimulation by naive signature refinement from one block: a
    state's signature is its block and, per label, the set of blocks its
    saturated steps reach.  Nothing of the engine is used.
    """
    if w.semiring.name != "boolean":
        raise ValueError("the double-arrow oracle is defined over the booleans")
    n = w.state_count
    reach = [_tau_reach(w, x) for x in range(n)]
    steps = [reach] + [
        [set().union(*(reach[z] for y in reach[x] for z in w.successors(y, a))) for x in range(n)]
        for a in w.actions
    ]

    def signature(x):
        return (block[x],) + tuple(frozenset(block[y] for y in step[x]) for step in steps)

    block = [0] * n
    while True:
        ids = {}
        refined = [ids.setdefault(signature(x), len(ids)) for x in range(n)]
        if len(ids) == len(set(block)):
            return Partition.from_block_of(refined)
        block = refined
