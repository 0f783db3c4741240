"""Tree automorphisms of A^N presented by invertible Mealy machines.

A TailElement is a word of machine states with exponents +-1, acting by
left-to-right function composition (the rightmost factor is applied to the
input first).  Elements are never synthesized into new machine states; the
identity problem is decided by closing the factor word under sections, which
is a finite search.

Each machine tabulates, when it is built, every signed state's image letter
and residual at each letter (MealyMachine.steps), and lists its signed states
by root permutation (MealyMachine.by_perm, which the sibling merge reads).  A
node of the closure is expanded by one sweep per letter over its factors,
rightmost first, that reads these steps and free-reduces the section as it
goes (expand); no TailElement is built per section, and equal decides the
quotient word s.t^-1 without building one.

A machine is identified by its tables (alphabet, outputs, transitions): the
constructor returns the one live object for its tables (_machine_cache holds
each weakly), so machines compare by identity and a factor (machine, state,
exp) is its own key.  Two machines with the same name but different tables
are never confused, and a table built again under another name while it is
alive is the same object, named by the first name it was built under.  The
identity decisions are memoized in a process-wide cache of at most
IDENTITY_CACHE_SIZE entries, emptied when it fills.  canonical_key minimizes
the same closure into a key that two tails share exactly when they act
alike, as long as the closure has at most DEFAULT_NODE_BUDGET sections; its
minimal automata are a functools.lru_cache memo of at most 32,768 entries,
keyed by the free-reduced word.
"""

from functools import lru_cache
from weakref import WeakValueDictionary

from .certs import DEFAULT_NODE_BUDGET
from .errors import AlphabetMismatch, BudgetExceeded, CantorError, LetterOutOfRange


# (d, transition items, output items) -> the live machine of those tables
_machine_cache = WeakValueDictionary()


class MealyMachine:
    """Finite invertible letter transducer.

    output[s] is a permutation of the alphabet (as a tuple), transition[s][x]
    the state entered after transducing letter x in state s; steps holds both
    per signed state, and by_perm lists the signed states under their root
    permutation (see _letter_steps).  Building a machine whose tables are
    alive returns that machine, so equality and hashing are identity; name
    is for display.
    """

    __slots__ = (
        "name", "d", "states", "transition", "output", "trivial_states", "steps", "by_perm",
        "__weakref__",
    )

    def __new__(cls, name, d, transition, output):
        states = tuple(sorted(output))
        transition = {s: tuple(transition[s]) for s in states}
        output = {s: tuple(output[s]) for s in states}
        key = (d, tuple(transition.items()), tuple(output.items()))
        machine = _machine_cache.get(key)
        if machine is not None:
            return machine
        for s in states:
            if sorted(output[s]) != list(range(d)):
                raise CantorError(f"output of state {s} is not a permutation")
            if len(transition[s]) != d:
                raise CantorError(f"transition of state {s} is not total")
            for t in transition[s]:
                if t not in output:
                    raise CantorError(f"transition target {t} is not a state")
        machine = _machine_cache[key] = super().__new__(cls)
        machine.name, machine.d, machine.states = name, d, states
        machine.transition, machine.output = transition, output
        machine.trivial_states = machine._find_trivial_states()
        machine.steps, machine.by_perm = machine._letter_steps()
        return machine

    def _find_trivial_states(self):
        # s is trivial iff every state reachable from s outputs the identity
        ident = tuple(range(self.d))
        candidates = {s for s in self.states if self.output[s] == ident}
        changed = True
        while changed:
            changed = False
            for s in list(candidates):
                if any(t not in candidates for t in self.transition[s]):
                    candidates.discard(s)
                    changed = True
        return frozenset(candidates)

    def _letter_steps(self):
        """steps[exp][s] is the factor (self, s, exp) at every letter, as one
        flat row: at 3x, 3x + 1 and 3x + 2 the image letter of x, the residual
        factor, and that residual again or None when it acts trivially.  Each
        signed state is one tuple, shared by every row.  by_perm maps each
        root permutation to its signed states, in table order, +1 before -1."""
        signed = {(s, e): (self, s, e) for s in self.states for e in (1, -1)}
        steps = {1: {}, -1: {}}
        by_perm = {}
        for s in self.states:
            out, to = self.output[s], self.transition[s]
            back = [0] * self.d
            for x, y in enumerate(out):
                back[y] = x
            for e, image, targets in ((1, out, to), (-1, back, [to[y] for y in back])):
                row = []
                for y, t in zip(image, targets):
                    r = signed[t, e]
                    row += (y, r, None if t in self.trivial_states else r)
                steps[e][s] = tuple(row)
                by_perm.setdefault(tuple(image), []).append(signed[s, e])
        return steps, by_perm

    def __repr__(self):
        return f"MealyMachine({self.name!r}, d={self.d}, states={self.states})"

    def to_text(self):
        lines = [f"machine {self.name} {self.d}"]
        for s in self.states:
            perm = " ".join(str(x) for x in self.output[s])
            to = " ".join(self.transition[s])
            lines.append(f"state {s} perm {perm} to {to}")
        return "\n".join(lines)


def parse_machines(text):
    """Parse the plain-text machine format; returns {name: MealyMachine}.

    Format, one machine per block:
        machine NAME D
        state S perm p0 .. p(D-1) to T0 .. T(D-1)
    A repeated machine or state name, a name that the element grammar cannot
    read as a name part (so NAME.S could not be written), or any other line
    raises CantorError.
    """
    blocks = {}
    d = None
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "machine" and len(tokens) == 3 and tokens[2].isdecimal():
            _check_name_part("machine", tokens[1])
            if tokens[1] in blocks:
                raise CantorError(f"machine {tokens[1]} is defined twice")
            d, transition, output = blocks[tokens[1]] = (int(tokens[2]), {}, {})
        elif (
            tokens[0] == "state"
            and d is not None
            and len(tokens) == 4 + 2 * d
            and tokens[2] == "perm"
            and tokens[3 + d] == "to"
            and all(p.isdecimal() for p in tokens[3 : 3 + d])
        ):
            _check_name_part("state", tokens[1])
            if tokens[1] in output:
                raise CantorError(f"state {tokens[1]} is defined twice")
            output[tokens[1]] = tuple(map(int, tokens[3 : 3 + d]))
            transition[tokens[1]] = tuple(tokens[4 + d :])
        else:
            raise CantorError(f"malformed machine line: {raw!r}")
    return {name: MealyMachine(name, *block) for name, block in blocks.items()}


def _check_name_part(kind, name):
    if not (name[0].isalpha() or name[0] == "_") or not name.replace("_", "a").isalnum():
        raise CantorError(f"{kind} name {name!r} is not a letter or _ then letters, digits or _")


# a factor is (machine, state, exp) with exp in {+1, -1}, keyed by itself


def _rows(factors):
    """The steps rows of the factors, rightmost first: the one read of the
    machine tables that expand, apply_letter and apply_state share."""
    return [m.steps[e][s] for m, s, e in reversed(factors)]


def apply_state(factor, x):
    """Image letter and residual factor of a single signed state at letter x,
    read from its machine's steps."""
    row = _rows((factor,))[0]
    return row[3 * x], row[3 * x + 1]


class TailElement:
    """A signed word of machine states acting on A^N."""

    __slots__ = ("d", "factors")

    def __init__(self, d, factors=()):
        self.d = d
        self.factors = tuple(factors)
        for m, s, e in self.factors:
            if m.d != d:
                raise AlphabetMismatch(f"machine {m.name} has alphabet {m.d}, not {d}")

    def __eq__(self, other):
        # structural equality; use is_identity(quotient) for semantic equality
        return isinstance(other, TailElement) and self.d == other.d and self.factors == other.factors

    def __hash__(self):
        return hash((self.d, self.factors))

    def __repr__(self):
        return f"TailElement({self})"

    def __str__(self):
        return self.to_text()

    def to_text(self, names=None):
        """The factor word as text; each state prints as names[(machine, state)]
        when names has it, else by its bare state name."""
        if not self.factors:
            return "1"
        names = names or {}
        return "*".join(names.get((m, s), s) + ("" if e == 1 else "^-1") for m, s, e in self.factors)

    def apply_letter(self, x):
        """Image letter and residual TailElement at a single letter, not
        reduced: one sweep over the factors, rightmost first."""
        if not 0 <= x < self.d:
            raise LetterOutOfRange(f"letter {x}")
        residuals = []
        for row in _rows(self.factors):
            j = 3 * x
            x = row[j]
            residuals.append(row[j + 1])
        residuals.reverse()
        return x, TailElement(self.d, residuals)


def trivial(d):
    return TailElement(d)


def apply_prefix(t, w):
    """Image of the prefix w under t, and the section of t at w.

    For every suffix z, t(w.z) = image . residual(z).
    """
    if not t.factors:
        # the identity fixes w, and each of its sections is the identity
        w = tuple(w)
        for x in w:
            if not 0 <= x < t.d:
                raise LetterOutOfRange(f"letter {x}")
        return w, t
    image = []
    for x in w:
        y, t = t.apply_letter(x)
        image.append(y)
    return tuple(image), t


def compose(s, t):
    """The automorphism x -> s(t(x))."""
    if s.d != t.d:
        raise AlphabetMismatch(f"alphabet {s.d} vs {t.d}")
    # elements are immutable, so composing with the empty word returns the other
    if not t.factors:
        return s
    if not s.factors:
        return t
    return TailElement(s.d, s.factors + t.factors)


def invert(t):
    return TailElement(t.d, tuple((m, s, -e) for m, s, e in reversed(t.factors)))


def free_reduce(factors):
    """Drop trivially-acting states and cancel adjacent inverse pairs."""
    stack = []
    for f in factors:
        m, s, e = f
        if s in m.trivial_states:
            continue
        if stack:
            m2, s2, e2 = stack[-1]
            if e2 == -e and s2 == s and m2 is m:
                stack.pop()
                continue
        stack.append(f)
    return tuple(stack)


IDENTITY_CACHE_SIZE = 1 << 15

# free-reduced factor word -> whether it acts as the identity
_identity_cache = {}


def _remember(factors, value):
    if len(_identity_cache) >= IDENTITY_CACHE_SIZE:
        _identity_cache.clear()
    _identity_cache[factors] = value


def expand(d, factors):
    """Root permutation and free-reduced sections of a factor word over the
    alphabet d: one step of the section closure that is_identity and
    canonical_key walk.

    Each letter is one sweep over the factors, rightmost first, reading each
    factor's image letter and residual from its machine's steps.  The section
    is reduced in the same sweep: built from its right end, it drops the
    residuals that act trivially and cancels each one against an inverse on
    top of the stack.  A free reduction has one normal form, so each section
    equals free_reduce of the residual word.
    """
    rows = _rows(factors)
    perm = []
    sections = []
    for x in range(d):
        stack = []
        for row in rows:
            j = 3 * x
            x, r = row[j], row[j + 2]
            if r is None:
                continue
            if stack:
                top = stack[-1]
                if top[2] != r[2] and top[1] == r[1] and top[0] is r[0]:
                    stack.pop()
                    continue
            stack.append(r)
        perm.append(x)
        stack.reverse()
        sections.append(tuple(stack))
    return tuple(perm), tuple(sections)


def is_identity(t):
    """Decide whether t acts as the identity on A^N.

    Fixed-point closure: t is trivial iff its root permutation is the identity
    and every section is trivial; the closure of a factor word under sections
    is finite, so memoized reachability terminates.  Visiting more than
    DEFAULT_NODE_BUDGET sections, read at call time, raises BudgetExceeded
    rather than guessing.
    """
    return _acts_trivially(t.d, t.factors)


def _acts_trivially(d, factors):
    """is_identity of the factor word over the alphabet d."""
    ident = tuple(range(d))
    start = free_reduce(factors)
    cached = _identity_cache.get(start)
    if cached is not None:
        return cached

    seen = {start}
    unknown = []
    queue = [start]
    nodes = 0
    answer = True
    while queue:
        factors = queue.pop()
        cached = _identity_cache.get(factors)
        if cached is False:
            answer = False
            break
        if cached is True:
            continue
        nodes += 1
        if nodes > DEFAULT_NODE_BUDGET:
            raise BudgetExceeded(f"identity check exceeded {DEFAULT_NODE_BUDGET} nodes")
        perm, sections = expand(d, factors)
        if perm != ident:
            answer = False
            break
        unknown.append(factors)
        for section in sections:
            if section not in seen:
                seen.add(section)
                queue.append(section)

    if answer:
        for factors in unknown:
            _remember(factors, True)
    else:
        _remember(start, False)
    return answer


def equal(s, t):
    """Semantic equality of two tails: whether the quotient word s.t^-1 acts
    as the identity."""
    if s.d != t.d:
        raise AlphabetMismatch(f"alphabet {s.d} vs {t.d}")
    return _acts_trivially(s.d, s.factors + tuple((m, q, -e) for m, q, e in reversed(t.factors)))


def canonical_key(t):
    """A hashable key of the action of t: tails with equal keys act alike,
    and tails that act alike get equal keys whenever their section closures
    have at most DEFAULT_NODE_BUDGET sections.

    The sections of the free-reduced factor word, the finite closure that
    is_identity walks, are listed breadth first in letter order with their
    root permutations and successors.  Moore refinement merges the sections
    that act alike, and the classes are numbered breadth first from t's own.
    The key is the tuple of (root permutation, successor numbers) rows of
    this minimal automaton, and () for the identity.  A closure past
    DEFAULT_NODE_BUDGET sections, which a word over a non-contracting machine
    can reach, is not minimized: the key is then the free-reduced word
    itself, whose factor triples no row can equal.
    """
    start = free_reduce(t.factors)
    if not start:
        return ()
    return _minimal_rows(t.d, start)


@lru_cache(maxsize=32768)
def _minimal_rows(d, start):
    """canonical_key of the non-empty free-reduced word start."""
    index = {start: 0}
    words = [start]
    perms = []
    successors = []
    # words grows while it is read, so this is a breadth-first walk
    for factors in words:
        perm, sections = expand(d, factors)
        perms.append(perm)
        row = []
        for section in sections:
            if section not in index:
                if len(words) == DEFAULT_NODE_BUDGET:
                    return start
                index[section] = len(words)
                words.append(section)
            row.append(index[section])
        successors.append(row)

    ident = tuple(range(d))
    if all(p == ident for p in perms):
        return ()
    # refinement numbers classes by first appearance; the sections are
    # listed in shortlex order of their first access words, so that is
    # breadth first from the start's class, whichever word presents it
    classes = perms
    count = len(set(perms))
    while True:
        signatures = [
            (classes[i], tuple(classes[j] for j in row)) for i, row in enumerate(successors)
        ]
        numbers = {}
        refined = [numbers.setdefault(s, len(numbers)) for s in signatures]
        if len(numbers) == count:
            break
        classes, count = refined, len(numbers)
    rows = {}
    for i, c in enumerate(refined):
        rows.setdefault(c, (perms[i], tuple(refined[j] for j in successors[i])))
    return tuple(rows.values())


# ---------------------------------------------------------------------------
# builtin machines


def adding_machine(d):
    """Base-d odometer: adds 1 with carry to the leading digits."""
    transition = {
        "a": tuple("e" if x < d - 1 else "a" for x in range(d)),
        "e": ("e",) * d,
    }
    output = {
        "a": tuple((x + 1) % d for x in range(d)),
        "e": tuple(range(d)),
    }
    return MealyMachine("adding", d, transition, output)


def grigorchuk():
    """The 5-state machine generating the first Grigorchuk group."""
    transition = {
        "a": ("e", "e"),
        "b": ("a", "c"),
        "c": ("a", "d"),
        "d": ("e", "b"),
        "e": ("e", "e"),
    }
    swap, ident = (1, 0), (0, 1)
    output = {"a": swap, "b": ident, "c": ident, "d": ident, "e": ident}
    return MealyMachine("grigorchuk", 2, transition, output)


def depth_perm(k, assignment, d=None, name=None):
    """Finite-depth tree automorphism from a permutation of depth-k addresses.

    assignment maps each depth-k word to its image and must be induced by
    letter permutations along the tree, i.e. images of words sharing a prefix
    of length j share an image prefix of length j.
    """
    pairs = [(tuple(u), tuple(v)) for u, v in assignment.items()]
    if d is None:
        if not pairs:
            raise CantorError("empty assignment needs an explicit alphabet size")
        d = max(max(u) for u, _ in pairs) + 1 if k > 0 else 2
    if len(pairs) != d**k or any(len(u) != k or len(v) != k for u, v in pairs):
        raise CantorError(f"assignment must permute all {d}**{k} depth-{k} words")
    if sorted(v for _, v in pairs) != sorted(u for u, _ in pairs):
        raise CantorError("assignment is not a permutation")

    transition = {"e": ("e",) * d}
    output = {"e": tuple(range(d))}

    def build(prefix, pairs):
        state = "n" + "".join(map(str, prefix)) if prefix else "root"
        perm = [None] * d
        groups = {x: [] for x in range(d)}
        for u, v in pairs:
            x, y = u[0], v[0]
            if perm[x] is None:
                perm[x] = y
            elif perm[x] != y:
                raise CantorError(f"images below {prefix + (x,)} disagree on the first letter")
            groups[x].append((u[1:], v[1:]))
        if sorted(perm) != list(range(d)):
            raise CantorError(f"letters below {prefix} are not permuted")
        targets = []
        for x in range(d):
            if len(prefix) + 1 < k:
                targets.append(build(prefix + (x,), groups[x]))
            else:
                targets.append("e")
        output[state] = tuple(perm)
        transition[state] = tuple(targets)
        return state

    if k == 0:
        root = "e"
    else:
        root = build((), pairs)
    machine = MealyMachine(name or f"depthperm{k}", d, transition, output)
    return TailElement(d, ((machine, root, 1),))


def state(machine, s, exp=1):
    """TailElement consisting of a single signed machine state."""
    if s not in machine.output:
        raise CantorError(f"{s} is not a state of {machine.name}")
    return TailElement(machine.d, ((machine, s, exp),))

