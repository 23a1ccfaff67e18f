"""Group words, presentations, parsing and the shortlex walk of reduced words.

A word is a flat sequence of nonzero signed integers: letter +i is the
i-th generator (1-based), letter -i its inverse.  Text form uses the
declared generator names with a trailing apostrophe for inverses, so
the inverse of "a b" is "b' a'"; "1" denotes the empty word.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    CapExceededError,
    NotDehnPresentationError,
    UnknownGeneratorError,
    ValidationError,
    WordSyntaxError,
)
from .matrices import (
    IDENTITY, SL2Matrix, Scaled, letter_table, scaled_mul)

_NAME_RE = re.compile(r"^[a-z][a-z0-9]*$")

DEFAULT_WORD_CAP = 500_000


@dataclass(frozen=True, slots=True)
class Word:
    """An immutable word over signed 1-based generator indices."""

    letters: Tuple[int, ...] = ()

    def __post_init__(self):
        if any(not isinstance(x, int) or x == 0 for x in self.letters):
            raise ValidationError(f"letters must be nonzero ints: {self.letters}")

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-x for x in reversed(self.letters)))

    def __mul__(self, other: "Word") -> "Word":
        """Group multiplication: concatenate, then freely reduce."""
        if not isinstance(other, Word):
            return NotImplemented
        return free_reduce(Word(self.letters + other.letters))

    def is_reduced(self) -> bool:
        ls = self.letters
        return all(ls[i] != -ls[i + 1] for i in range(len(ls) - 1))

    def __repr__(self):
        return f"Word({self.letters})"


_new_word, _set_letters = object.__new__, Word.letters.__set__


def _trusted_word(letters: Tuple[int, ...]) -> Word:
    """A Word over letters known to be nonzero ints, built unchecked."""
    w = _new_word(Word)
    _set_letters(w, letters)
    return w


def _reduce_letters(letters: Sequence[int], rules: Optional[Dict] = None,
                    lengths: Sequence[int] = ()) -> Tuple[int, ...]:
    """One left-to-right stack pass.  An arriving letter that cancels the
    top is popped with it; otherwise it is pushed, and if the top m letters
    (m in lengths, longest first) are a head in rules, they are popped
    and its replacement is fed back into the input.  With no rules this
    is free reduction.

    The stack below its top never changes, so every subword of the result
    was checked when its last letter was pushed: none is x x' or a head."""
    out = [0]  # a sentinel no letter cancels
    todo = list(letters)
    todo.reverse()
    while todo:
        x = todo.pop()
        if out[-1] == -x:
            out.pop()
            continue
        out.append(x)
        for m in lengths:
            if m < len(out):
                repl = rules.get(tuple(out[-m:]))
                if repl is not None:
                    del out[-m:]
                    todo.extend(reversed(repl))
                    break
    return tuple(out[1:])


def _cyclic_reduce_letters(letters: Sequence[int]) -> Tuple[int, ...]:
    ls = _reduce_letters(letters)
    i, j = 0, len(ls) - 1
    while i < j and ls[i] == -ls[j]:
        i += 1
        j -= 1
    return ls[i:j + 1]


def free_reduce(w: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    return Word(_reduce_letters(w.letters))


def cyclic_reduce(w: Word) -> Word:
    """Freely reduce, then strip matched first/last inverse pairs."""
    return Word(_cyclic_reduce_letters(w.letters))


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: named generators plus relator words.

    kind is one of "free", "surface", "explicit".  Surface presentations
    of genus g use generators a1, b1, ..., ag, bg and the single relator
    made of the g stacked commutators.
    """

    kind: str
    generators: Tuple[str, ...]
    relators: Tuple[Word, ...] = ()
    genus: Optional[int] = None
    name_index: Dict[str, int] = field(compare=False, hash=False, default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("free", "surface", "explicit"):
            raise ValidationError(f"unknown presentation kind {self.kind!r}")
        if not self.generators:
            raise ValidationError("a presentation needs at least one generator")
        seen = set()
        for name in self.generators:
            if not _NAME_RE.match(name):
                raise ValidationError(
                    f"generator name {name!r} must match [a-z][a-z0-9]*"
                )
            if name in seen:
                raise ValidationError(f"duplicate generator name {name!r}")
            seen.add(name)
        object.__setattr__(
            self,
            "name_index",
            {name: i + 1 for i, name in enumerate(self.generators)},
        )

    @property
    def rank(self) -> int:
        return len(self.generators)

    @classmethod
    def free(cls, rank: int, names: Optional[Sequence[str]] = None) -> "Presentation":
        if names is None:
            if not 1 <= rank <= 26:
                raise ValidationError("default names cover ranks 1..26")
            names = tuple("abcdefghijklmnopqrstuvwxyz"[:rank])
        elif len(names) != rank:
            raise ValidationError("name count must equal the rank")
        return cls("free", tuple(names))

    @classmethod
    def surface(cls, genus: int) -> "Presentation":
        if genus < 1:
            raise ValidationError("surface genus must be >= 1")
        names: List[str] = []
        for i in range(1, genus + 1):
            names.extend((f"a{i}", f"b{i}"))
        relator: List[int] = []
        for i in range(genus):
            a, b = 2 * i + 1, 2 * i + 2
            relator.extend((a, b, -a, -b))
        return cls("surface", tuple(names), (Word(tuple(relator)),), genus)

    @classmethod
    def explicit(
        cls, names: Sequence[str], relators: Sequence[str] = ()
    ) -> "Presentation":
        base = cls("explicit", tuple(names))
        parsed = tuple(parse_word(r, base) for r in relators)
        return cls("explicit", tuple(names), parsed)

    def descriptor(self) -> str:
        if self.kind == "free":
            return f"free({self.rank})"
        if self.kind == "surface":
            return f"surface({self.genus})"
        rels = "; ".join(word_to_text(r, self) for r in self.relators)
        return f"explicit({', '.join(self.generators)} | {rels})"


# -- parsing ------------------------------------------------------------

# "1" lexes as an int, so ^10 stays whole; as a term it is the empty word.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[a-z][a-z0-9]*)|(?P<prime>')|(?P<caret>\^)"
    r"|(?P<int>[+-]?\d+)|(?P<open>\()|(?P<close>\))|(?P<bad>\S))"
)


def parse_word(text: str, presentation: Presentation) -> Word:
    """Parse word text against a presentation's generator names.

    Powers are expanded and inverses pushed onto letters, but the result
    is not freely reduced; reduction stays a separate, explicit step.
    One loop walks the tokens with a stack of open groups, so nesting
    depth costs no recursion, and each power is checked before it is
    expanded against the letters held by every open group together.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":  # placed where its leading whitespace starts
            raise WordSyntaxError(f"unexpected character {m[kind]!r}", m.start())
        tokens.append((kind, m[kind], m.start(kind)))
    tokens.append(("end", "", len(text)))
    names = presentation.name_index
    groups: List[List[int]] = [[]]  # the word's letters, then each open group's
    opens: List[int] = []  # where each open group's '(' stands
    held = 0  # the letters of all groups together
    i = 0  # the next token
    while True:
        kind, value, at = tokens[i]
        i += 1
        if kind == "name":
            if value not in names:
                raise UnknownGeneratorError(f"unknown generator {value!r}")
            base = [names[value]]
            if tokens[i][0] == "prime":
                i += 1
                base = [-base[0]]
        elif kind == "int" and value == "1":
            base = []
        elif kind == "open":
            groups.append([])
            opens.append(at)
            continue
        elif kind == "close" and opens:
            opens.pop()
            base = groups.pop()
            held -= len(base)
        elif kind == "end":
            if opens:
                raise WordSyntaxError("unbalanced '('", opens[-1])
            return Word(tuple(groups[0]))
        else:
            raise WordSyntaxError(f"unexpected token {value!r}", at)
        power = 1
        if tokens[i][0] == "caret":
            kind, value, at = tokens[i + 1]
            i += 2
            if kind != "int":
                raise WordSyntaxError("'^' must be followed by an integer", at)
            try:  # None past the 4300 digits int() reads
                power = int(value.lstrip("+-").lstrip("0") or "0") if base else 0
            except ValueError:
                power = None
            if value.startswith("-"):
                base = [-x for x in reversed(base)]
        check_size("word", "letters", DEFAULT_WORD_CAP,
                   (held, None if power is None else len(base) * power))
        groups[-1].extend(base * power)
        held += len(base) * power


def word_texts(ws: Iterable[Tuple[int, ...]], presentation: Presentation) -> Iterator[str]:
    """Canonical text of each word's letters: spaced names, "1" if empty."""
    gens = presentation.generators
    names = {x: gens[abs(x) - 1] + ("" if x > 0 else "'")
             for x in letter_alphabet(len(gens))}
    for letters in ws:
        try:
            text = " ".join([names[x] for x in letters]) if letters else "1"
        except KeyError as exc:
            raise UnknownGeneratorError(
                f"letter {exc.args[0]} outside rank {len(gens)}") from None
        yield text


def word_to_text(w: Word, presentation: Presentation) -> str:
    """Canonical text of one word."""
    return next(word_texts((w.letters,), presentation))


# -- evaluation ---------------------------------------------------------


def evaluate(w: Word, matrices: Sequence[SL2Matrix]) -> SL2Matrix:
    """Image of a word under generator index -> matrix; empty word -> id."""
    if not matrices:
        raise ValidationError("evaluation needs at least one generator matrix")
    return SL2Matrix._of(scaled_image(w, letter_table(matrices)), matrices[0].context)


def scaled_image(w: Word, table: Dict[int, Scaled]) -> Scaled:
    """Scaled image of a word under a prebuilt matrices.letter_table."""
    image = IDENTITY
    try:
        for x in w.letters:
            image = scaled_mul(image, table[x])
    except KeyError as exc:
        raise UnknownGeneratorError(
            f"letter {exc.args[0]} outside rank {len(table) // 2}") from None
    return image


# -- shortlex enumeration ----------------------------------------------


def letter_alphabet(rank: int) -> Tuple[int, ...]:
    """Signed letters in shortlex order: +1, -1, +2, -2, ..."""
    return tuple(s * i for i in range(1, rank + 1) for s in (1, -1))


def word_sort_key(letters: Sequence[int]) -> Tuple:
    return (len(letters), tuple(2 * abs(x) - (x > 0) for x in letters))


def check_size(what: str, unit: str, cap: int, terms: Iterable[Optional[int]]):
    """The guard before every enumeration sized by the input: raise
    CapExceededError if the terms (say, level sizes) sum past cap.  They
    are summed lazily; a sum past both cap and 2**64, or a None term (too
    large to compute), is refused as "more than cap" without being built."""
    total = 0
    for term in terms:
        if term is None or (total := total + term) > max(cap, 1 << 64):
            raise CapExceededError(
                f"{what} would hold more than {cap} {unit}, cap is {cap}")
    if total > cap:
        raise CapExceededError(f"{what} would hold {total} {unit}, cap is {cap}")


def sphere_sizes(valency: int, radius: int) -> Iterator[int]:
    """Vertex counts at distance 0..radius in the valency-regular tree
    (2 * rank for words, p + 1 for lattices), lazily.  A line (valency 2)
    grows only linearly, so its 2 * radius + 1 vertices are one term."""
    if valency == 2:
        return iter((2 * radius + 1,))
    return chain((1,), (valency * (valency - 1) ** k for k in range(radius)))


def check_ball(what: str, rank: int, max_len: int, max_words: int):
    """The guard before a ball of reduced words: check_size for words
    against max_words and letters (at rank 1, L(L + 1) in 2L + 1 words)
    against 16 * max_words, then max_len >= 0."""
    check_size(what, "words", max_words, sphere_sizes(2 * rank, max_len))
    letters = ((max(max_len, 0) * (max_len + 1),) if rank == 1 else
               (k * s for k, s in enumerate(sphere_sizes(2 * rank, max_len))))
    check_size(what, "letters", 16 * max_words, letters)
    if max_len < 0:
        raise ValidationError("max_len must be >= 0")


def ball_size(rank: int, max_len: int) -> int:
    """Count of freely reduced words of length <= max_len."""
    return sum(sphere_sizes(2 * rank, max_len))


def ball_levels(rank: int, max_len: int, root, step) -> Iterator[List[Tuple[object, int]]]:
    """Each level 0..max_len of the reduced-word ball, grown only when
    asked for, as a shortlex list of (state, last letter), 0 for the empty
    word: the one walk of ball, the commutator scan and the spectrum.

    The empty word's state is root and a child's is step(parent_state,
    letter); no Word is built.  Growing each word of a sorted level by the
    alphabet minus its last letter's inverse keeps the next level sorted,
    so the words of a level that start with one letter are a run.
    """
    alphabet = letter_alphabet(rank)
    children = {last: [x for x in alphabet if x != -last] for last in (0,) + alphabet}
    level = [(root, 0)]
    yield level
    for _ in range(max_len):
        level = [(step(state, x), x) for state, last in level for x in children[last]]
        yield level


def ball(
    presentation: Presentation,
    max_len: int,
    max_words: int = DEFAULT_WORD_CAP,
) -> List[Word]:
    """All freely reduced words of length <= max_len, in shortlex order.

    Shortlex uses the declared generator order with each inverse ranked
    directly after its generator.  Relators are deliberately ignored:
    the ball is always the free-group ball over the generator alphabet.
    """
    check_ball("ball", presentation.rank, max_len, max_words)
    levels = ball_levels(presentation.rank, max_len, (), lambda u, x: u + (x,))
    return [_trusted_word(u) for level in levels for u, _ in level]


# -- Dehn reduction ------------------------------------------------------


def _symmetrized(relators: Iterable[Word]) -> List[Tuple[int, ...]]:
    out: List[Tuple[int, ...]] = []
    seen = set()
    for r in relators:
        reduced = cyclic_reduce(r)
        if not reduced.letters:
            continue
        for base in (reduced.letters, reduced.inverse().letters):
            for rot in (base[i:] + base[:i] for i in range(len(base))):
                if rot not in seen:
                    seen.add(rot)
                    out.append(rot)
    return out


def _longest_common_prefix(u: Tuple[int, ...], v: Tuple[int, ...]) -> int:
    n = 0
    for x, y in zip(u, v):
        if x != y:
            break
        n += 1
    return n


def _check_small_cancellation(sym: List[Tuple[int, ...]]):
    """Greedy half-relator reduction is justified by the C'(1/6) bound:
    no two distinct symmetrized relators may share a prefix of a sixth
    of either length or more."""
    for i, u in enumerate(sym):
        for v in sym[i + 1:]:
            piece = _longest_common_prefix(u, v)
            if piece == 0:
                continue
            if 6 * piece >= len(u) or 6 * piece >= len(v):
                raise NotDehnPresentationError(
                    f"piece of length {piece} is too long for relator "
                    f"lengths {len(u)} and {len(v)}"
                )


_RULES_CACHE: Dict[Tuple[Word, ...], Tuple[Dict, Tuple[int, ...]]] = {}


def _dehn_rules(presentation: Presentation) -> Tuple[Dict, Tuple[int, ...]]:
    """The rewriting rules head -> replacement (over half a symmetrized
    relator -> the inverse of the rest) and their head lengths, longest
    first."""
    if presentation.kind == "free":
        raise NotDehnPresentationError("free presentations have no relators")
    key = tuple(presentation.relators)
    cached = _RULES_CACHE.get(key)
    if cached is not None:
        return cached
    sym = _symmetrized(key)
    _check_small_cancellation(sym)
    rules: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    for s in sym:
        m = len(s)
        for t in range(m // 2 + 1, m + 1):
            head, tail = s[:t], s[t:]
            rules[head] = tuple(-x for x in reversed(tail))
    lengths = tuple(sorted({len(k) for k in rules}, reverse=True))
    _RULES_CACHE[key] = rules, lengths
    return rules, lengths


def dehn_reduce(w: Word, presentation: Presentation) -> Word:
    """Dehn's algorithm as one linear stack pass, shared with free
    reduction: each over-half relator subword is replaced by the inverse
    of the rest as soon as its last letter arrives.

    For presentations passing the small-cancellation gate (surface
    groups of genus >= 2 in particular) the result is empty exactly when
    w represents the identity.  Every replacement is shorter than its
    head, so the pass terminates and the result is never longer than w.
    """
    return Word(_reduce_letters(w.letters, *_dehn_rules(presentation)))
