"""Group words, presentations, parsing and reduced-word enumeration.

A word is a flat sequence of nonzero signed integers: letter +i is the
i-th generator (1-based), letter -i its inverse.  Text form uses the
declared generator names with a trailing apostrophe for inverses, so
the inverse of "a b" is "b' a'"; "1" denotes the empty word.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    CapExceededError,
    NotDehnPresentationError,
    UnknownGeneratorError,
    ValidationError,
    WordSyntaxError,
)
from .matrices import (
    IDENTITY, SL2Matrix, Scaled, letter_table, scaled_mul, unscaled)

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


def _trusted_word(letters: Tuple[int, ...]) -> Word:
    """A Word over letters known to be nonzero ints, built unchecked."""
    w = object.__new__(Word)
    object.__setattr__(w, "letters", letters)
    return w


def _reduce_letters(letters: Sequence[int]) -> Tuple[int, ...]:
    out: List[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


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
            if name == "1":
                raise ValidationError("'1' is reserved for the empty word")
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

    def parse(self, text: str) -> Word:
        return parse_word(text, self)

    def text(self, w: Word) -> str:
        return word_to_text(w, self)


# -- parsing ------------------------------------------------------------

# "1" lexes as an int, so ^10 stays whole; as a term it is the empty word.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[a-z][a-z0-9]*)|(?P<prime>')|(?P<caret>\^)"
    r"|(?P<int>[+-]?\d+)|(?P<open>\()|(?P<close>\)))"
)


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise WordSyntaxError(f"unexpected character {stripped[0]!r}", pos)
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, name_index: Dict[str, int], length: int):
        self.tokens = tokens
        self.pos = 0
        self.names = name_index
        self.length = length

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def parse_word(self, stop_at_close: bool = False) -> List[int]:
        letters: List[int] = []
        while True:
            tok = self.peek()
            if tok is None or (stop_at_close and tok[0] == "close"):
                return letters
            base, power = self.parse_term()
            n = len(letters) + len(base) * power
            if n > DEFAULT_WORD_CAP:
                raise CapExceededError(
                    f"word would have {n} letters, cap is {DEFAULT_WORD_CAP}")
            letters.extend(base * power)

    def parse_term(self) -> Tuple[List[int], int]:
        """One term as (letters, power), the power left unexpanded."""
        tok = self.take()
        if tok is None:
            raise WordSyntaxError("unexpected end of input", self.length)
        kind, value, at = tok
        if kind == "name":
            if value not in self.names:
                raise UnknownGeneratorError(f"unknown generator {value!r}")
            base = [self.names[value]]
            nxt = self.peek()
            if nxt is not None and nxt[0] == "prime":
                self.take()
                base = [-base[0]]
        elif kind == "int" and value == "1":
            base = []
        elif kind == "open":
            base = self.parse_word(stop_at_close=True)
            closing = self.take()
            if closing is None or closing[0] != "close":
                raise WordSyntaxError("unbalanced '('", at)
        else:
            raise WordSyntaxError(f"unexpected token {value!r}", at)
        power = 1
        nxt = self.peek()
        if nxt is not None and nxt[0] == "caret":
            self.take()
            exp_tok = self.take()
            if exp_tok is None or exp_tok[0] != "int":
                where = exp_tok[2] if exp_tok else self.length
                raise WordSyntaxError("'^' must be followed by an integer", where)
            # more digits than the cap means a power past it; checked before
            # int(), which refuses strings of over 4300 digits
            digits = exp_tok[1].lstrip("+-").lstrip("0")
            if base and len(digits) > len(str(DEFAULT_WORD_CAP)):
                raise CapExceededError(f"exponent of {len(digits)} digits "
                                       f"passes the word cap {DEFAULT_WORD_CAP}")
            power = int(digits or "0") if base else 0
            if exp_tok[1].startswith("-"):
                base = [-x for x in reversed(base)]
        return base, power


def parse_word(text: str, presentation: Presentation) -> Word:
    """Parse word text against a presentation's generator names.

    Powers are expanded and inverses pushed onto letters, but the result
    is not freely reduced; reduction stays a separate, explicit step.
    """
    parser = _Parser(_tokenize(text), presentation.name_index, len(text))
    letters = parser.parse_word()
    leftover = parser.peek()
    if leftover is not None:
        raise WordSyntaxError(f"unexpected token {leftover[1]!r}", leftover[2])
    return Word(tuple(letters))


def word_texts(ws: Iterable[Word], presentation: Presentation) -> Iterator[str]:
    """Canonical text of each word: spaced letter names, "1" if empty."""
    gens = presentation.generators
    names = {x: gens[abs(x) - 1] + ("" if x > 0 else "'")
             for x in letter_alphabet(len(gens))}
    for w in ws:
        try:
            text = " ".join([names[x] for x in w.letters]) if w.letters else "1"
        except KeyError as exc:
            raise UnknownGeneratorError(
                f"letter {exc.args[0]} outside rank {len(gens)}") from None
        yield text


def word_to_text(w: Word, presentation: Presentation) -> str:
    """Canonical text of one word."""
    return next(word_texts((w,), presentation))


# -- evaluation ---------------------------------------------------------


def evaluate(w: Word, matrices: Sequence[SL2Matrix]) -> SL2Matrix:
    """Image of a word under generator index -> matrix; empty word -> id."""
    if not matrices:
        raise ValidationError("evaluation needs at least one generator matrix")
    return evaluate_with(w, letter_table(matrices), matrices[0].context)


def evaluate_with(w: Word, table: Dict[int, Scaled], context) -> SL2Matrix:
    """Image of a word under a prebuilt matrices.letter_table."""
    image = IDENTITY
    try:
        for x in w.letters:
            image = scaled_mul(image, table[x])
    except KeyError as exc:
        raise UnknownGeneratorError(
            f"letter {exc.args[0]} outside rank {len(table) // 2}") from None
    return unscaled(image, context)


# -- shortlex enumeration ----------------------------------------------


def letter_alphabet(rank: int) -> Tuple[int, ...]:
    """Signed letters in shortlex order: +1, -1, +2, -2, ..."""
    return tuple(s * i for i in range(1, rank + 1) for s in (1, -1))


def word_sort_key(letters: Sequence[int]) -> Tuple:
    return (len(letters), tuple(2 * abs(x) - (x > 0) for x in letters))


def ball_size(rank: int, max_len: int) -> int:
    """Count of freely reduced words of length <= max_len."""
    total, level = 1, 0
    for k in range(1, max_len + 1):
        level = 2 * rank if k == 1 else level * (2 * rank - 1)
        total += level
    return total


def check_ball(rank: int, max_len: int, max_words: int, what: str, predicted=None):
    """Reject a negative bound, or more than max_words words: the ball's,
    or the given count of words built from it."""
    if max_len < 0:
        raise ValidationError("max_len must be >= 0")
    predicted = ball_size(rank, max_len) if predicted is None else predicted
    if predicted > max_words:
        raise CapExceededError(
            f"{what} would hold {predicted} words, cap is {max_words}")


def ball_walk(rank: int, max_len: int, root, step) -> Iterator[Tuple[Word, object]]:
    """(word, state) for each reduced word of length 1..max_len, shortlex.

    Growing each level's sorted words by the alphabet, minus the inverse
    of their last letter, keeps the next level sorted.  The empty word's
    state is root and a child's is step(parent_state, letter).
    """
    alphabet = letter_alphabet(rank)
    level = [((), root)]
    for depth in range(max_len, 0, -1):
        grown = []
        for stem, state in level:
            back = -stem[-1] if stem else 0
            for x in alphabet:
                if x != back:
                    letters = stem + (x,)
                    child = step(state, x)
                    if depth > 1:
                        grown.append((letters, child))
                    yield _trusted_word(letters), child
        level = grown


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
    check_ball(presentation.rank, max_len, max_words, "ball")
    walk = ball_walk(presentation.rank, max_len, None, lambda state, x: None)
    return [Word(())] + [w for w, _ in walk]


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


_RULES_CACHE: Dict[Tuple[Tuple[int, ...], ...], Dict] = {}


def _dehn_rules(presentation: Presentation) -> Dict[Tuple[int, ...], Tuple[int, ...]]:
    if presentation.kind == "free":
        raise NotDehnPresentationError("free presentations have no relators")
    sym = _symmetrized(presentation.relators)
    key = tuple(sym)
    cached = _RULES_CACHE.get(key)
    if cached is not None:
        return cached
    _check_small_cancellation(sym)
    rules: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    for s in sym:
        m = len(s)
        for t in range(m // 2 + 1, m + 1):
            head, tail = s[:t], s[t:]
            rules[head] = tuple(-x for x in reversed(tail))
    _RULES_CACHE[key] = rules
    return rules


def dehn_reduce(w: Word, presentation: Presentation) -> Word:
    """Shorten w by replacing over-half relator subwords, to a fixpoint.

    For presentations passing the small-cancellation gate (surface
    groups of genus >= 2 in particular) the result is empty exactly when
    w represents the identity.  Every replacement strictly shortens the
    word, so this always terminates.
    """
    rules = _dehn_rules(presentation)
    lengths = sorted({len(k) for k in rules}, reverse=True)
    letters = _reduce_letters(w.letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(letters)):
            for m in lengths:
                if i + m > len(letters):
                    continue
                repl = rules.get(letters[i:i + m])
                if repl is not None:
                    letters = _reduce_letters(letters[:i] + repl + letters[i + m:])
                    changed = True
                    break
            if changed:
                break
    return Word(letters)
