"""Words in free groups, presentations, and syntactic relator tests.

A word is a tuple of nonzero ints: the letter ``k+1`` is generator ``k``
and ``-(k+1)`` is its inverse.  All functions keep words freely reduced,
so tuples can be compared and hashed directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import eq, neg
from typing import Iterable, Optional, Sequence

Word = tuple  # tuple[int, ...], freely reduced

EMPTY: Word = ()


class ParseError(ValueError):
    """Presentation text does not conform to the grammar."""

    def __init__(self, message, line=1, col=1):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class SearchCapExceeded(RuntimeError):
    """A bounded combinatorial search hit its cap before deciding."""


def letter(gen: int, sign: int = 1) -> int:
    """Letter for 0-based generator ``gen`` with sign +1 or -1."""
    return (gen + 1) * sign


def gen_of(lt: int) -> int:
    """0-based generator index of a letter."""
    return abs(lt) - 1


def free_reduce(letters: Iterable[int]) -> Word:
    """Cancel adjacent inverse pairs until no more remain.

    >>> free_reduce((1, -1, 2))
    (2,)
    >>> free_reduce((1, 2, -2, 1))
    (1, 1)
    """
    out = []
    for lt in letters:
        if lt == 0:
            raise ValueError("letter 0 is not a generator")
        if out and out[-1] == -lt:
            out.pop()
        else:
            out.append(lt)
    return tuple(out)


def inverse(w: Word) -> Word:
    return tuple(map(neg, reversed(w)))


def concat(*ws: Word) -> Word:
    """Freely reduced product of already-reduced words."""
    out = []
    for w in ws:
        for lt in w:
            if out and out[-1] == -lt:
                out.pop()
            else:
                out.append(lt)
    return tuple(out)


def power(w: Word, k: int) -> Word:
    if k < 0:
        return power(inverse(w), -k)
    return concat(*([w] * k))


def commutator(u: Word, v: Word) -> Word:
    return concat(u, v, inverse(u), inverse(v))


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split ``w = conjugator . core . conjugator^-1`` with core cyclically reduced.

    >>> cyclic_reduce((2, 1, -2))
    ((1,), (2,))
    """
    k = 0
    n = len(w)
    while 2 * k < n - 1 and w[k] == -w[n - 1 - k]:
        k += 1
    return w[k:n - k], w[:k]


def rotate(w: Word, k: int) -> Word:
    """Cyclic rotation; only meaningful for cyclically reduced words."""
    if not w:
        return w
    k %= len(w)
    return w[k:] + w[:k]


def exponent_vector(w: Word, n: int) -> list:
    """Per generator 0..n-1, the exponent sum of ``w``, in one pass; letters
    must be generators below n."""
    v = [0] * n
    for lt in w:
        if lt > 0:
            v[lt - 1] += 1
        else:
            v[-lt - 1] -= 1
    return v


def substitute(w: Word, images: Sequence[Word]) -> Word:
    """Image of ``w`` under the homomorphism sending generator i to images[i].

    Inverse letters map to inverse images; the result is freely reduced.
    """
    out = []
    for lt in w:
        g = gen_of(lt)
        if g >= len(images):
            raise ValueError(f"no image for generator {g}")
        img = images[g] if lt > 0 else inverse(images[g])
        for x in img:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return tuple(out)


def conjugator_between(a: Word, b: Word) -> Optional[Word]:
    """A word g with ``a = g b g^-1``, or None if a and b are not conjugate."""
    ca, ga = cyclic_reduce(a)
    cb, gb = cyclic_reduce(b)
    if len(ca) != len(cb):
        return None
    if not ca:
        return EMPTY if not cb else None
    for k in range(len(cb)):
        if rotate(cb, k) == ca:
            # rotate(cb, k) = p^-1 cb p for p = cb[:k]
            return concat(ga, inverse(cb[:k]), inverse(gb))
    return None


def is_proper_power(w: Word) -> Optional[tuple[Word, int]]:
    """Maximal root/exponent of the cyclic reduction, up to conjugacy.

    Returns ``(root, e)`` with e >= 2 such that the cyclic reduction of w is
    conjugate to root**e, or None when w is not a proper power.
    """
    if not w:
        raise ValueError("empty word has no root")
    core, _ = cyclic_reduce(w)
    n = len(core)
    if n == 0:
        return None
    for d in range(1, n // 2 + 1):
        if n % d == 0 and core == rotate(core, d):
            return core[:d], n // d
    return None


@dataclass(frozen=True)
class CommutatorWitness:
    u: Word
    v: Word


def is_commutator(w: Word, max_len: int = 64) -> Optional[CommutatorWitness]:
    """Search for u, v with [u, v] conjugate to ``w``.

    Works on the cyclic reduction: a cyclically reduced word is a commutator
    exactly when some rotation splits as A B C A^-1 B^-1 C^-1 (C may be
    empty), and then u = A.B, v = C.A^-1 satisfy [u, v] = that rotation.

    Raises SearchCapExceeded beyond ``max_len`` letters; that outcome is
    "undetermined", not "no".
    """
    core, _ = cyclic_reduce(w)
    n = len(core)
    if n == 0:
        return CommutatorWitness(EMPTY, EMPTY)
    if n % 2 or any(exponent_vector(core, max(map(abs, core)))):
        return None
    if n > max_len:
        raise SearchCapExceeded(f"commutator search cap {max_len} exceeded ({n} letters)")
    h = n // 2
    for k in range(n):
        r = rotate(core, k)
        for a in range(h + 1):
            A = r[:a]
            if r[h:h + a] != tuple(-x for x in reversed(A)):
                continue
            for b in range(h - a + 1):
                B = r[a:a + b]
                if r[h + a:h + a + b] != tuple(-x for x in reversed(B)):
                    continue
                C = r[a + b:h]
                if r[h + a + b:] == tuple(-x for x in reversed(C)):
                    # r = A B C A^-1 B^-1 C^-1 = [A.B, C.A^-1]
                    return CommutatorWitness(r[:a + b], free_reduce(C + inverse(A)))
    return None


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class Presentation:
    """Generator names plus freely reduced relator words."""

    generators: tuple
    relators: tuple

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator name")
        n = len(self.generators)
        for r in self.relators:
            if 0 in r:
                raise ValueError("letter 0 is not a generator")
            if not isinstance(r, tuple) or any(map(eq, r, map(neg, r[1:]))):
                raise ValueError("relator not freely reduced")
            if r and (max(r) > n or -min(r) > n):
                raise ValueError("relator letter out of range")

    @property
    def ngens(self) -> int:
        return len(self.generators)

    @property
    def nrels(self) -> int:
        return len(self.relators)

    @property
    def deficiency(self) -> int:
        return self.ngens - self.nrels

    def __str__(self):
        rels = ", ".join(word_to_text(r, self.generators) for r in self.relators)
        return f"< {', '.join(self.generators)} | {rels} >"


# the grammar's rule for a generator name
NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def word_to_text(w: Word, names: Sequence[str]) -> str:
    """Readable text form; round-trips through parse_word for a word of at
    most MAX_WORD_LEN letters."""
    if not w:
        return ""
    parts = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        name = names[gen_of(w[i])]
        exp = (j - i) * (1 if w[i] > 0 else -1)
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return " ".join(parts)


def _parse_error(text: str, message: str, pos: int):
    """Raise ParseError for ``message`` at offset ``pos`` of ``text``, with
    the 1-based line and column."""
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    raise ParseError(message, line, col)


# the most letters a parsed word may have before free reduction, and a
# relator u v^-1 joined from ``u = v`` after it
MAX_WORD_LEN = 10000


def parse_word(text: str, names: Sequence[str], source: Optional[str] = None,
               offset: int = 0) -> Word:
    """Parse whitespace-separated factors over ``names``.

    Factors are ``name``, ``name^int``, or, for single-letter lowercase
    names, the uppercase letter as the inverse.  ``text`` starts at
    ``offset`` of ``source`` (by default ``text`` itself), where errors
    are placed.
    """
    source = text if source is None else source
    index = {n: i for i, n in enumerate(names)}
    lower_single = {n.upper(): i for i, n in enumerate(names)
                    if len(n) == 1 and n.islower()}
    out = []
    pos = 0
    for tok in text.split():
        pos = text.find(tok, pos)
        m = re.fullmatch(r"([A-Za-z][A-Za-z0-9_]*)(\^(-?\d+))?", tok)
        if not m:
            _parse_error(source, f"bad factor {tok!r}", offset + pos)
        name, exp = m.group(1), m.group(3) or "1"
        if name in index:
            g, sign = index[name], 1
        elif name in lower_single:
            g, sign = lower_single[name], -1
        else:
            _parse_error(source, f"unknown generator {name!r}", offset + pos)
        # leading zeros aside, an exponent with more digits than the bound
        # is over it: refused before int(), which caps the digits it reads
        size = exp.lstrip("-0") or "0"
        if len(size) > len(str(MAX_WORD_LEN)) or len(out) + int(size) > MAX_WORD_LEN:
            _parse_error(source, f"word longer than {MAX_WORD_LEN} letters", offset + pos)
        out.extend([letter(g, -sign if exp[0] == "-" else sign)] * int(size))
        pos += len(tok)
    return free_reduce(out)


def parse_presentation(text: str) -> Presentation:
    """Parse ``< names | relators >`` presentation text.

    Relators are comma-separated; ``u = v`` is stored as u.v^-1.

    >>> p = parse_presentation("< a, b | a b A B >")
    >>> (p.ngens, p.nrels)
    (2, 1)
    """
    head = len(text) - len(text.lstrip())
    if not text.startswith("<", head):
        _parse_error(text, "expected '<'", head)
    head += 1
    bar = text.find("|", head)
    close = text.rfind(">")
    if bar < 0:
        _parse_error(text, "expected '|'", len(text) - 1)
    if close < 0 or close < bar:
        _parse_error(text, "expected '>'", len(text) - 1)
    names = []
    for chunk in text[head:bar].split(","):
        name = chunk.strip()
        if not NAME_RE.fullmatch(name):
            _parse_error(text, f"bad generator name {name!r}", text.find(chunk, head))
        if name in names:
            _parse_error(text, f"duplicate generator name {name!r}", text.find(chunk, head))
        names.append(name)
    rel_text = text[bar + 1:close]
    tail = text[close + 1:].strip()
    if tail:
        _parse_error(text, f"trailing input {tail!r}", close + 1)
    relators = []
    if rel_text.strip():
        pos = bar + 1
        for chunk in rel_text.split(","):
            start = text.find(chunk, pos) if chunk else pos
            pos = start + len(chunk)
            if not chunk.strip():
                _parse_error(text, "empty relator", start)
            if "=" in chunk:
                lhs, _, rhs = chunk.partition("=")
                u = parse_word(lhs, names, text, start)
                v = parse_word(rhs, names, text, start + len(lhs) + 1)
                r = concat(u, inverse(v))
                if len(r) > MAX_WORD_LEN:
                    _parse_error(text, f"relator longer than {MAX_WORD_LEN} letters", start)
                relators.append(r)
            else:
                relators.append(parse_word(chunk, names, text, start))
    return Presentation(tuple(names), tuple(relators))


DEFAULT_NAMES = ("x", "y", "z")


def default_names(rank: int) -> tuple:
    if rank <= len(DEFAULT_NAMES):
        return DEFAULT_NAMES[:rank]
    return tuple(f"x{i+1}" for i in range(rank))
