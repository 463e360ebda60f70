"""Substitutions on finite alphabets: representation, parsing, basic combinatorics.

A substitution maps each letter of a finite alphabet to a nonempty word over
the same alphabet, and extends to words by concatenation.  Everything in this
package consumes the `Substitution` type defined here.  The module covers the
combinatorial layer: the substitution matrix, primitivity, constant length,
one-sided fixed points, the language of allowed words, and the aperiodicity
test for primitive constant-length substitutions that are injective on
letters (a letter must admit two distinct neighborhoods ``bac`` among the
allowed 3-words; otherwise the fixed point is periodic).

Letters are referred to externally by their string tokens and internally by
dense integer indices for throughput.  Long fixed-point prefixes are built
chunkwise as packed byte strings, so a 10^8-symbol prefix never
materializes an intermediate full image; `fixed_point_prefix` hands them
out as compact numpy arrays.  numpy is imported there only: nothing on the
exact classification path loads it.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Alphabet",
    "Substitution",
    "IntMatrix",
    "ParseError",
    "ResourceBudgetError",
    "PrimitivityResult",
    "AperiodicityResult",
    "parse_substitution",
    "render_substitution",
    "substitution_matrix",
    "is_primitive",
    "constant_length",
    "seed_letter",
    "fixed_point_prefix",
    "allowed_words",
    "is_aperiodic_pansiot",
    "power_substitution",
]

# Hard ceiling for in-memory symbol buffers (symbols, not bytes).  Generous:
# a uint8 prefix of this size is 200 MB.
DEFAULT_MAX_SYMBOLS = 2 * 10**8
# the prefix builder squares the substitution while its longest image has at
# most this many symbols, so no image it joins exceeds the square of this
_SQUARE_MAX_IMAGE = 64


class ParseError(ValueError):
    """Malformed substitution DSL input.  Carries 1-based line/column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class ResourceBudgetError(RuntimeError):
    """A requested computation exceeds the configured memory/length budget."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite alphabet of distinct, nonempty string tokens."""

    letters: tuple[str, ...]

    def __post_init__(self):
        if len(self.letters) == 0:
            raise ValueError("alphabet must be nonempty")
        if any(not tok for tok in self.letters):
            raise ValueError("alphabet tokens must be nonempty strings")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("alphabet tokens must be distinct")

    def __len__(self) -> int:
        return len(self.letters)

    def index(self, token: str) -> int:
        try:
            return self.letters.index(token)
        except ValueError:
            raise KeyError(f"letter {token!r} not in alphabet") from None

    def token(self, i: int) -> str:
        return self.letters[i]


@dataclass(frozen=True)
class Substitution:
    """A substitution: one nonempty image word per letter.

    `images[a]` is the image of letter index `a`, as a tuple of letter
    indices.  Instances are immutable and hashable; all operations on them
    are pure functions.
    """

    alphabet: Alphabet
    images: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = len(self.alphabet)
        if len(self.images) != m:
            raise ValueError("need exactly one image per letter")
        for a, img in enumerate(self.images):
            if len(img) == 0:
                raise ValueError(f"image of {self.alphabet.token(a)!r} is empty")
            for b in img:
                if not (0 <= b < m):
                    raise ValueError(f"image of {self.alphabet.token(a)!r} uses letter index {b} outside alphabet")

    @property
    def size(self) -> int:
        """Alphabet size m."""
        return len(self.alphabet)

    def image(self, a: int) -> tuple[int, ...]:
        return self.images[a]

    def apply(self, word: Sequence[int]) -> tuple[int, ...]:
        """Apply the substitution to a word (concatenate letter images)."""
        out: list[int] = []
        for a in word:
            out.extend(self.images[a])
        return tuple(out)

    def hash_key(self) -> str:
        """Stable content hash (hex) of the substitution: the report's `input.hash`."""
        canon = "\n".join(
            self.alphabet.token(a) + " -> " + " ".join(self.alphabet.token(b) for b in img)
            for a, img in enumerate(self.images)
        )
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class IntMatrix:
    """Dense square matrix of exact Python integers, `entries[row][col]`."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("matrix must be square")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, rc: tuple[int, int]) -> int:
        r, c = rc
        return self.entries[r][c]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)))

    def matmul(self, other: "IntMatrix") -> "IntMatrix":
        n = self.dim
        ot = tuple(zip(*other.entries))
        return IntMatrix(
            tuple(
                tuple(sum(x * y for x, y in zip(row, col)) for col in ot)
                for row in self.entries
            )
        )

    def matpow(self, j: int) -> "IntMatrix":
        if j < 0:
            raise ValueError("nonnegative powers only")
        n = self.dim
        result = IntMatrix(tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n)))
        base = self
        while j:
            if j & 1:
                result = result.matmul(base)
            base = base.matmul(base)
            j >>= 1
        return result

    def column_sums(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in zip(*self.entries))


# ---------------------------------------------------------------------------
# DSL
# ---------------------------------------------------------------------------

def parse_substitution(text: str) -> Substitution:
    """Parse the substitution rule DSL.

    Format: UTF-8 text; lines starting with '#' (after optional leading
    whitespace) are comments; blank lines are ignored.  Each remaining line is
    one rule ``<letter> -> <letter> <letter> ...`` with whitespace-separated
    tokens.  The alphabet is the set of left-hand sides in first-appearance
    order.  Every letter appearing on a right-hand side must have a rule of
    its own; duplicate rules for a letter are rejected.
    """
    rules: dict[str, tuple[str, ...]] = {}
    order: list[str] = []
    rule_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "->" not in line:
            raise ParseError("expected '<letter> -> <letters...>'", line=lineno, column=1)
        lhs_text, rhs_text = line.split("->", 1)
        lhs_tokens = lhs_text.split()
        if len(lhs_tokens) != 1:
            col = raw.index("->") + 1 if "->" in raw else 1
            raise ParseError(
                f"left-hand side must be a single letter, got {lhs_text.strip()!r}",
                line=lineno,
                column=col,
            )
        lhs = lhs_tokens[0]
        rhs = tuple(rhs_text.split())
        if not rhs:
            raise ParseError(f"empty image for letter {lhs!r}", line=lineno, column=len(raw) + 1)
        if lhs in rules:
            raise ParseError(
                f"duplicate rule for letter {lhs!r} (first defined on line {rule_lines[lhs]})",
                line=lineno,
                column=1,
            )
        rules[lhs] = rhs
        rule_lines[lhs] = lineno
        order.append(lhs)

    if not order:
        raise ParseError("no rules found", line=1, column=1)

    alphabet = Alphabet(tuple(order))
    images: list[tuple[int, ...]] = []
    for lhs in order:
        img = []
        for tok in rules[lhs]:
            if tok not in rules:
                raise ParseError(
                    f"letter {tok!r} in image of {lhs!r} has no rule",
                    line=rule_lines[lhs],
                )
            img.append(alphabet.index(tok))
        images.append(tuple(img))
    return Substitution(alphabet, tuple(images))


def render_substitution(z: Substitution) -> str:
    """Render a substitution back into the DSL (inverse of parse_substitution)."""
    lines = []
    for a, img in enumerate(z.images):
        lines.append(
            z.alphabet.token(a) + " -> " + " ".join(z.alphabet.token(b) for b in img)
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Matrix and predicates
# ---------------------------------------------------------------------------

def substitution_matrix(z: Substitution) -> IntMatrix:
    """Matrix S with S[a, b] = number of occurrences of letter a in z(b).

    Column sums equal image lengths; for a constant-length substitution every
    column sums to q.
    """
    m = z.size
    cols = []
    for b in range(m):
        counts = [0] * m
        for a in z.images[b]:
            counts[a] += 1
        cols.append(counts)
    # cols[b][a] -> entries[a][b]
    return IntMatrix(tuple(tuple(cols[b][a] for b in range(m)) for a in range(m)))


@dataclass(frozen=True)
class PrimitivityResult:
    primitive: bool
    witness_n: Optional[int]  # least n with S^n > 0 entrywise, if primitive


def _support_rows(M: IntMatrix) -> list[int]:
    """The 0/1 pattern of M as bitmask rows: bit c of row r is set iff M[r, c] > 0."""
    return [sum(1 << c for c, x in enumerate(row) if x > 0) for row in M.entries]


def _boolean_product(A: list[int], B: list[int]) -> list[int]:
    """Boolean matrix product of bitmask rows: row r of AB is the union of the
    rows of B at the set bits of row r of A."""
    out = []
    for row in A:
        acc = 0
        while row:
            low = row & -row
            acc |= B[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return out


def is_primitive(z: Substitution) -> PrimitivityResult:
    """Test primitivity: some power of the substitution matrix is entrywise positive.

    Positivity of S^n only depends on the 0/1 pattern of S, so the powers
    are taken as boolean products of bitmask rows, and the least witness
    exponent is returned.  The bound m^2 + 1 dominates the Wielandt bound
    (m-1)^2 + 1 for primitive nonnegative matrices, so a miss within the
    bound is a definitive "not primitive".
    """
    m = z.size
    full = (1 << m) - 1
    S = _support_rows(substitution_matrix(z))
    power = S
    for n in range(1, m * m + 2):
        if all(row == full for row in power):
            return PrimitivityResult(True, n)
        power = _boolean_product(power, S)
    return PrimitivityResult(False, None)


def constant_length(z: Substitution) -> Optional[int]:
    """Return q if every image has length q, else None."""
    lengths = {len(img) for img in z.images}
    if len(lengths) == 1:
        return lengths.pop()
    return None


def seed_letter(z: Substitution) -> tuple[int, int]:
    """Find (a, p) with p >= 1 minimal for a such that z^p(a) starts with a.

    The letter-to-first-image-letter map f(a) = z(a)[0] is a function on a
    finite set, so it has a cycle of length <= m; any letter on a cycle of
    length p satisfies f^p(a) = a, i.e. z^p(a) starts with a.  Returns the
    smallest-index letter lying on a cycle, with its cycle length.
    """
    first = [img[0] for img in z.images]
    # one pass: each walk marks the letters it reaches until it meets a
    # marked one; if that letter was marked by this walk, it closed a cycle
    walk = [-1] * z.size
    best = (z.size, 0)
    for start in range(z.size):
        x = start
        while walk[x] < 0:
            walk[x] = start
            x = first[x]
        if walk[x] == start:
            cycle = [x]
            while first[cycle[-1]] != x:
                cycle.append(first[cycle[-1]])
            best = min(best, (min(cycle), len(cycle)))
    return best


def _symbol_code(m: int) -> str:
    """`array` typecode of one symbol of an m-letter alphabet: the narrowest
    unsigned type that holds m - 1, as numpy's `min_scalar_type` picks it."""
    return next(code for code in "BHIQ" if m - 1 < 1 << (8 * array(code).itemsize))


def _pack(word: Sequence[int], m: int) -> bytes:
    """A word over an m-letter alphabet as bytes, one `_symbol_code(m)` item per letter."""
    return array(_symbol_code(m), word).tobytes()


def _unpack(packed: bytes, m: int) -> tuple[int, ...]:
    """Inverse of `_pack`."""
    return tuple(memoryview(packed).cast(_symbol_code(m)))


def _fixed_point_bytes(
    z: Substitution,
    letter: int,
    power: int,
    target_len: int,
    max_symbols: int = DEFAULT_MAX_SYMBOLS,
) -> bytes:
    """`fixed_point_prefix` packed as bytes, one `_symbol_code(z.size)` item per symbol.

    Each round joins the packed images of the symbols it expands, in one
    `bytes.join`.  The fixed point of w = z^power is also the fixed point of
    every power of w, so w is first squared while its images are short:
    then each round joins fewer, longer strings.
    """
    if target_len < 1:
        raise ValueError("target_len must be >= 1")
    if target_len > max_symbols:
        raise ResourceBudgetError(
            f"target_len {target_len} exceeds symbol budget {max_symbols}"
        )
    w = power_substitution(z, power)
    if w.images[letter][0] != letter:
        raise ValueError(
            f"z^{power}({z.alphabet.token(letter)!r}) does not start with the letter itself"
        )
    code = _symbol_code(z.size)
    images = [_pack(img, z.size) for img in w.images]
    if len(w.images[letter]) == 1:
        # z^power(letter) = letter: the fixed point is the constant sequence
        return images[letter] * target_len
    cur = _pack((letter,), z.size)
    width = len(cur)
    size = target_len * width
    while max(map(len, images)) <= _SQUARE_MAX_IMAGE * width and min(map(len, images)) < size:
        images = [b"".join([images[a] for a in memoryview(img).cast(code)]) for img in images]
    need = -(-size // min(map(len, images)))  # source symbols that reach the target
    while len(cur) < size:
        # the first letter's image is longer than the letter, so every round grows
        nxt = b"".join([images[a] for a in memoryview(cur).cast(code)[:need]])
        cur = nxt[:size]
    return cur


def fixed_point_prefix(
    z: Substitution,
    letter: int,
    power: int,
    target_len: int,
    max_symbols: int = DEFAULT_MAX_SYMBOLS,
) -> np.ndarray:
    """First `target_len` symbols of the one-sided fixed point of z^power at `letter`.

    Requires that z^power(letter) starts with `letter` (see `seed_letter`).
    The prefix is built chunkwise: at every round only the part of the current
    prefix that is needed to reach `target_len` after one more substitution
    round is expanded, so intermediate images stay within a constant factor of
    the target.  The result is deterministic and has the prefix property:
    the length-n output is a prefix of the length-n' output for n <= n'.
    Its dtype is `np.min_scalar_type(m - 1)`.
    """
    import numpy as np

    packed = _fixed_point_bytes(z, letter, power, target_len, max_symbols)
    return np.frombuffer(packed, dtype=_symbol_code(z.size)).astype(np.min_scalar_type(z.size - 1))


def allowed_words(z: Substitution, length: int) -> frozenset[tuple[int, ...]]:
    """All length-`length` factors of the substitution language.

    Seeded with the factors of z^k(a) for every letter a, where k is minimal
    with |z^k(a)| >= length; then closed under taking factors of one-step
    images until stable.  For a primitive substitution the closure is exactly
    the set of allowed words of that length.  A letter whose image stops
    growing for m steps seeds nothing, since it never grows again: each
    position has passed m letters with length-1 images, and all later ones
    are among them.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    m = z.size
    words: set[tuple[int, ...]] = set()
    for a in range(m):
        img, stalled = (a,), 0
        while len(img) < length and stalled < m:
            grown = z.apply(img)
            stalled = stalled + 1 if len(grown) == len(img) else 0
            img = grown
        words.update(img[i : i + length] for i in range(len(img) - length + 1))

    while True:
        new: set[tuple[int, ...]] = set()
        for w in words:
            img = z.apply(w)
            for i in range(len(img) - length + 1):
                f = img[i : i + length]
                if f not in words:
                    new.add(f)
        if not new:
            return frozenset(words)
        words |= new


@dataclass(frozen=True)
class AperiodicityResult:
    # True/False when the neighborhood test applies; None when the
    # substitution is not injective on letters and the test says nothing.
    aperiodic: Optional[bool]
    reason: str


def is_aperiodic_pansiot(z: Substitution) -> AperiodicityResult:
    """Aperiodicity test for primitive constant-length substitutions.

    For a substitution injective on letters, the system is aperiodic iff some
    letter a has two distinct neighborhoods, i.e. two distinct allowed 3-words
    b a c.  If the substitution is not injective on letters the test does not
    apply and `aperiodic` is None.
    """
    if len(set(z.images)) != z.size:
        return AperiodicityResult(None, "substitution is not injective on letters; neighborhood test does not apply")
    triples = allowed_words(z, 3)
    neighborhoods: dict[int, set[tuple[int, int]]] = {}
    for (b, a, c) in triples:
        neighborhoods.setdefault(a, set()).add((b, c))
    for a, ns in sorted(neighborhoods.items()):
        if len(ns) >= 2:
            (b1, c1), (b2, c2) = sorted(ns)[:2]
            tok = z.alphabet.token
            return AperiodicityResult(
                True,
                f"letter {tok(a)!r} has distinct neighborhoods "
                f"{tok(b1)}·{tok(a)}·{tok(c1)} and {tok(b2)}·{tok(a)}·{tok(c2)}",
            )
    return AperiodicityResult(False, "every letter has a single neighborhood; the fixed point is periodic")


def power_substitution(z: Substitution, j: int) -> Substitution:
    """The substitution z^j (images are z applied j times to each letter).

    Raises ResourceBudgetError once an image exceeds DEFAULT_MAX_SYMBOLS.
    """
    if j < 1:
        raise ValueError("power must be >= 1")
    if j == 1:
        return z
    images = []
    for a in range(z.size):
        img = (a,)
        for _ in range(j):
            img = z.apply(img)
            if len(img) > DEFAULT_MAX_SYMBOLS:
                raise ResourceBudgetError(
                    f"image length exceeds symbol budget {DEFAULT_MAX_SYMBOLS} at power {j}"
                )
        images.append(img)
    return Substitution(z.alphabet, tuple(images))
