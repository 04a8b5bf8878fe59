"""Free group words over a symbol alphabet.

A word is a tuple of oriented letters.  The letter ``"a"`` is a basis symbol
and ``"~a"`` is its inverse; the same convention is used for oriented edges
elsewhere, so paths and words share all the reduction machinery here.
"""


def inv(letter):
    """Inverse of a single oriented letter."""
    return letter[1:] if letter.startswith("~") else "~" + letter


def base(letter):
    """Underlying symbol of an oriented letter (strips the ``~``)."""
    return letter[1:] if letter.startswith("~") else letter


def is_positive(letter):
    return not letter.startswith("~")


def inverse(word):
    return tuple(inv(x) for x in reversed(word))


class _Inverses(dict):
    """Letter -> inverse letter, each computed on its first lookup."""

    def __missing__(self, letter):
        self[letter] = mate = inv(letter)
        return mate


# the one memo of letter inverses that every tightening loop reads
_INVERSE_OF = _Inverses()


class _OrientedImages(dict):
    """Oriented letter -> image word under the basis images ``images``;
    the image of an inverse letter is inverted on its first lookup.  This
    table is the level f_# of the map's powers (``power``)."""

    def __init__(self, images):
        super().__init__()
        self.images = images
        self.above = []  # the tables of f^2_#, f^3_#, ... built so far

    def __missing__(self, letter):
        img = self.images[base(letter)]
        if not is_positive(letter):
            img = inverse(img)
        self[letter] = img
        return img

    def power(self, p):
        """The table of f^p_# (p >= 1), f_# being this table.  Levels up
        to p are built on first use and kept, so every f^k of one map is
        built once."""
        if p == 1:
            return self
        above = self.above
        while len(above) < p - 1:
            above.append(_Power(self, above[-1] if above else self))
        return above[p - 2]


class _Power(dict):
    """Oriented letter -> f^p_#(letter), filled on first lookup as
    f_#(f^(p-1)_#(letter)) from the table ``first`` of f_# and the table
    ``below`` of f^(p-1)_#; an inverse letter inverts its mate's image."""

    def __init__(self, first, below):
        super().__init__()
        self.first, self.below = first, below

    def __missing__(self, letter):
        if not is_positive(letter):
            self[letter] = img = inverse(self[inv(letter)])
            return img
        # fill the levels that lack the letter from the lowest up, so that a
        # deep level does not recurse once per level
        chain = [self]
        while chain[-1].below is not self.first and letter not in chain[-1].below:
            chain.append(chain[-1].below)
        for level in reversed(chain):
            level[letter] = img = _substitute(self.first, level.below[letter])
        return img


def _tighten(pieces):
    """Concatenation of the letter sequences ``pieces``, freely reduced.

    The one cancel-on-inverse loop behind words, basis images and edge
    paths: a letter pops the top of the stack when the top is its inverse
    and is pushed otherwise.
    """
    inverse_of = _INVERSE_OF
    out = []
    push, pop = out.append, out.pop
    for piece in pieces:
        for y in piece:
            if out and out[-1] == inverse_of[y]:
                pop()
            else:
                push(y)
    return tuple(out)


def _cyclic_start(word):
    """Number of letters cyclic reduction strips from each end of a reduced word."""
    inverse_of = _INVERSE_OF
    i, j = 0, len(word) - 1
    while j > i and word[i] == inverse_of[word[j]]:
        i += 1
        j -= 1
    return i


def free_reduce(word):
    """Reduce a word by cancelling adjacent inverse pairs."""
    return _tighten((word,))


def concat(*words):
    return _tighten(words)


def cyclic_reduce(word):
    """Return ``(core, conjugator)`` with ``word = conjugator * core * conjugator^-1``.

    The input is freely reduced first.
    """
    w = free_reduce(word)
    i = _cyclic_start(w)
    return w[i : len(w) - i], w[:i]


def parse_word(text):
    """Parse a space separated word string like ``"a b ~a"``; ValueError
    when ``text`` is not a string."""
    if not isinstance(text, str):
        raise ValueError(f"{text!r} is not a word: expected a string of space-separated letters")
    text = text.strip()
    if not text:
        return ()
    return tuple(text.split())


def format_word(word):
    return " ".join(word)


def _substitute(oriented, word):
    """``word`` with each letter replaced by its image in the
    ``_OrientedImages`` table ``oriented``, freely reduced.  A caller that
    substitutes many words through one automorphism keeps one table, so
    each inverse image is built once."""
    return _tighten(map(oriented.__getitem__, word))


def apply_images(images, word):
    """Substitute basis letters by their image words and freely reduce.

    ``images`` maps basis symbols to words; inverse letters use the inverse
    image.
    """
    return _substitute(_OrientedImages(images), word)


def power_images(images, n):
    """Basis images of Phi^n, Phi given by the reduced basis images
    ``images``; each call builds its own power table."""
    symbols = sorted(images)
    if n < 1:
        return {s: (s,) for s in symbols}
    table = _OrientedImages(images).power(n)
    return {s: table[s] for s in symbols}
