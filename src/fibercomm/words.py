"""Free group words over a symbol alphabet.

A word is a tuple of oriented letters.  The letter ``"a"`` is a basis symbol
and ``"~a"`` is its inverse; the same convention is used for oriented edges
elsewhere, so paths and words share all the reduction machinery here.
"""

Word = tuple  # tuple of oriented letters


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


class _OrientedImages(dict):
    """Oriented letter -> image word under the basis images ``images``;
    the image of an inverse letter is inverted on its first lookup."""

    def __init__(self, images):
        super().__init__()
        self.images = images

    def __missing__(self, letter):
        img = self.images[base(letter)]
        if not is_positive(letter):
            img = inverse(img)
        self[letter] = img
        return img


def _tighten(pieces, inverse_of):
    """Concatenation of the letter sequences ``pieces``, freely reduced.

    The one cancel-on-inverse loop behind words, basis images and edge
    paths: a letter pops the top of the stack when the top is its inverse
    (looked up in ``inverse_of``) and is pushed otherwise.
    """
    out = []
    push, pop = out.append, out.pop
    for piece in pieces:
        for y in piece:
            if out and out[-1] == inverse_of[y]:
                pop()
            else:
                push(y)
    return tuple(out)


def _cyclic_start(word, inverse_of):
    """Number of letters cyclic reduction strips from each end of a reduced word."""
    i, j = 0, len(word) - 1
    while j > i and word[i] == inverse_of[word[j]]:
        i += 1
        j -= 1
    return i


def free_reduce(word):
    """Reduce a word by cancelling adjacent inverse pairs."""
    return _tighten((word,), _Inverses())


def concat(*words):
    return _tighten(words, _Inverses())


def cyclic_reduce(word):
    """Return ``(core, conjugator)`` with ``word = conjugator * core * conjugator^-1``.

    The input is freely reduced first.
    """
    w = free_reduce(word)
    i = _cyclic_start(w, _Inverses())
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
    return _tighten(map(oriented.__getitem__, word), _Inverses())


def apply_images(images, word):
    """Substitute basis letters by their image words and freely reduce.

    ``images`` maps basis symbols to words; inverse letters use the inverse
    image.
    """
    return _substitute(_OrientedImages(images), word)


def compose_images(outer, inner):
    """Basis images of the composite ``outer after inner``."""
    return {s: apply_images(outer, w) for s, w in inner.items()}


def identity_images(symbols):
    return {s: (s,) for s in symbols}


def power_images(images, n):
    symbols = sorted(images)
    result = identity_images(symbols)
    for _ in range(n):
        result = compose_images(images, result)
    return result
