"""Shared instance generators and helpers for the test suite."""

import io
from itertools import chain, combinations, product

from hypothesis import strategies as st

from hallkernel import FiniteMapping, image_of_set, is_critical
from hallkernel.cli import parse_mapping_document


@st.composite
def mappings(draw, max_x=5, max_y=5, min_image=0):
    """Random small mappings with integer labels 1..n."""
    nx = draw(st.integers(1, max_x))
    ny = draw(st.integers(1, max_y))
    images = {x: draw(st.sets(st.integers(1, ny), min_size=min_image, max_size=ny))
              for x in range(1, nx + 1)}
    return FiniteMapping(images, range(1, ny + 1), images)


@st.composite
def hall_mappings(draw, max_x=5, max_y=5):
    """Random small mappings that satisfy the Hall condition, by construction.

    Each element gets a planted value of its own, then random extras.  Every
    Hall-satisfying mapping within the bounds can be drawn: plant one of its
    selections.
    """
    ny = draw(st.integers(1, max_y))
    nx = draw(st.integers(1, min(max_x, ny)))
    planted = draw(st.permutations(range(1, ny + 1)))
    images = {x: {planted[x - 1]} | draw(st.sets(st.integers(1, ny), max_size=ny))
              for x in range(1, nx + 1)}
    return FiniteMapping(images, range(1, ny + 1), images)


def stdin_of(data):
    """A text stream like ``sys.stdin`` whose ``buffer`` holds ``data``.

    Text is encoded as UTF-8; bytes are taken as they are.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def document(mapping) -> str:
    """``mapping`` as canonical document text, read back before it is returned.

    ``X:`` and ``Y:`` headers, then one ``x :`` line per element followed by
    `` y`` for each value of its image.  The parser is the grammar: the text
    must read back as the mapping with each label as its ``str`` and the same
    image bits, so a test document never differs from its mapping.
    """
    lines = ["X: " + " ".join(map(str, mapping.x_labels)),
             "Y: " + " ".join(map(str, mapping.y_labels))]
    for x, bits in zip(mapping.x_labels, mapping.image_bits):
        lines.append(f"{x} :" + "".join(f" {y}" for y in mapping.y_labels_of(bits)))
    text = "\n".join(lines) + "\n"
    read = parse_mapping_document(text)
    assert read.x_labels == tuple(map(str, mapping.x_labels))
    assert read.y_labels == tuple(map(str, mapping.y_labels))
    assert read.image_bits == mapping.image_bits
    return text


def all_mappings_3x3():
    """Every mapping with X = Y = {1, 2, 3}: each image any subset of Y (512)."""
    y = (1, 2, 3)
    subsets = [tuple(s) for size in range(4) for s in combinations(y, size)]
    for imgs in product(subsets, repeat=3):
        yield FiniteMapping((1, 2, 3), y, dict(zip((1, 2, 3), imgs)))


def random_mapping(rng, max_x=7, max_y=7):
    """One mapping with sizes up to the bounds and uniform image density."""
    nx = rng.randint(1, max_x)
    ny = rng.randint(1, max_y)
    density = rng.random()
    images = {x: {y for y in range(1, ny + 1) if rng.random() < density}
              for x in range(1, nx + 1)}
    return FiniteMapping(images, range(1, ny + 1), images)


def relabelled(mapping, rng):
    """The same mapping with both ground-set enumeration orders shuffled."""
    xs = list(mapping.x_labels)
    ys = list(mapping.y_labels)
    rng.shuffle(xs)
    rng.shuffle(ys)
    return FiniteMapping(xs, ys, mapping.images_by_label())


def nonempty_subsets(labels):
    labels = tuple(labels)
    return chain.from_iterable(combinations(labels, size)
                               for size in range(1, len(labels) + 1))


def critical_sets(mapping):
    """All critical subsets, found by exhaustive scan."""
    return [frozenset(w) for w in nonempty_subsets(mapping.x_labels)
            if is_critical(mapping, w)]


def image_size(mapping, members) -> int:
    return len(image_of_set(mapping, members))


#: Arto Inkala's "world's hardest Sudoku" (2012).
INKALA = "8..........36......7..9.2...5...7.......457.....1...3...1....68..85...1..9....4.."


def canonical_grid_text() -> str:
    """An 81-character valid solved grid (shifted-rows construction)."""
    return "".join(str(((3 * ((r - 1) % 3) + (r - 1) // 3 + (c - 1)) % 9) + 1)
                   for r in range(1, 10) for c in range(1, 10))


def blanked(text: str, cells) -> str:
    chars = list(text)
    for r, c in cells:
        chars[(r - 1) * 9 + (c - 1)] = "."
    return "".join(chars)
