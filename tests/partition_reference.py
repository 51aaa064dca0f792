"""Test-local set-partition references, independent of the package."""


def rgs(m):
    """Every restricted-growth string of length m, in lexicographic order."""
    def extend(prefix, top):
        if len(prefix) == m:
            yield prefix
            return
        for lab in range(top + 2):
            yield from extend(prefix + (lab,), max(top, lab))
    yield from extend((0,), 0)


def blocks(labels):
    """Blocks as element lists, indexed by block label."""
    out = [[] for _ in range(max(labels) + 1)]
    for elem, lab in enumerate(labels):
        out[lab].append(elem)
    return out


def block_sizes(labels):
    """Size of each block, indexed by block label."""
    return tuple(len(block) for block in blocks(labels))
