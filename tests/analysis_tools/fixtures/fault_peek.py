"""Seeded KL-FLT001 violation: fault code peeking at mapping state."""


def verify_recovery(ssd, namespace, key):
    # Reading the mapping table directly lets a recovery bug "verify"
    # itself; the harness must go through the public command surface.
    location, _ = namespace.index.lookup(key)
    staged = ssd.mapping._staged.get((1, key))
    return location, staged, ssd.mapping._tombstones
