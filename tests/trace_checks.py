"""Step-column comparison shared by the solver, storage and trace-file tests."""

import numpy as np

from kaczmarz.harness import TRACE_COLUMNS


def assert_same_steps(trace, reference):
    """Equal step columns, as bits: each column is None in both traces or has
    the same dtype, length and values in both.  NaN equals NaN and -0.0 differs
    from 0.0, as their reprs do.  A failure names the column, its first
    differing step and both values."""
    for name in TRACE_COLUMNS[1:]:
        ours, theirs = getattr(trace, name), getattr(reference, name)
        if ours is None or theirs is None:
            assert ours is None and theirs is None, f"{name}: {ours!r} != {theirs!r}"
            continue
        assert ours.dtype == theirs.dtype, f"{name}: dtype {ours.dtype} != {theirs.dtype}"
        common = min(len(ours), len(theirs))
        a, b = ours[:common], theirs[:common]
        same = ((a == b) & (np.signbit(a) == np.signbit(b))) | (np.isnan(a) & np.isnan(b))
        first = np.flatnonzero(~same)
        first = first.item(0) if first.size else (None if len(ours) == len(theirs) else common)
        assert first is None, (f"{name} at step {first} of {len(theirs)}: "
                               f"{ours[first:first + 1].tolist()} != "
                               f"{theirs[first:first + 1].tolist()}")
