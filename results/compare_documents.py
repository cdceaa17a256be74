#!/usr/bin/env python3
"""Compares two telemetry documents with their wall-clock keys stripped.

    python3 results/compare_documents.py A.json B.json

Every document the bench binaries and sim_cli write is a pure function of
its flags apart from the keys in WALL_CLOCK (wall-clock seconds and the
thread count), which are dropped at every depth. The two documents are
then walked in step: the script prints the first path at which they differ
and exits 1, or exits 0 when they are equal. The same check serves the threads-1-vs-4 diffs and a
comparison of regenerated documents against the committed ones.
"""

import json
import sys

WALL_CLOCK = {'phase_seconds', 'seconds', 'threads', 'timing'}


def first_difference(a, b, path='$'):
    """Returns the path of the first difference, or None if equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted((a.keys() | b.keys()) - WALL_CLOCK):
            if key not in a or key not in b:
                return f'{path}.{key} (present on one side only)'
            found = first_difference(a[key], b[key], f'{path}.{key}')
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f'{path} (length {len(a)} vs {len(b)})'
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f'{path}[{i}]')
            if found:
                return found
        return None
    if type(a) is type(b) and a == b:
        return None
    return f'{path} ({json.dumps(a)[:80]} vs {json.dumps(b)[:80]})'


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(f'usage: {argv[0]} A.json B.json\n')
        return 2
    with open(argv[1]) as fa, open(argv[2]) as fb:
        diff = first_difference(json.load(fa), json.load(fb))
    if diff:
        print(f'{argv[1]} and {argv[2]} differ at {diff}')
        return 1
    print(f'{argv[1]} and {argv[2]} agree')
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv))
