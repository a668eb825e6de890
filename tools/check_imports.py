"""Fail on a name that a module of the package imports but never uses.

Run from the repository root (standard library only):

    python3 tools/check_imports.py [FILE_OR_DIR ...]

The default is src/intmr.  A name counts as used when the module reads it,
lists it in __all__, or, in an __init__.py, imports it from one of the
package's own modules (a re-export).  Prints one line per unused import and
exits 1 when there is any.
"""

import ast
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def unused_imports(path):
    """(line, name) of every import in the file at path that is never used."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    reexports = os.path.basename(path) == "__init__.py"
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if not (reexports and node.level):
                imported += [(node.lineno, a.asname or a.name) for a in node.names
                             if a.name != "*"]
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in imported if name not in used]


def main(argv):
    targets = argv or [os.path.join(ROOT, "src", "intmr")]
    files = []
    for target in targets:
        if os.path.isdir(target):
            files += sorted(os.path.join(target, f) for f in os.listdir(target)
                            if f.endswith(".py"))
        else:
            files.append(target)
    found = [(path, line, name) for path in files for line, name in unused_imports(path)]
    for path, line, name in found:
        print("%s:%d: %r imported but unused" % (os.path.relpath(path), line, name))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
