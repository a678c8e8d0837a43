"""Functions compiled from generated source lines, under named sources.

emit compiles every function the package generates under a filename that
names what was generated, such as <finslerlab klein_ball n=2 #1>, and keeps
the source in linecache while the function lives, so profilers tell the
families, dimensions and state lengths apart and tracebacks show the line.
"""

from __future__ import annotations  # compile() hands this flag on to the generated code objects

import itertools
import linecache
import weakref

_serial = itertools.count(1)  # one filename per compile: per-config sources share a label


def emit(signature: str, lines: list, namespace: dict, label: str):
    """def signature: over lines, run in namespace (which keeps it by name) and filed as <finslerlab label #k>."""
    source = "".join(line + "\n" for line in [f"def {signature}:", *("    " + line for line in lines)])
    filename = f"<finslerlab {label} #{next(_serial)}>"
    exec(compile(source, filename, "exec"), namespace)
    function = namespace[signature.partition("(")[0]]
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    weakref.finalize(function, linecache.cache.pop, filename, None)
    return function
