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


class _Anchor:
    """Kept in a generated namespace under its source's filename; its finalizer drops that source."""


def emit(signature: str, lines: list, namespace: dict, label: str):
    """def signature: over lines, run in namespace and filed as <finslerlab label #k>.

    The function is taken out of the namespace again, so it and the
    namespace, which is the globals of every function it defines, form no
    cycle and go by reference counting.  The namespace keeps an anchor whose
    finalizer drops the source from linecache: the source lives exactly as
    long as some function compiled from it.
    """
    source = "".join(line + "\n" for line in [f"def {signature}:", *("    " + line for line in lines)])
    filename = f"<finslerlab {label} #{next(_serial)}>"
    exec(compile(source, filename, "exec"), namespace)
    function = namespace.pop(signature.partition("(")[0])
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace[filename] = anchor = _Anchor()
    weakref.finalize(anchor, linecache.cache.pop, filename, None)
    return function
