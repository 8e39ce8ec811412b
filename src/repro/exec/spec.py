"""Declarative, picklable policy-factory specs.

The sweep executor ships simulation cells to worker processes and keys
them in a content-addressed cache.  Both need the *policy factory* of a
cell to be (a) picklable and (b) fingerprintable — neither of which holds
for the closures the ``*_factory`` helpers historically returned.

:func:`spec_factory` fixes that at the definition site: decorating a
factory-producing function makes it return a :class:`PolicySpec` — a
frozen record of *which* function was called with *which* arguments —
instead of the closure itself.  The spec is

* **callable** exactly like the closure (``spec(context) -> policy``), so
  every existing call site keeps working;
* **picklable** (strings and argument values only), so cells cross the
  process boundary;
* **canonically encodable** (a plain dataclass), so it participates in
  cache fingerprints.

Materialisation resolves the decorated function by dotted path and calls
the *undecorated* original (``__wrapped__``), so workers rebuild the
closure from source-of-truth code rather than from pickled bytecode.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass, field
from typing import Callable


def resolve_ref(ref: str) -> Callable:
    """The undecorated module-level function ``"module:qualname"`` names."""
    module_name, _, qualname = ref.partition(":")
    target = importlib.import_module(module_name)
    for part in qualname.split("."):
        target = getattr(target, part)
    return getattr(target, "__wrapped__", target)


@dataclass(frozen=True)
class PolicySpec:
    """One policy factory as data: function reference plus arguments.

    Attributes
    ----------
    ref:
        ``"module:qualname"`` of the decorated factory-producing
        function.
    args / kwargs:
        The call's positional arguments and (sorted) keyword items.
        Values must be picklable and canonically encodable — in practice
        ints, floats, bools, strings and enums.
    """

    ref: str
    args: tuple = ()
    kwargs: tuple = field(default_factory=tuple)

    def resolve(self) -> Callable:
        """The undecorated factory-producing function behind :attr:`ref`."""
        return resolve_ref(self.ref)

    def materialize(self) -> Callable:
        """Rebuild the underlying policy factory (the original closure)."""
        return self.resolve()(*self.args, **dict(self.kwargs))

    def __call__(self, context):
        """Build a policy for ``context``, exactly like the raw factory."""
        return self.materialize()(context)

    def describe(self) -> str:
        """Compact human-readable rendering (for logs and cache keys)."""
        parts = [repr(value) for value in self.args]
        parts += [f"{key}={value!r}" for key, value in self.kwargs]
        return f"{self.ref}({', '.join(parts)})"


def spec_factory(fn: Callable) -> Callable:
    """Decorator: make a factory-producing function return specs.

    ``fn(*args, **kwargs)`` must return a policy factory (a callable of
    one ``PolicyContext`` argument).  The decorated version returns an
    equivalent :class:`PolicySpec` instead.  ``functools.wraps`` keeps
    the public signature (and ``__wrapped__`` access for
    materialisation) intact.
    """
    ref = f"{fn.__module__}:{fn.__qualname__}"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs) -> PolicySpec:
        return PolicySpec(ref=ref, args=tuple(args),
                          kwargs=tuple(sorted(kwargs.items())))

    return wrapper
