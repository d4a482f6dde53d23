"""The protocol channel: progress lines such as the '//' text of
`forge --protocol`.

Library code reports a step with note(msg).  The message goes to the sink
installed by the innermost recording(sink) block, and nowhere when no block
is active, much as Singular's option(prot) switches its protocol on once,
globally.  The sink is held in a ContextVar and every block restores
the sink it found, also when it exits by an exception, so one recording
cannot leak into later calls.

Four call sites run inside recording(None) on purpose.  Each is an inner
pass of a step that reports its own summary line, and its notes would bury
that line under pass sizes:
- the codimension check of a construction (check_expected_codim) takes
  the maximal minors without minors_ideal's count line;
- the two ideal quotients of top_dimensional_part run after its "top part:
  cut with ..." line, without a "quotient pass emitted ..." line each (a
  kernel section whose degeneracy locus is linear prints one "top part:
  saturated by a linear form ..." line instead, or, when that route does
  not apply, a "... cutting instead" line before the cut's);
- saturation takes one saturation by each variable and intersects the
  results, and reports only "saturation by ..." and "saturation: ...";
- Resolution.minimize resolves the kept generators again and reports only
  "minimization cancelled ... unit pairs".
The --protocol text of the commands is pinned byte for byte by the cases
in tests/golden.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Optional

__all__ = ["note", "recording"]

Sink = Callable[[str], None]

_sink: ContextVar[Optional[Sink]] = ContextVar("brforge_protocol", default=None)


def note(msg: str) -> None:
    """Send one progress line to the active sink, if any."""
    sink = _sink.get()
    if sink is not None:
        sink(msg)


@contextmanager
def recording(sink: Optional[Sink]) -> Iterator[None]:
    """Send the notes made inside the block to sink (None drops them)."""
    token = _sink.set(sink)
    try:
        yield
    finally:
        _sink.reset(token)
