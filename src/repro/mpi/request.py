"""Nonblocking-operation handles, mirroring ``MPI_Request``."""

from __future__ import annotations

from typing import Callable

from repro.sim.core import Event


class Request:
    """Handle for an in-flight nonblocking send or receive.

    ``yield from req.wait()`` blocks the calling process until the
    operation completes and returns its value (the received message's
    payload for receives, ``None`` for sends); ``then(callback)`` is the
    same wait for a callback chain.  ``test()`` polls without
    blocking.  ``cancel()`` withdraws a not-yet-matched receive (like
    ``MPI_Cancel``): the matching slot is released so a late message
    cannot be consumed by a request nobody is watching anymore.
    """

    #: Optional lifecycle observer (the MPI checker, when analysis is
    #: on): notified on wait/completion/test/cancel.  Class-level None
    #: keeps the untracked fast path attribute-cheap.
    observer = None

    #: Set by a successful :meth:`cancel`.
    cancelled = False

    def __init__(self, event: Event, kind: str):
        self._event = event
        self.kind = kind

    @property
    def event(self) -> Event:
        return self._event

    def test(self) -> bool:
        """True once the operation has completed."""
        if self.observer is not None:
            self.observer.on_test(self)
        return self._event.processed

    def cancel(self) -> bool:
        """Withdraw the operation if it has not completed; True on success.

        Only receives support cancellation (cancelling sends is
        deprecated in MPI itself); a completed, already-matched, or
        send request returns False and is left untouched.  After a
        successful cancel the request's event never fires — do not
        ``wait()`` on it.
        """
        if self.cancelled or self._event.triggered:
            return False
        self.cancelled = self._withdraw()
        if self.cancelled and self.observer is not None:
            self.observer.on_cancel(self)
        return self.cancelled

    def _withdraw(self) -> bool:
        """Withdraw the pending operation; True if it was withdrawn.
        A receive's request overrides this; a send cannot be withdrawn."""
        return False

    def wait(self):
        """Generator: wait for completion and return the result.  A
        process closed while it waits withdraws a pending receive."""
        if self.observer is not None:
            self.observer.on_wait(self)
        try:
            value = yield self._event
        except GeneratorExit:
            self.cancel()
            raise
        if self.observer is not None:
            self.observer.on_complete(self)
        return value

    def then(self, callback: Callable[[Event], None]) -> None:
        """Callback form of :meth:`wait`: ``callback(event)`` runs when
        the operation completes (the event holds the received message,
        or a failed send's exception).  The MPI checker counts it as a
        wait, as it does a process's.
        """
        observer = self.observer
        event = self._event
        if observer is not None:
            observer.on_wait(self)
            event.add_callback(lambda _ev: observer.on_complete(self))
        # Inlined add_callback: one call per operation on the event
        # system's hot path.
        callbacks = event.callbacks
        if callbacks is None:
            callback(event)
        else:
            callbacks.append(callback)

    @staticmethod
    def wait_all(requests: list["Request"]):
        """Generator: wait for every request (like ``MPI_Waitall``)."""
        results = []
        for req in requests:
            value = yield from req.wait()
            results.append(value)
        return results

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "cancelled" if self.cancelled
            else "done" if self.test()
            else "pending"
        )
        return f"<Request {self.kind} {state}>"
