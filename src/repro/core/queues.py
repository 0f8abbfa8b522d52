"""The two queues of Figure 5.

* :class:`AccessQueue` — the slot of every entry touched by a pull is
  appended here, one array per pull (Algorithm 1 line 17,
  ``asyncTask``); the cache-maintainer threads consume it batch by
  batch once all pulls of that batch completed.
* :class:`CheckpointRequestQueue` — checkpoint requests (manual or from
  the periodic thread) append the latest completed batch id; the head is
  the *on-going checkpoint* consulted by Algorithm 2.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import CheckpointError, ServerError


class AccessQueue:
    """FIFO of (batch_id, accessed entry slots) maintenance tasks."""

    def __init__(self) -> None:
        self._tasks: deque[tuple[int, np.ndarray]] = deque()
        self.total_entries_enqueued = 0

    def append(self, batch_id: int, slots: np.ndarray) -> None:
        """Enqueue one pull's accessed entries as a maintenance task."""
        self._tasks.append((batch_id, slots))
        self.total_entries_enqueued += len(slots)

    def pop_batch(self, batch_id: int) -> np.ndarray:
        """Dequeue and concatenate every pending task of ``batch_id``.

        The maintainer is activated only once all pulls of the batch are
        done, so it drains every task stamped with that batch at once.
        Tasks of *earlier* batches still pending are drained too (they
        can only exist if a maintainer round was skipped) to preserve
        FIFO processing order; tasks of later batches — pulls queued
        ahead of this round — stay queued for theirs.

        Raises:
            ServerError: a task from a *future* batch is at the head,
                which would mean pulls and maintenance ran out of order.
                Nothing is dequeued.
        """
        tasks = self._drain(batch_id)
        return np.concatenate(tasks) if tasks else np.empty(0, dtype=np.int64)

    def requeue(self, batch_id: int, slots: np.ndarray) -> None:
        """Put accesses a round could not process back at the head."""
        self._tasks.appendleft((batch_id, slots))

    def discard(self, slots: np.ndarray) -> None:
        """Scrub ``slots`` from every pending task.

        A key dropped from the node between its pull and that round's
        maintenance must not reach the maintainer: its slot is free, and
        may by then belong to another key.
        """
        self._tasks = deque(
            (batch_id, task[~np.isin(task, slots)]) for batch_id, task in self._tasks
        )

    def _drain(self, batch_id: int) -> list:
        tasks = self._tasks
        if tasks and tasks[0][0] > batch_id:
            raise ServerError(
                f"access queue head is batch {tasks[0][0]}, ahead of "
                f"maintenance round {batch_id}"
            )
        self._tasks = deque(task for task in tasks if task[0] > batch_id)
        return [task for task_batch, task in tasks if task_batch <= batch_id]

    def __len__(self) -> int:
        return len(self._tasks)

    @property
    def pending_entries(self) -> int:
        return sum(len(task) for __, task in self._tasks)


class CheckpointRequestQueue:
    """FIFO of requested checkpoint batch ids (Figure 5, right)."""

    def __init__(self) -> None:
        self._requests: deque[int] = deque()
        self.total_requested = 0

    def push(self, batch_id: int) -> None:
        """Request a checkpoint of the state as of ``batch_id``.

        Raises:
            CheckpointError: requests must be monotonically increasing —
                a checkpoint of an older batch than one already queued is
                meaningless under batch consistency.
        """
        if self._requests and batch_id <= self._requests[-1]:
            raise CheckpointError(
                f"checkpoint request {batch_id} not newer than queued "
                f"{self._requests[-1]}"
            )
        self._requests.append(batch_id)
        self.total_requested += 1

    def head(self) -> int | None:
        """The on-going checkpoint's batch id, or None when idle."""
        return self._requests[0] if self._requests else None

    def pop(self) -> int:
        """Mark the on-going checkpoint done and return its batch id.

        Raises:
            CheckpointError: the queue is empty.
        """
        if not self._requests:
            raise CheckpointError("no on-going checkpoint to complete")
        return self._requests.popleft()

    def pending(self) -> list[int]:
        """All queued checkpoint batch ids, oldest first."""
        return list(self._requests)

    def __len__(self) -> int:
        return len(self._requests)
