"""Deterministic random-number streams.

A simulation run must be reproducible from a single integer seed, yet the
components drawing randomness (network jitter, load generators, failure
injection, ...) must not perturb each other's streams when one of them
draws more or fewer numbers.  The classic solution — used across the HPC
simulation literature — is one *named* independent substream per component.

:class:`RngRegistry` derives each substream from the root
:class:`numpy.random.SeedSequence` and the component's name, so

* the same ``(seed, name)`` always yields the same stream, and
* adding a new component never shifts the streams of existing ones.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["BufferedDraws", "RngRegistry", "stable_hash64"]


def stable_hash64(name: str) -> int:
    """A process-independent 64-bit hash of *name*.

    Python's builtin ``hash`` is salted per process, so it cannot be used
    to derive reproducible seeds; BLAKE2 is stable everywhere.
    """
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class RngRegistry:
    """A factory of named, independent ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this registry was created with."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the stream for *name*, creating it on first use.

        Repeated calls with the same name return the *same* generator
        object, so components may freely re-request their stream.
        """
        gen = self._streams.get(name)
        if gen is None:
            seq = np.random.SeedSequence(
                entropy=self._seed, spawn_key=(stable_hash64(name),)
            )
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def fork(self, name: str) -> "RngRegistry":
        """Derive a child registry (e.g. one per machine) from *name*."""
        return RngRegistry(seed=self._seed ^ stable_hash64(name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self._seed}, streams={sorted(self._streams)})"


class BufferedDraws:
    """Block-buffered scalar draws from one named stream.

    Per-datagram and per-tick code draws *one* number at a time, but a
    ``numpy.random.Generator`` pays most of its cost in Python call
    overhead, not in bit generation.  :class:`BufferedDraws` vectorises:
    it fills a block of *block* values in one generator call and serves
    them back as plain Python floats.

    **Determinism contract.**  numpy's ``Generator`` fills an array with
    exactly the same values, in the same order, as the corresponding
    sequence of scalar calls (the distribution kernels consume the
    underlying bitstream sequentially either way).  So as long as a
    stream's draw sequence is *homogeneous* — same distribution, same
    parameters — the buffered sequence is **bit-identical** to the scalar
    one, and same-seed runs are unchanged.  Switching distribution or
    parameters mid-stream discards the rest of the buffer: still fully
    deterministic (the refill schedule is a pure function of the call
    sequence), but the prefetched bits shift the stream relative to pure
    scalar code.  The hot streams in this repo (network latency, network
    impairments, workload jitter) are all homogeneous.  Measured against
    one generator call per draw: every bench-e2e report digest is the
    same, and the scalar draws cost 1.04x ``pass_cost`` on ``sim-steady``
    and 1.09x on ``sim-faulted-chain`` (10 alternating pairs each).
    """

    __slots__ = ("_rng", "_block", "_buf", "_idx", "_kind")

    def __init__(self, rng: np.random.Generator, block: int = 256) -> None:
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        self._rng = rng
        self._block = int(block)
        self._buf: list = []
        self._idx = 0
        self._kind: Optional[Tuple] = None

    @property
    def raw(self) -> np.random.Generator:
        """The underlying generator, after discarding any buffered values.

        For draw shapes :class:`BufferedDraws` does not cover (``choice``,
        ``shuffle``, ...).  Discarding keeps the interleaving of buffered
        and raw draws a deterministic function of the call sequence.
        """
        self._buf = []
        self._idx = 0
        self._kind = None
        return self._rng

    def _serve(self, kind: Tuple, fill) -> float:
        if self._kind != kind or self._idx >= len(self._buf):
            self._buf = fill(self._rng, self._block).tolist()
            self._idx = 0
            self._kind = kind
        value = self._buf[self._idx]
        self._idx += 1
        return value

    # The per-kind methods inline the buffer-hit case — no tuple or
    # closure allocation per draw — because they sit on the per-datagram
    # path; only a refill (or a parameter change) builds anything.
    def random(self) -> float:
        """One uniform draw on [0, 1) — block-buffered ``rng.random()``."""
        if self._kind is _KIND_RANDOM and self._idx < len(self._buf):
            value = self._buf[self._idx]
            self._idx += 1
            return value
        return self._serve(_KIND_RANDOM, lambda rng, n: rng.random(n))

    def _take_block(self, kind: Tuple, fill, count: int) -> list:
        """*count* draws of *kind*, bit-identical to *count* scalar calls.

        Serves whole buffer slices instead of one value per call, but
        refills in exactly the scalar path's ``_block``-sized steps — the
        refill schedule is what keeps the underlying bitstream aligned
        with scalar code, so mixing scalar and block draws on one stream
        stays deterministic.
        """
        out: list = []
        remaining = count
        while remaining > 0:
            if self._kind != kind or self._idx >= len(self._buf):
                self._buf = fill(self._rng, self._block).tolist()
                self._idx = 0
                self._kind = kind
            take = len(self._buf) - self._idx
            if take > remaining:
                take = remaining
            out.extend(self._buf[self._idx : self._idx + take])
            self._idx += take
            remaining -= take
        return out

    def random_block(self, count: int) -> np.ndarray:
        """*count* uniform draws on [0, 1), served from the same buffer."""
        return np.asarray(self._take_block(_KIND_RANDOM, lambda rng, n: rng.random(n), count))

    def exponential(self, scale: float) -> float:
        """Block-buffered ``rng.exponential(scale)``."""
        kind = self._kind
        if (
            self._idx < len(self._buf)
            and kind is not None
            and kind[0] == "exponential"
            and kind[1] == scale
        ):
            value = self._buf[self._idx]
            self._idx += 1
            return value
        return self._serve(
            ("exponential", scale), lambda rng, n: rng.exponential(scale, n)
        )

    def lognormal(self, mu: float, sigma: float) -> float:
        """Block-buffered ``rng.lognormal(mu, sigma)``."""
        kind = self._kind
        if (
            self._idx < len(self._buf)
            and kind is not None
            and kind[0] == "lognormal"
            and kind[1] == mu
            and kind[2] == sigma
        ):
            value = self._buf[self._idx]
            self._idx += 1
            return value
        return self._serve(
            ("lognormal", mu, sigma), lambda rng, n: rng.lognormal(mu, sigma, n)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        left = len(self._buf) - self._idx
        return f"<BufferedDraws block={self._block} kind={self._kind} buffered={left}>"


_KIND_RANDOM = ("random",)
