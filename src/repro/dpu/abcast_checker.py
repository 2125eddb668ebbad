"""Checkers for the atomic broadcast properties *across replacements*.

Section 5.2.2 of the paper proves that Algorithm 1 preserves the four
ABcast properties end-to-end (at the ``r-abcast`` level) assuming each
installed protocol satisfies them.  These checkers verify exactly that on
a recorded :class:`~repro.dpu.probes.DeliveryLog`:

* **validity** — a message ABcast by a correct (never-crashed) stack is
  eventually Adelivered by that stack;
* **uniform agreement** — a message Adelivered by *any* stack (even one
  that crashed later) is Adelivered by every correct stack;
* **uniform integrity** — each stack Adelivers a message at most once,
  and only if it was previously ABcast;
* **uniform total order** — the delivery sequences of any two stacks,
  restricted to the messages they both delivered, are identical.

The total-order formulation via restriction-equality is equivalent to the
pairwise definition: if i delivers m before m' and j delivers both, then j
must deliver them in the same order — quantified over all pairs.

Finite-trace caveat: "eventually" obligations near the end of a run may be
in flight; run experiments to quiescence or pass ``in_flight_ok`` keys to
exempt (the property tests drain the system, so they check strictly).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set

from ..errors import PropertyViolation
from ..sim.clock import Time
from .probes import DeliveryLog

__all__ = [
    "check_validity",
    "check_uniform_agreement",
    "check_uniform_integrity",
    "check_uniform_total_order",
    "check_recovery_liveness",
    "check_corruption_containment",
    "chain_agreement_violations",
    "check_all_abcast_properties",
    "assert_abcast_properties",
    "is_post_rejoin_send",
]


def is_post_rejoin_send(
    sender: int, t_send: Time, rejoined: Dict[int, Time]
) -> bool:
    """Whether a send happened after *sender*'s own re-join completion.

    The single definition of the exemption-narrowing rule: a send by an
    ever-crashed stack counts as a correct-process send again exactly
    when the sender completed its re-join handshake before the send.
    The scenario engine (in-flight exemptions), the quiescence drain and
    :func:`check_recovery_liveness` all consult this predicate, so the
    three can never drift apart.
    """
    t_rejoin = rejoined.get(sender)
    return t_rejoin is not None and t_send > t_rejoin


def check_validity(
    log: DeliveryLog,
    crashed: Dict[int, Time],
    in_flight_ok: Optional[Set[Hashable]] = None,
) -> List[str]:
    """Correct senders must deliver their own messages."""
    exempt = in_flight_ok or set()
    delivered = {stack_id: log.delivered_set(stack_id) for stack_id in log.deliveries}
    violations = []
    for key, (sender, t_send) in log.sends.items():
        if sender in crashed or key in exempt:
            continue
        if key not in delivered.get(sender, ()):
            violations.append(
                f"message {key!r} ABcast by correct stack {sender} at "
                f"t={t_send:.6f} was never Adelivered by its sender"
            )
    return violations


def check_uniform_agreement(
    log: DeliveryLog,
    crashed: Dict[int, Time],
    stacks: Sequence[int],
    in_flight_ok: Optional[Set[Hashable]] = None,
) -> List[str]:
    """Anything delivered anywhere must be delivered at every correct stack."""
    exempt = in_flight_ok or set()
    delivered_anywhere: Set[Hashable] = set()
    for stack_id in stacks:
        delivered_anywhere |= log.delivered_set(stack_id)
    violations = []
    for stack_id in stacks:
        if stack_id in crashed:
            continue
        missing = delivered_anywhere - log.delivered_set(stack_id) - exempt
        for key in sorted(missing, key=repr):
            violations.append(
                f"message {key!r} was Adelivered somewhere but never by "
                f"correct stack {stack_id}"
            )
    return violations


def check_uniform_integrity(log: DeliveryLog, stacks: Sequence[int]) -> List[str]:
    """At-most-once per stack; only previously-ABcast messages."""
    violations = []
    for stack_id in stacks:
        seen: Set[Hashable] = set()
        for key in log.delivery_sequence(stack_id):
            if key in seen:
                violations.append(
                    f"stack {stack_id} Adelivered message {key!r} more than once"
                )
            seen.add(key)
            if key not in log.sends:
                violations.append(
                    f"stack {stack_id} Adelivered message {key!r} that was never ABcast"
                )
    return violations


def check_uniform_total_order(log: DeliveryLog, stacks: Sequence[int]) -> List[str]:
    """Pairwise restriction-equality of delivery sequences."""
    sequences = {s: log.delivery_sequence(s) for s in stacks}
    sets = {s: set(seq) for s, seq in sequences.items()}
    violations = []
    ordered = sorted(stacks)
    for idx, i in enumerate(ordered):
        for j in ordered[idx + 1:]:
            common = sets[i] & sets[j]
            if not common:
                continue
            seq_i = [k for k in sequences[i] if k in common]
            seq_j = [k for k in sequences[j] if k in common]
            if seq_i != seq_j:
                # Report the first divergence point, which is the most
                # useful debugging artefact.
                for a, b in zip(seq_i, seq_j):
                    if a != b:
                        violations.append(
                            f"stacks {i} and {j} diverge: {i} delivered {a!r} "
                            f"where {j} delivered {b!r}"
                        )
                        break
                else:  # pragma: no cover - same prefix, different length is
                    violations.append(  # impossible on equal common sets
                        f"stacks {i} and {j} delivered common messages in "
                        f"different multiplicity"
                    )
    return violations


def check_recovery_liveness(
    log: DeliveryLog,
    rejoined: Dict[int, Time],
    crashed: Dict[int, Time],
    in_flight_ok: Optional[Set[Hashable]] = None,
) -> List[str]:
    """Recovered-and-rejoined stacks honour liveness again (narrowed exemption).

    The plain checkers exempt an ever-crashed stack from every
    "eventually delivers" obligation, which is sound but hollow in
    crash-recovery runs: a machine that restarted, re-armed its failure
    detector and re-joined through the GM state transfer is a correct
    process again from its re-join instant on.  This checker narrows the
    exemption back: for each stack *r* with re-join completion time
    ``rejoined[r]``, every message ABcast after that instant by a correct
    sender — or by a rejoined sender after *its own* re-join — must be
    Adelivered by *r*.  (Total order and integrity never exempted *r*;
    agreement obligations of the *other* stacks towards *r*'s
    post-re-join sends are restored by the engine, which drops those
    sends from the ``in_flight_ok`` exemption set.)
    """
    exempt = in_flight_ok or set()
    violations = []
    for r, t_rejoin in sorted(rejoined.items()):
        delivered = log.delivered_set(r)
        missing = []
        for key, (sender, t_send) in log.sends.items():
            if t_send <= t_rejoin or key in exempt:
                continue
            if sender in crashed and not is_post_rejoin_send(sender, t_send, rejoined):
                continue  # the sender itself stayed exempt for this send
            if key not in delivered:
                missing.append((t_send, key, sender))
        for t_send, key, sender in sorted(missing, key=lambda m: (m[0], repr(m[1]))):
            violations.append(
                f"message {key!r} ABcast by stack {sender} at t={t_send:.6f} "
                f"was never Adelivered by stack {r}, which re-joined at "
                f"t={t_rejoin:.6f}"
            )
    return violations


def check_corruption_containment(
    network_stats: Dict[str, int], checksum: bool = True
) -> List[str]:
    """**Corruption containment**: wire corruption never crosses into a host.

    *network_stats* is the :meth:`repro.net.network.SimNetwork.stats`
    snapshot.  The two directions, matching the network's corruption
    model:

    * **tolerated** — with the receiver-NIC *checksum* on, every
      corrupted frame must have been detected and dropped below the
      protocol stack (the reliable layers then retransmit, so the ABcast
      properties are unaffected).  A corrupted frame that was delivered
      anyway is a containment violation.
    * **flagged** — with the checksum off, any corrupted frame that was
      delivered reached a host unprotected; the run is flagged even if
      the stack happened to survive (the doorway's defensive parsing is
      best-effort, not a soundness argument).
    """
    violations: List[str] = []
    delivered = network_stats.get("corrupted_delivered", 0)
    if checksum and delivered:
        violations.append(
            f"{delivered} corrupted datagram(s) slipped past the receiver "
            f"checksum and were delivered"
        )
    if not checksum and delivered:
        violations.append(
            f"{delivered} corrupted datagram(s) were delivered to hosts "
            f"with no checksum protection (corruption not contained)"
        )
    return violations


def _is_subsequence(short: Sequence[str], long: Sequence[str]) -> bool:
    """Whether *short* appears in *long* in order (gaps allowed)."""
    it = iter(long)
    return all(any(x == y for y in it) for x in short)


def chain_agreement_violations(
    chains: Dict[int, Sequence[str]],
    crashed: Optional[Dict[int, Time]] = None,
) -> List[str]:
    """**Chain agreement**: every stack traverses the identical protocol
    chain in the identical order.

    *chains* maps each stack to the ordered list of protocols it bound to
    the replaced service (initial protocol first, then one entry per
    completed switch) — see
    :func:`repro.dpu.properties.protocol_chains` for the trace-side
    extractor.  The property quantifies like the paper's: every
    never-crashed stack must traverse exactly the same chain; an
    ever-crashed stack may have *missed* versions (it died, or died and
    recovered after a window passed it by), so it is held to a weaker but
    still order-sensitive rule — its chain must be a subsequence of the
    correct stacks' common chain.  Any divergence in order, or any
    protocol a correct stack never bound, is a violation: under pipelined
    replacements this is exactly the property the ``sn`` guard buys
    (stale changes applied at unsynchronised points make two stacks walk
    *different* chains).
    """
    crashed = crashed or {}
    correct = {s: list(chains[s]) for s in sorted(chains) if s not in crashed}
    violations: List[str] = []
    reference: Optional[List[str]] = None
    ref_stack: Optional[int] = None
    for s, chain in correct.items():
        if reference is None:
            reference, ref_stack = chain, s
            continue
        if chain != reference:
            violations.append(
                f"stacks {ref_stack} and {s} traversed different protocol "
                f"chains: {reference!r} vs {chain!r}"
            )
    if reference is None:
        return violations  # no correct stack: nothing to anchor the chain
    for s in sorted(chains):
        if s not in crashed:
            continue
        chain = list(chains[s])
        if not _is_subsequence(chain, reference):
            violations.append(
                f"ever-crashed stack {s} traversed {chain!r}, which is not a "
                f"subsequence of the correct chain {reference!r}"
            )
    return violations


def check_all_abcast_properties(
    log: DeliveryLog,
    crashed: Dict[int, Time],
    stacks: Sequence[int],
    in_flight_ok: Optional[Set[Hashable]] = None,
) -> Dict[str, List[str]]:
    """Run all four checkers; returns ``{property: violations}``."""
    return {
        "validity": check_validity(log, crashed, in_flight_ok),
        "uniform agreement": check_uniform_agreement(
            log, crashed, stacks, in_flight_ok
        ),
        "uniform integrity": check_uniform_integrity(log, stacks),
        "uniform total order": check_uniform_total_order(log, stacks),
    }


def assert_abcast_properties(
    log: DeliveryLog,
    crashed: Dict[int, Time],
    stacks: Sequence[int],
    in_flight_ok: Optional[Set[Hashable]] = None,
) -> None:
    """Raise :class:`PropertyViolation` on the first failing property."""
    results = check_all_abcast_properties(log, crashed, stacks, in_flight_ok)
    for prop, violations in results.items():
        if violations:
            preview = "; ".join(violations[:5])
            more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
            raise PropertyViolation(prop, preview + more)
