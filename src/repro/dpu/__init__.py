"""Dynamic protocol update — the paper's contribution.

* :class:`ReplAbcastModule` — Algorithm 1 (replacement of atomic
  broadcast protocols) behind the ``r-abcast`` indirection level;
* :class:`ReplacementManager` — orchestration + the paper's replacement
  window measurement;
* :mod:`~repro.dpu.properties` / :mod:`~repro.dpu.abcast_checker` —
  trace checkers for the Section 3 generic properties and the Section 5
  ABcast properties across replacements;
* :class:`AbcastProbeModule` / :class:`DeliveryLog` — the observation
  layer the checkers consume.
"""

from .abcast_checker import (
    assert_abcast_properties,
    chain_agreement_violations,
    check_all_abcast_properties,
    check_recovery_liveness,
    check_uniform_agreement,
    check_uniform_integrity,
    check_uniform_total_order,
    check_validity,
    is_post_rejoin_send,
)
from .manager import ReplacementManager, ReplacementWindow
from .probes import AbcastProbeModule, DeliveryLog, payload_key
from .properties import (
    assert_strong_stack_well_formedness,
    assert_weak_stack_well_formedness,
    check_chain_agreement,
    check_strong_protocol_operationability,
    check_strong_stack_well_formedness,
    check_weak_protocol_operationability,
    check_weak_stack_well_formedness,
    protocol_chains,
)
from .repl import NEW_ABCAST, NIL, ReplAbcastModule, SwitchTask

__all__ = [
    "ReplAbcastModule",
    "SwitchTask",
    "NIL",
    "NEW_ABCAST",
    "ReplacementManager",
    "ReplacementWindow",
    "AbcastProbeModule",
    "DeliveryLog",
    "payload_key",
    "check_weak_stack_well_formedness",
    "check_strong_stack_well_formedness",
    "check_weak_protocol_operationability",
    "check_strong_protocol_operationability",
    "assert_weak_stack_well_formedness",
    "assert_strong_stack_well_formedness",
    "check_validity",
    "check_uniform_agreement",
    "check_uniform_integrity",
    "check_uniform_total_order",
    "check_recovery_liveness",
    "check_all_abcast_properties",
    "assert_abcast_properties",
    "is_post_rejoin_send",
    "protocol_chains",
    "check_chain_agreement",
    "chain_agreement_violations",
]
