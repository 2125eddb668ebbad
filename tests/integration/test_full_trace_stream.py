"""The full trace stream of a real run, pinned.

The recorder keeps the per-call firehose in a flat hot log that the
stacks extend directly, and every other kind in columns; queries merge
the two back into recording order.  This test pins the rendered stream
of a run that records all 13 kinds, read through ``of_kind`` over every
kind, to the digest the all-columns recorder produced.
"""

import hashlib

from repro.experiments import build_group_comm_system
from repro.kernel import TraceKind
from repro.scenarios import get_scenario
from repro.scenarios.engine import ScenarioRun

#: sha256 of the rendered stream below, computed with the all-columns
#: recorder (every record one ``record()`` call into ten columns).
PINNED_STREAM_SHA256 = "acd4fffc9cba2f6f95422c1b7b3aeb61100a7deba4d0a425f208c66ab29cc40e"
PINNED_RECORDS = 248272


def _render(record):
    return repr((
        record.time, record.kind.value, record.stack_id, record.service,
        record.module, record.protocol, record.method, record.call_id,
        record.event, sorted(record.detail.items()),
    ))


def test_pipelined_crash_recover_stream_is_pinned():
    # Retirement adds the one kind this scenario would not record
    # (module_removed), so the stream covers all 13 kinds.
    spec = get_scenario("pipelined-crash-recover-chain")
    gcs = build_group_comm_system(spec, 0, trace="full")
    for stack in range(spec.n):
        gcs.manager.module(stack).retire_old_after = 0.5
    run = ScenarioRun(gcs)
    run.drive()
    trace = gcs.backend.trace
    assert set(trace.counts()) == {kind.value for kind in TraceKind}
    events = trace.of_kind(*TraceKind)
    assert len(events) == len(trace) == PINNED_RECORDS
    stream = "\n".join(_render(record) for record in events)
    assert hashlib.sha256(stream.encode()).hexdigest() == PINNED_STREAM_SHA256
    assert run.check().ok

