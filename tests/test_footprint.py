"""The values kept per query and per charge are slotted frozen dataclasses
that behave as the plain frozen dataclasses they replaced."""

import dataclasses

import pytest

from agentmesh.envelope import RequestEnvelope, ResponseEnvelope
from agentmesh.gateway import Activity, LedgerRecord, TokenUsage
from agentmesh.simulator import MetricsRecord
from agentmesh.workload import QueryTask

DIGEST = "a" * 40

# Each instance with its repr and asdict, as the unslotted classes gave them.
CASES = [
    (MetricsRecord(3, "user-01", "svc-a-1", "weather", "protocol", "success",
                   0.0, 1.5, 0, True, 4, 0.001),
     "MetricsRecord(index=3, user_id='user-01', server_id='svc-a-1', task_type='weather', "
     "mode='protocol', status='success', cost=0.0, cumulative_cost=1.5, model_invocations=0, "
     "routine_hit=True, pd_count=4, duration_s=0.001)",
     {"index": 3, "user_id": "user-01", "server_id": "svc-a-1", "task_type": "weather",
      "mode": "protocol", "status": "success", "cost": 0.0, "cumulative_cost": 1.5,
      "model_invocations": 0, "routine_hit": True, "pd_count": 4, "duration_s": 0.001}),
    (QueryTask("user-01", "svc-a-1", "weather", {"city": "Oslo"}),
     "QueryTask(user_id='user-01', target_server_id='svc-a-1', task_type='weather', "
     "payload={'city': 'Oslo'})",
     {"user_id": "user-01", "target_server_id": "svc-a-1", "task_type": "weather",
      "payload": {"city": "Oslo"}}),
    (RequestEnvelope(DIGEST, ("mem://x",), "hi"),
     f"RequestEnvelope(protocol_hash='{DIGEST}', protocol_sources=('mem://x',), body='hi')",
     {"protocol_hash": DIGEST, "protocol_sources": ("mem://x",), "body": "hi"}),
    (ResponseEnvelope("success", "ok"),
     "ResponseEnvelope(status='success', body='ok')",
     {"status": "success", "body": "ok"}),
    (TokenUsage(3, 4),
     "TokenUsage(prompt_tokens=3, completion_tokens=4)",
     {"prompt_tokens": 3, "completion_tokens": 4}),
    (LedgerRecord(0, "gpt-4o", TokenUsage(3, 4), Activity.NEGOTIATION, 0.5),
     "LedgerRecord(index=0, model_id='gpt-4o', usage=TokenUsage(prompt_tokens=3, "
     "completion_tokens=4), activity=<Activity.NEGOTIATION: 'negotiation'>, cost=0.5)",
     {"index": 0, "model_id": "gpt-4o", "usage": {"prompt_tokens": 3, "completion_tokens": 4},
      "activity": Activity.NEGOTIATION, "cost": 0.5}),
]
IDS = [type(case[0]).__name__ for case in CASES]


@pytest.mark.parametrize("value, text, fields", CASES, ids=IDS)
class TestSlottedValues:
    def test_slots_and_no_instance_dict(self, value, text, fields):
        names = tuple(f.name for f in dataclasses.fields(value))
        assert type(value).__slots__ == names
        assert not hasattr(value, "__dict__")

    def test_fields_stay_frozen(self, value, text, fields):
        name = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))

    def test_repr_and_asdict(self, value, text, fields):
        assert repr(value) == text
        assert dataclasses.asdict(value) == fields

    def test_replace_equality_and_hash(self, value, text, fields):
        same = dataclasses.replace(value)
        assert same == value and same is not value
        name = dataclasses.fields(value)[0].name
        first = getattr(value, name)
        assert dataclasses.replace(value, **{name: first + type(first)(1)}) != value
        row = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
        if isinstance(value, QueryTask):
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)        # its payload is a dict
        else:
            assert hash(value) == hash(row) == hash(same)
