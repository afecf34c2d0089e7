"""Content-addressed protocol negotiation for agent networks.

Agents exchange JSON envelopes over HTTP(S); protocols are plain-text
documents identified by the SHA1 of their bytes, negotiated in natural
language when exchanges repeat, and served by synthesized routines once
both sides hold one. The simulator reproduces the escalation economics
deterministically with scripted backends.
"""

from .documents import (ProtocolDocument, ProtocolMetadata, ProtocolReference,
                        compute_hash, parse_document, verify_document)
from .envelope import (RequestEnvelope, ResponseEnvelope, decode_request,
                       decode_response, encode_request, encode_response)
from .gateway import (Activity, CompletionBackend, CostLedger, Message,
                      TokenUsage, count_tokens, summarize)
from .runtime import (Agent, AgentConfig, EscalationThresholds, Mode,
                      ToolDescriptor, decide_mode)

__version__ = "0.1.0"

__all__ = [
    "Activity", "Agent", "AgentConfig", "CompletionBackend", "CostLedger",
    "EscalationThresholds", "Message", "Mode", "ProtocolDocument",
    "ProtocolMetadata", "ProtocolReference", "RequestEnvelope",
    "ResponseEnvelope", "TokenUsage", "ToolDescriptor", "compute_hash",
    "count_tokens", "decide_mode", "decode_request", "decode_response",
    "encode_request", "encode_response", "parse_document", "summarize",
    "verify_document", "__version__",
]
