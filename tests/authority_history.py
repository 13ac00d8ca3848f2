"""An "authority" history certificate for unit tests: one plain signature
by the pseudo-process ``authority`` over the group and the history. It
lets a test hand replicas and hubs a valid history without running the
reconfiguration agreements."""

from dynbla.dbla import plain_verify_hex
from dynbla.lattice import History, canon


def history_payload(group: str, h: History) -> bytes:
    return canon(["history", group, h])


def make_authority_history_cert(oracle, group: str, h: History) -> dict:
    sig = oracle.plain_sign("authority", history_payload(group, h))
    return {"kind": "authority", "sig": sig.hex()}


def check_authority_history(oracle, group: str):
    def check(h: History, cert: dict) -> bool:
        return (
            isinstance(cert, dict)
            and cert.get("kind") == "authority"
            and plain_verify_hex(oracle, history_payload(group, h), "authority", cert.get("sig"))
        )

    return check
